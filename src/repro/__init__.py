"""repro — reproduction of "On Optimal Concurrency Control for Optimistic
Replication" (Wang & Amza, ICDCS 2009).

The package implements the paper's three rotating version vector
implementations (BRV, CRV, SRV) with their incremental synchronization
protocols (SYNCB, SYNCC, SYNCS), the O(1) COMPARE, the incremental causal
graph exchange for operation transfer (SYNCG), the traditional
full-transfer baselines, and a simulated network substrate that prices
every message in bits and measures running time with and without network
pipelining.  On top of those sit complete state-transfer and
operation-transfer replication systems and workload generators used by the
benchmark harness to regenerate every table and figure of the paper.

Quickstart::

    from repro import SkipRotatingVector, sync_srv

    a = SkipRotatingVector()
    b = SkipRotatingVector()
    a.record_update("A")          # site A writes its replica
    b.record_update("B")          # site B writes concurrently
    result = sync_srv(a, b)       # a becomes the elementwise max
    a.record_update("A")          # reconciliation increment (§2.2)

See README.md for the architecture overview and DESIGN.md for the paper →
module map.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def _lazy_surface(package: str, exports: Dict[str, Tuple[str, ...]]
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for a package's lazy surface.

    ``exports`` maps a submodule path, relative to ``package``, to the
    names the package re-exports from it.  The first access to a name
    imports its submodule and caches the value in the package namespace,
    so ``from repro.obs import Tracer`` loads ``repro.obs.trace`` and
    nothing else.  Any other attribute is tried as a submodule
    (``repro.net.codec``) before ``AttributeError``.
    """
    origin = {name: module
              for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(
                importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_surface(__name__, {
    "core.conflict": ("ConflictRotatingVector",),
    "core.order": ("Ordering",),
    "core.rotating": ("BasicRotatingVector",),
    "core.skip": ("SkipRotatingVector",),
    "core.versionvector": ("VersionVector",),
    "errors": ("ConcurrentVectorsError", "ConflictDetected", "GraphError",
               "ProtocolError", "ReproError", "SessionError",
               "SimulationError", "UnknownSiteError"),
    "graphs.causalgraph": ("CausalGraph", "GraphNode", "build_graph"),
    "net.wire": ("DEFAULT_ENCODING", "Encoding"),
    "obs.export": ("render_timeline",),
    "obs.metrics": ("MetricsRegistry",),
    "obs.trace": ("Tracer",),
    "protocols.comparep": ("compare_remote", "relationship"),
    "protocols.fullsync": ("sync_full_graph", "sync_full_vector"),
    "protocols.session": ("SessionResult",),
    "protocols.syncb": ("sync_brv",),
    "protocols.syncc": ("sync_crv",),
    "protocols.syncg": ("sync_graph",),
    "protocols.syncs": ("sync_srv",),
})

__version__ = "1.0.0"

__all__ = [
    "BasicRotatingVector",
    "CausalGraph",
    "ConcurrentVectorsError",
    "ConflictDetected",
    "ConflictRotatingVector",
    "DEFAULT_ENCODING",
    "Encoding",
    "GraphError",
    "GraphNode",
    "MetricsRegistry",
    "Ordering",
    "ProtocolError",
    "ReproError",
    "SessionError",
    "SessionResult",
    "SimulationError",
    "SkipRotatingVector",
    "Tracer",
    "UnknownSiteError",
    "VersionVector",
    "build_graph",
    "compare_remote",
    "relationship",
    "render_timeline",
    "sync_brv",
    "sync_crv",
    "sync_full_graph",
    "sync_full_vector",
    "sync_graph",
    "sync_srv",
    "__version__",
]
