"""Outside-in layer tracing: wrap the layers' public boundaries, time spans.

Nothing under ``src/`` knows about this module.  :func:`install` resolves a
table of dotted names (:data:`CLASS_TARGETS`, :data:`FUNCTION_TARGETS` and
a few hand-written boundaries) and replaces each with a wrapper that opens
a span on a :class:`LayerTracer`; :meth:`Installed.restore` puts every
original back.  A name that no longer resolves is reported as a warning
and its time falls into its caller's layer, so a later PR that renames an
internal function is not blocked by this file.

A span is (name, layer, start, end, parent).  The tracer keeps a span
stack and aggregates self time (duration minus child spans) and calls per
span name online; a layer's numbers are the sum over its names.  Inside a
:meth:`LayerTracer.root` region the layers' self times plus the root's own
self time (``unattributed``) add up to the region's wall time exactly.

The wrappers cost about a microsecond per span and that cost lands partly
in the *caller's* self time, so layers made of many tiny calls
(``core.vector``, ``obs.metrics``) are inflated: compare traced shares
with traced shares only (``run.py --crosscheck`` prints cProfile beside
them).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers, named after this repo's modules.
LAYERS = ("workload", "store.cluster", "store.kv", "net.cluster",
          "net.runner", "net.faults", "net.simulator", "net.topology",
          "protocols.batch", "protocols.sync", "core.vector", "obs.metrics")

#: Module-name prefix -> layer, first match wins.  Decides the layer of a
#: callback or generator from the module that defined it.
MODULE_LAYERS = (
    ("repro.workload", "workload"),
    ("repro.store.cluster", "store.cluster"),
    ("repro.store.kv", "store.kv"),
    ("repro.net.cluster", "net.cluster"),
    ("repro.net.runner", "net.runner"),
    ("repro.net.faults", "net.faults"),
    ("repro.net.simulator", "net.simulator"),
    ("repro.net.topology", "net.topology"),
    ("repro.net.sharding", "net.topology"),
    ("repro.protocols.batch", "protocols.batch"),
    ("repro.protocols", "protocols.sync"),
    ("repro.core", "core.vector"),
    ("repro.obs.metrics", "obs.metrics"),
)

#: Classes whose public methods become spans of the given layer.
CLASS_TARGETS = (
    ("repro.store.kv.SiteStore", "store.kv"),
    ("repro.store.cluster.StoreCluster", "store.cluster"),
    ("repro.net.cluster.ClusterRunner", "net.cluster"),
    ("repro.core.rotating.BasicRotatingVector", "core.vector"),
    ("repro.core.conflict.ConflictRotatingVector", "core.vector"),
    ("repro.core.skip.SkipRotatingVector", "core.vector"),
    ("repro.core.arrayvec.ArrayBasicRotatingVector", "core.vector"),
    ("repro.core.arrayvec.ArrayConflictRotatingVector", "core.vector"),
    ("repro.core.arrayvec.ArraySkipRotatingVector", "core.vector"),
    ("repro.core.arrayorder.ArrayElementOrder", "core.vector"),
    ("repro.net.topology.TopologySpec", "net.topology"),
    ("repro.net.sharding.ShardMap", "net.topology"),
    ("repro.net.sharding.HashRing", "net.topology"),
    ("repro.net.faults.FaultInjector", "net.faults"),
    ("repro.net.faults.RetryPolicy", "net.faults"),
    ("repro.protocols.batch.BatchFrame", "protocols.batch"),
    ("repro.obs.metrics.MetricsRegistry", "obs.metrics"),
    ("repro.obs.metrics.Histogram", "obs.metrics"),
)

#: Functions rebound in every ``repro.*`` module that imported them by name.
FUNCTION_TARGETS = (
    ("repro.store.kv.context_covers", "store.kv"),
    ("repro.store.cluster.gossip_peers", "store.cluster"),
    ("repro.workload.clients.generate_client_ops", "workload"),
    ("repro.workload.cluster.gossip_schedule", "workload"),
    ("repro.workload.cluster.update_schedule", "workload"),
    ("repro.workload.epidemic.epidemic_schedule", "workload"),
    ("repro.workload.epidemic.sharded_update_schedule", "workload"),
    ("repro.workload.epidemic.closing_sweep", "workload"),
    ("repro.net.sharding.build_shard_map", "net.topology"),
    ("repro.net.topology.uniform_peer_rounds", "net.topology"),
    ("repro.net.faults.derive_seed", "net.faults"),
    ("repro.obs.metrics.observe_session", "obs.metrics"),
)

#: Spans kept verbatim: the first SAMPLE_FIRST, plus up to SAMPLE_SHALLOW
#: more at depth <= 2.
SAMPLE_FIRST = 10_000
SAMPLE_SHALLOW = 10_000


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module's code belongs to, or None (bill the caller)."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


@dataclasses.dataclass
class RootResult:
    """One traced region: its wall time and what was attributed inside."""

    name: str
    wall_s: float
    unattributed_s: float
    #: span name -> (layer, self seconds, calls), for spans closed inside.
    names: Dict[str, Tuple[str, float, int]]

    def layers(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls), every layer present."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for layer, self_s, calls in self.names.values():
            totals[layer][0] += self_s
            totals[layer][1] += calls
        return {layer: (s, c) for layer, (s, c) in totals.items()}


class LayerTracer:
    """Span stack with online per-name self-time aggregation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.name_layer: Dict[str, str] = {}
        #: Sampled spans: (name, layer, start, end, depth, parent's start).
        #: Single-threaded, so a start time identifies its span.
        self.sample: List[Tuple[str, str, float, float, int, float]] = []
        #: Spans deeper than this are not sampled; ``_keep`` lowers it as
        #: the sample fills up.
        self._sample_depth = [1 << 30]
        #: Free-form exact counters the hand-written boundaries bump.
        self.counters: Dict[str, int] = {}
        # Frames are [child seconds, start]; the sentinel at the bottom
        # absorbs spans closed outside any root (e.g. result checks).
        self._stack: List[List[float]] = [[0.0, 0.0]]
        self.roots: List[RootResult] = []
        self._callers: Dict[str, Callable[..., Any]] = {}

    def caller(self, layer: str, name: str) -> Callable[..., Any]:
        """``call(fn, *args, **kwargs)``: run ``fn`` as a span of ``layer``.

        One caller per span name, shared by every callback and generator
        proxy of that name, so handing out a traced callable costs one
        ``functools.partial`` and not a closure.
        """
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        name = f"{layer}:{name}"
        cached = self._callers.get(name)
        if cached is not None:
            return cached
        self.name_layer[name] = layer
        self.self_s[name] = 0.0
        self.calls[name] = 0
        stack, clock = self._stack, self.clock
        self_s, calls, keep = self.self_s, self.calls, self._keep
        sample_depth = self._sample_depth

        def call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                parent = stack[-1]
                parent[0] += duration
                if len(stack) <= sample_depth[0]:
                    keep(name, layer, start, end, len(stack) - 1, parent[1])

        self._callers[name] = call
        return call

    def wrap(self, fn: Callable[..., Any], layer: str, name: str
             ) -> Callable[..., Any]:
        """``fn`` as a plain function (so it still binds as a method)
        whose every call is a span of ``layer`` called ``name``."""
        call = self.caller(layer, name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(fn, *args, **kwargs)

        return traced

    def _keep(self, *span: Any) -> None:
        self.sample.append(span)
        if len(self.sample) == SAMPLE_FIRST:
            self._sample_depth[0] = 3  # from now on only depth <= 2
        elif len(self.sample) == SAMPLE_FIRST + SAMPLE_SHALLOW:
            self._sample_depth[0] = 0

    def wrap_callback(self, fn: Any) -> Any:
        """A callback as a span of the layer whose module defined it.

        Already-traced callables, ``None`` and callbacks from modules
        outside every layer are returned unchanged.
        """
        if fn is None or type(fn) is _TracedCallback:
            return fn
        module = getattr(fn, "__module__", None)
        layer = layer_of_module(module)
        if layer is None:
            return fn
        return _TracedCallback(self.caller(layer, f"callback<{module}>"), fn)

    def proxy(self, gen: Any, layer: str, name: str) -> "GeneratorProxy":
        """A generator whose every resumption is a span of ``layer``."""
        return GeneratorProxy(gen, self.caller(layer, name))

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def root(self, name: str) -> "_Root":
        """Context manager delimiting one traced region."""
        return _Root(self, name)

    def write_jsonl(self, path: str) -> None:
        """Aggregate first (one line per root), then the span sample."""
        with open(path, "w", encoding="utf-8") as out:
            for root in self.roots:
                out.write(json.dumps({
                    "root": root.name, "wall_s": root.wall_s,
                    "unattributed_s": root.unattributed_s,
                    "layers": {layer: {"self_s": s, "calls": c}
                               for layer, (s, c) in root.layers().items()},
                    "names": {n: {"layer": layer, "self_s": s, "calls": c}
                              for n, (layer, s, c)
                              in sorted(root.names.items())},
                }) + "\n")
            out.write(json.dumps({"counters": self.counters,
                                  "spans": sum(self.calls.values())}) + "\n")
            for span in self.sample:
                out.write(json.dumps(dict(zip(
                    ("name", "layer", "start", "end", "depth", "parent"),
                    span))) + "\n")


class _TracedCallback(functools.partial):
    """``partial(call, fn)``; its own type so it is never wrapped twice."""

    __slots__ = ()


class _Root:
    def __init__(self, tracer: LayerTracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.result: Optional[RootResult] = None

    def __enter__(self) -> "_Root":
        tracer = self.tracer
        self._before = (dict(tracer.self_s), dict(tracer.calls))
        self._start = tracer.clock()
        self._frame = [0.0, self._start]
        tracer._stack.append(self._frame)
        return self

    def __exit__(self, *exc: Any) -> None:
        tracer = self.tracer
        wall = tracer.clock() - self._start
        if tracer._stack.pop() is not self._frame:
            raise RuntimeError("span stack unbalanced at the end of a root")
        self_before, calls_before = self._before
        names = {}
        for name, total in tracer.self_s.items():
            calls = tracer.calls[name] - calls_before.get(name, 0)
            if calls:
                names[name] = (tracer.name_layer[name],
                               total - self_before.get(name, 0.0), calls)
        self.result = RootResult(
            name=self.name, wall_s=wall,
            unattributed_s=wall - self._frame[0], names=names)
        tracer.roots.append(self.result)


class GeneratorProxy:
    """Stands in for a generator; every resumption is a span.

    The drivers here only ever use the generator protocol (``next``,
    ``send``, ``throw``, ``close``), so the proxy forwards exactly that.
    Return values travel on ``StopIteration`` as usual.
    """

    __slots__ = ("_gen", "_call")

    def __init__(self, gen: Any, call: Callable[..., Any]) -> None:
        self._gen = gen
        self._call = call

    def send(self, value: Any) -> Any:
        return self._call(self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._call(self._gen.throw, *args)

    def close(self) -> None:
        return self._call(self._gen.close)

    def __next__(self) -> Any:
        return self._call(self._gen.__next__)

    def __iter__(self) -> Iterator[Any]:
        return self


# ---------------------------------------------------------------------------
# Installing the wrappers.
# ---------------------------------------------------------------------------


def _resolve(dotted: str) -> Any:
    """The object ``pkg.module.attr`` names."""
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module), attr)


class Installed:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self.warnings: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps staticmethod/classmethod objects intact.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _rebind_function(done: Installed, original: Any, replacement: Any
                     ) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                done.set(module, attr, replacement)


def _wrap_class(done: Installed, tracer: LayerTracer, cls: type, layer: str
                ) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        kind = type(value)
        function = value.__func__ if kind in (staticmethod, classmethod) \
            else value
        if not inspect.isfunction(function) \
                or inspect.isgeneratorfunction(function):
            continue
        wrapped = tracer.wrap(function, layer, f"{cls.__name__}.{attr}")
        done.set(cls, attr, kind(wrapped)
                 if kind in (staticmethod, classmethod) else wrapped)


def install(tracer: LayerTracer) -> Installed:
    """Wrap every boundary that resolves; returns the undo handle."""
    done = Installed()

    def resolve(dotted: str) -> Any:
        try:
            return _resolve(dotted)
        except (ImportError, AttributeError):
            done.warnings.append(dotted)
            return None

    # (d) public methods of the layer classes.
    classes = {dotted: resolve(dotted) for dotted, _ in CLASS_TARGETS}
    for dotted, layer in CLASS_TARGETS:
        if classes[dotted] is not None:
            _wrap_class(done, tracer, classes[dotted], layer)

    # (b) the client's completion hook is the workload's, not the store's.
    store_cluster = classes.get("repro.store.cluster.StoreCluster")
    if store_cluster is not None and "submit" in vars(store_cluster):
        submit_span = vars(store_cluster)["submit"]

        def submit(self: Any, op: Any, on_done: Any = None) -> Any:
            return submit_span(self, op, tracer.wrap_callback(on_done))

        done.set(store_cluster, "submit", submit)

    # (d) plain functions, rebound wherever they were imported by name.
    for dotted, layer in FUNCTION_TARGETS:
        function = resolve(dotted)
        if function is not None:
            _rebind_function(done, function, tracer.wrap(
                function, layer, dotted.rsplit(".", 1)[1]))

    merge = resolve("repro.store.kv.merge_siblings")
    if merge is not None:
        merge_span = tracer.wrap(merge, "store.kv", "merge_siblings")

        def merge_siblings(*groups: Any) -> Any:
            tracer.count("merge_inputs", sum(map(len, groups)))
            return merge_span(*groups)

        _rebind_function(done, merge, merge_siblings)

    # (b) callbacks handed across the session launcher.
    launch = resolve("repro.net.runner.launch")
    if launch is not None:
        launch_span = tracer.wrap(launch, "net.runner", "launch")

        def traced_launch(sim: Any, options: Any) -> Any:
            hooks = {field: tracer.wrap_callback(getattr(options, field))
                     for field in ("on_complete", "on_abandon", "rebuild")
                     if getattr(options, field, None) is not None}
            return launch_span(sim, dataclasses.replace(options, **hooks))

        _rebind_function(done, launch, traced_launch)

    # (c) protocol coroutines and the batch multiplexer.
    spec_cls = resolve("repro.protocols.registry.ProtocolSpec")
    if spec_cls is not None and "build" in vars(spec_cls):
        build_span = tracer.wrap(vars(spec_cls)["build"], "protocols.sync",
                                 "ProtocolSpec.build")

        def build(self: Any, *args: Any, **kwargs: Any) -> Any:
            sender, receiver, reconciled = build_span(self, *args, **kwargs)
            name = f"sync<{self.name}>"
            return (tracer.proxy(sender, "protocols.sync", name),
                    tracer.proxy(receiver, "protocols.sync", name),
                    reconciled)

        done.set(spec_cls, "build", build)

    party = resolve("repro.protocols.batch.batch_party")
    if party is not None:
        party_span = tracer.wrap(party, "protocols.batch", "batch_party")

        def batch_party(*args: Any, **kwargs: Any) -> Any:
            return tracer.proxy(party_span(*args, **kwargs),
                                "protocols.batch", "mux")

        _rebind_function(done, party, batch_party)

    # (a) the simulator: dispatch span, callbacks, processes.
    sim_cls = resolve("repro.net.simulator.Simulator")
    if sim_cls is not None:
        _wrap_simulator(done, tracer, sim_cls)
    return done


def _wrap_simulator(done: Installed, tracer: LayerTracer, sim_cls: type
                    ) -> None:
    members = vars(sim_cls)

    def span(attr: str) -> Any:
        return tracer.wrap(members[attr], "net.simulator",
                           f"Simulator.{attr}")

    for attr in ("run", "step"):
        if attr in members:
            done.set(sim_cls, attr, span(attr))

    if "call_at" in members:
        call_at_span = span("call_at")

        def call_at(self: Any, time: float, fn: Any) -> Any:
            return call_at_span(self, time, tracer.wrap_callback(fn))

        done.set(sim_cls, "call_at", call_at)

    if "call_after" in members:
        call_after_span = span("call_after")

        def call_after(self: Any, delay: float, fn: Any) -> Any:
            # Today call_after delegates to call_at, which then finds the
            # callback already traced.
            return call_after_span(self, delay, tracer.wrap_callback(fn))

        done.set(sim_cls, "call_after", call_after)

    if "spawn" in members:
        spawn_span = span("spawn")

        def spawn(self: Any, process: Any, on_exit: Any = None) -> Any:
            frame = getattr(process, "gi_frame", None)
            module = frame.f_globals.get("__name__") if frame else None
            layer = layer_of_module(module)
            if layer is not None:
                process = tracer.proxy(process, layer, f"process<{module}>")
            return spawn_span(self, process, tracer.wrap_callback(on_exit))

        done.set(sim_cls, "spawn", spawn)
