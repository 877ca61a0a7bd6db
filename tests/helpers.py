"""Shared test utilities: realistic vector histories and protocol drivers.

Many properties of the paper's algorithms hold only for vectors that arose
from a *legal history* — local updates, protocol synchronizations, and the
§2.2 reconciliation increment (which restores COMPARE's fresh-front
precondition).  :func:`build_history` replays a command list through the
real protocols to produce such states, and the hypothesis strategies in the
property tests generate command lists, not raw vectors.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Dict, Generator, Iterator, List, Sequence, Tuple, Type,
                    Union)

from repro.core.conflict import ConflictRotatingVector
from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.net.simulator import to_ns
from repro.net.wire import DEFAULT_ENCODING
from repro.protocols import registry
from repro.protocols.session import (SessionResult, run_session,
                                     run_session_randomized)
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.store.kv import SiteStore

#: A history command: ("update", site_index) or ("sync", dst_index, src_index).
Command = Union[Tuple[str, int], Tuple[str, int, int]]

SITE_NAMES = [f"X{i}" for i in range(26)]


def site_name(index: int) -> str:
    return SITE_NAMES[index % len(SITE_NAMES)]


def run_sync(a: BasicRotatingVector, b: BasicRotatingVector, *,
             randomized_rng: random.Random | None = None) -> SessionResult:
    """Run the appropriate SYNC* for the vectors' kind, mutating ``a``."""
    reconcile = a.compare(b) is Ordering.CONCURRENT
    if isinstance(a, SkipRotatingVector):
        sender = syncs_sender(b)
        receiver = syncs_receiver(a, reconcile=reconcile)
    elif isinstance(a, ConflictRotatingVector):
        sender = syncc_sender(b)
        receiver = syncc_receiver(a, reconcile=reconcile)
    else:
        sender = syncb_sender(b)
        receiver = syncb_receiver(a)
    if randomized_rng is not None:
        return run_session_randomized(sender, receiver, rng=randomized_rng,
                                      encoding=DEFAULT_ENCODING)
    return run_session(sender, receiver, encoding=DEFAULT_ENCODING)


def build_history(cls: Type[BasicRotatingVector],
                  commands: Sequence[Command],
                  n_sites: int = 4, *,
                  reconcile_increment: bool = True,
                  randomized_seed: int | None = None
                  ) -> List[BasicRotatingVector]:
    """Replay a command list into per-site vectors via the real protocols.

    ``("update", i)`` performs a local update at site i.
    ``("sync", i, j)`` synchronizes site i's vector from site j's; on a
    concurrent pair the §2.2 self-increment follows (unless disabled),
    keeping every front element fresh, as a deployed system would.
    BRV histories skip concurrent syncs entirely (manual resolution).
    """
    rng = random.Random(randomized_seed) if randomized_seed is not None else None
    vectors: List[BasicRotatingVector] = [cls() for _ in range(n_sites)]
    for command in commands:
        if command[0] == "update":
            index = command[1] % n_sites
            vectors[index].record_update(site_name(index))
        else:
            dst = command[1] % n_sites
            src = command[2] % n_sites
            if dst == src:
                continue
            a, b = vectors[dst], vectors[src]
            concurrent = a.compare(b) is Ordering.CONCURRENT
            if concurrent and not isinstance(a, ConflictRotatingVector):
                continue  # BRV: manual resolution, pair excluded
            run_sync(a, b, randomized_rng=rng)
            if concurrent and reconcile_increment:
                a.record_update(site_name(dst))
    return vectors


def expected_merge(a: BasicRotatingVector,
                   b: BasicRotatingVector) -> Dict[str, int]:
    """The elementwise max every SYNC* must realize."""
    result = dict(a.to_version_vector().as_dict())
    for site, value in b.to_version_vector().as_dict().items():
        result[site] = max(result.get(site, 0), value)
    return result


#: The linked-list reference class behind each registered scheme.
LINKED_CLASSES = {"brv": BasicRotatingVector, "crv": ConflictRotatingVector,
                  "srv": SkipRotatingVector}


@contextmanager
def linked_vectors() -> Iterator[None]:
    """Run the body with ``brv``/``crv``/``srv`` over the linked-list oracle.

    Re-registers each scheme with its linked base class as ``vector_cls``
    and puts the array-backed originals back on exit, so a test can run
    the same cluster, store, or bench twice and demand identical bits.
    In-process only: a worker pool would import a fresh registry.
    """
    originals = [registry.get(name) for name in LINKED_CLASSES]
    try:
        for spec in originals:
            registry.register(dataclasses.replace(
                spec, vector_cls=LINKED_CLASSES[spec.name]))
        yield
    finally:
        for spec in originals:
            registry.register(spec)


# -- the store's full-keyspace walk, kept as an oracle --------------------------


def clone_store(store: SiteStore) -> SiteStore:
    """A deep copy of one site's table, stamps, index and knowledge."""
    twin = SiteStore(store.site, store.vector_cls)
    for key in store.table:
        twin.restore(key, store.snapshot(key))
    twin.knowledge.update(store.knowledge)
    return twin


def full_walk_pull(src: SiteStore, dst: SiteStore, *,
                   protocol: str = "srv") -> SiteStore:
    """What ``dst`` holds after pulling *every* key from ``src``.

    The anti-entropy session the store ran before knowledge vectors: one
    SYNC* exchange per key of the sorted union of both tables, siblings
    folded by the pre-session verdict, §2.2's self-increment after each
    reconciled key.  Runs on deep copies, under the
    instant driver, and returns the pulled copy of ``dst`` — the state a
    delta session over the same two sites must reproduce.
    """
    src, dst = clone_store(src), clone_store(dst)
    spec = registry.get(protocol)
    for key in sorted(set(src.table) | set(dst.table)):
        src_record, dst_record = src.record(key), dst.record(key)
        verdict = dst_record.vector.compare(src_record.vector)
        sender, receiver, reconciled = spec.build(
            src_record.vector, dst_record.vector, verdict)
        run_session(sender, receiver, encoding=DEFAULT_ENCODING)
        dst.absorb(key, verdict, src_record.siblings, src_record.updated_at,
                   src_record.stamp)
        if reconciled:
            dst_record.vector.record_update(dst.site)
    return dst


def same_objects(left: Dict[str, Dict[int, Any]],
                 right: Dict[str, Dict[int, Any]]) -> bool:
    """Whether two cluster objects tables (site → object id → vector)
    host the same ids with equal values."""
    return left.keys() == right.keys() and all(
        left[site].keys() == right[site].keys()
        and all(vector.same_values(right[site][obj])
                for obj, vector in left[site].items())
        for site in left)


def session_timing(result: Any) -> Tuple[float, int, int]:
    """A timed session's duration and each party's finish offset from
    its start, the offsets in whole ns: the numbers a replay of the
    session must reproduce exactly."""
    start = to_ns(result.start_time)
    return (result.duration, to_ns(result.sender_finish) - start,
            to_ns(result.receiver_finish) - start)


# -- scripted wire parties -------------------------------------------------------


def scripted(*effects: Any) -> Generator[Any, Any, List[Any]]:
    """A protocol party that yields ``effects`` in order; returns what it
    got back for each."""
    got = []
    for effect in effects:
        got.append((yield effect))
    return got


# -- fresh interpreters ---------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> Any:
    """Run ``code`` in a new interpreter on ``src/``; returns the JSON it
    prints last, so import-set checks see only what ``code`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
