"""Cluster-scale workload schedules: who syncs with whom, and when.

The anti-entropy layer (:mod:`repro.replication.antientropy`) generates its
gossip schedule *dynamically* while the simulation runs; that is right for
convergence experiments but wrong for performance regression, where two
runs must execute the **same** session schedule so their traffic and
timing are comparable.  This module precomputes deterministic schedules —
plain value objects a :class:`~repro.net.cluster.ClusterRunner` (or any
other driver) can execute, re-execute, or replay sequentially.

Schedules are pure functions of their parameters and a seed: the same
arguments always produce the identical event list, regardless of how the
consuming runner interleaves execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.net.topology import PairSampler, RandomPairTopology


@dataclass(frozen=True)
class SessionRequest:
    """One requested pairwise synchronization: ``dst`` pulls from ``src``.

    ``at`` is the earliest simulated start time; a runner with per-site
    session queues may start the session later if either endpoint is busy.
    ``objs`` optionally restricts a *sharded* session to a subset of the
    pair's shared objects (the deterministic closing sweep uses this to
    scope each session to the replica groups it closes); ``None`` — the
    default — syncs everything the pair shares, and unsharded runners
    ignore the field entirely.
    """

    at: float
    src: str
    dst: str
    objs: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class UpdateRequest:
    """One local update landing on ``site`` at simulated time ``at``.

    ``obj`` names the replicated object the update lands on; clusters
    replicating a single object (the default) leave it at 0.
    """

    at: float
    site: str
    obj: int = 0


def site_names(n_sites: int) -> List[str]:
    """The canonical fleet naming used across workloads: S000, S001, …"""
    return [f"S{i:03d}" for i in range(n_sites)]


def gossip_schedule(sites: Sequence[str], *, rounds: int,
                    period: float = 1.0, jitter: float = 0.2,
                    topology: Optional[PairSampler] = None,
                    seed: int = 0) -> List[SessionRequest]:
    """A fixed gossip schedule: every site initiates once per round.

    Per round each site draws a jittered offset around ``round·period``
    and a partner from ``topology`` (uniform random pairs by default); the
    result is sorted by request time, ties broken by draw order, so
    executing it is deterministic.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    if period <= 0:
        raise ValidationError(f"period must be > 0, got {period}")
    topology = topology or RandomPairTopology()
    rng = random.Random(seed)
    requests: List[SessionRequest] = []
    step = 0
    site_list = list(sites)
    for round_no in range(rounds):
        base = (round_no + 1) * period
        for _ in site_list:
            offset = 1 + jitter * (2 * rng.random() - 1)
            src, dst = topology.pair(rng, step, site_list)
            requests.append(SessionRequest(at=base * offset,
                                           src=src, dst=dst))
            step += 1
    requests.sort(key=lambda r: r.at)
    return requests


def update_schedule(sites: Sequence[str], *, n_updates: int,
                    interval: float = 0.7, seed: int = 0,
                    writers: Optional[Sequence[str]] = None,
                    n_objects: int = 1) -> List[UpdateRequest]:
    """Exponentially-spaced updates over ``writers`` (default: all sites).

    Restricting ``writers`` to a single site produces the conflict-free
    regime BRV requires (§3.1: no reconciliation); the default multi-writer
    draw exercises CRV/SRV reconciliation under concurrency.  With
    ``n_objects > 1`` each update additionally draws a uniform object
    index; ``n_objects=1`` emits the historical single-object schedule
    (every request's ``obj`` is 0 and no extra random draws happen, so
    seeded schedules are unchanged).
    """
    if n_updates < 0:
        raise ValidationError(f"n_updates must be >= 0, got {n_updates}")
    if interval <= 0:
        raise ValidationError(f"interval must be > 0, got {interval}")
    if n_objects < 1:
        raise ValidationError(f"n_objects must be >= 1, got {n_objects}")
    pool = list(writers) if writers is not None else list(sites)
    if n_updates and not pool:
        raise ValidationError("no writers to draw updates from")
    rng = random.Random(seed)
    clock = 0.0
    requests: List[UpdateRequest] = []
    for _ in range(n_updates):
        clock += rng.expovariate(1.0 / interval)
        obj = rng.randrange(n_objects) if n_objects > 1 else 0
        requests.append(UpdateRequest(at=clock, site=rng.choice(pool),
                                      obj=obj))
    return requests
