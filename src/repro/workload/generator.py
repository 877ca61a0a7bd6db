"""Seeded random workload generation with conflict-rate control.

A :class:`WorkloadConfig` describes sites, objects, the update/sync mix,
and the synchronization topology; :func:`generate_trace` expands it into a
deterministic event list that any replication system replays identically.
The *conflict rate* — the fraction of synchronizations that find concurrent
replicas — is an emergent property of the mix: raising ``update_ratio`` or
spreading updates across sites raises it, and the stock configurations
below give the benchmarks calibrated low/medium/high-conflict regimes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.net.topology import PairSampler, RandomPairTopology
from repro.workload.cluster import site_names
from repro.workload.events import (CloneEvent, CreateEvent, SyncEvent,
                                   TraceEvent, UpdateEvent)


def default_value_factory(site: str, object_id: str, sequence: int) -> Any:
    """Distinct, readable replica values for state-transfer workloads."""
    return f"{object_id}@{site}#{sequence}"


@dataclass
class WorkloadConfig:
    """Parameters of a generated workload.

    Attributes:
        n_sites: number of participating sites (named ``S000``, ``S001``…).
        n_objects: replicated objects (named ``obj0``…), all fully cloned.
        steps: number of update/sync events after the setup prologue.
        update_ratio: probability a step is a local update (vs. a sync).
        update_site_bias: exponent skewing update placement; 0 = uniform,
            larger values concentrate updates on few sites (lower conflict).
            *Which* sites are hot is a seed-derived permutation (see
            :func:`hot_site_order`), so bias placement varies per seed
            while staying deterministic.
        topology: synchronization pairing strategy.
        bidirectional: emit anti-entropy exchanges instead of one-way pulls.
        seed: RNG seed; same config + seed ⇒ same trace, always.
        value_factory: values attached to update events.

    Construction validates every numeric field and raises
    :class:`~repro.errors.ValidationError` on nonsense — an out-of-range
    ``update_ratio`` or a zero object count would silently generate a
    trace that measures nothing (matching the ``ChannelSpec`` style).
    """

    n_sites: int = 8
    n_objects: int = 1
    steps: int = 200
    update_ratio: float = 0.5
    update_site_bias: float = 0.0
    topology: PairSampler = field(default_factory=RandomPairTopology)
    bidirectional: bool = False
    seed: int = 0
    value_factory: Callable[[str, str, int], Any] = default_value_factory

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValidationError(
                f"workloads need at least two sites, got {self.n_sites}")
        if self.n_objects < 1:
            raise ValidationError(
                f"n_objects must be >= 1, got {self.n_objects}")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ValidationError(
                f"update_ratio must be in [0, 1], got {self.update_ratio}")
        if not self.update_site_bias >= 0:  # NaN fails this too
            raise ValidationError(
                f"update_site_bias must be >= 0, "
                f"got {self.update_site_bias}")

    def site_names(self) -> List[str]:
        """The generated site names, in id order."""
        return site_names(self.n_sites)

    def object_names(self) -> List[str]:
        """The generated object names."""
        return [f"obj{i}" for i in range(self.n_objects)]


def hot_site_order(sites: Sequence[str], seed: int) -> List[str]:
    """The seed-derived hot-site permutation used by biased placement.

    Historically the zipf weights were pinned to site-index order, so
    ``S000`` was the hot site of *every* seeded workload — bias placement
    carried no seed entropy at all.  The permutation is drawn from its
    own derived stream (``hot-sites:<seed>``) so it never perturbs the
    trace RNG: two configs differing only in ``update_site_bias`` still
    draw identical step/object/topology sequences.
    """
    order = list(sites)
    random.Random(f"hot-sites:{seed}").shuffle(order)
    return order


#: A biased placement's draw table: the hot-ranked sites and their
#: cumulative zipf weights.
_SiteTable = Tuple[List[str], List[float]]


def _update_site_table(sites: Sequence[str], bias: float,
                       seed: int) -> Optional[_SiteTable]:
    """The cumulative draw table for ``bias``, or ``None`` when uniform.

    Built once per trace so each biased update is one bisect, not a
    fresh O(sites) weight list.
    """
    if bias <= 0:
        return None
    # Zipf-ish skew: weight the i-th *hottest* site by (i+1)^-bias.
    ranked = hot_site_order(sites, seed)
    return ranked, list(accumulate(
        (index + 1) ** -bias for index in range(len(ranked))))


def _pick_update_site(rng: random.Random, sites: List[str],
                      table: Optional[_SiteTable]) -> str:
    if table is None:
        return rng.choice(sites)
    ranked, cum_weights = table
    return rng.choices(ranked, cum_weights=cum_weights, k=1)[0]


def generate_trace(config: WorkloadConfig) -> List[TraceEvent]:
    """Expand a config into a deterministic event trace.

    The prologue creates every object on the first site and clones it to
    all others (so every site participates from the start); the body mixes
    updates and syncs per ``update_ratio``.
    """
    rng = random.Random(config.seed)
    sites = config.site_names()
    objects = config.object_names()
    site_table = _update_site_table(sites, config.update_site_bias,
                                    config.seed)

    trace: List[TraceEvent] = []
    for object_id in objects:
        trace.append(CreateEvent(sites[0], object_id,
                                 config.value_factory(sites[0], object_id, 0)))
        for dst in sites[1:]:
            trace.append(CloneEvent(sites[0], dst, object_id))

    sequence = 0
    for step in range(config.steps):
        object_id = rng.choice(objects)
        if rng.random() < config.update_ratio:
            sequence += 1
            site = _pick_update_site(rng, sites, site_table)
            trace.append(UpdateEvent(
                site, object_id,
                config.value_factory(site, object_id, sequence)))
        else:
            src, dst = config.topology.pair(rng, step, sites)
            trace.append(SyncEvent(src, dst, object_id,
                                   bidirectional=config.bidirectional))
    return trace
