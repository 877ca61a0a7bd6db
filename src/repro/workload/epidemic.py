"""Epidemic dissemination schedules for sharded multi-region fleets.

The flat gossip schedules in :mod:`repro.workload.cluster` assume every
site replicates everything — gather-at-hub closes the whole fleet.  A
sharded fleet needs a different shape: updates to an object only concern
its replica group, so dissemination is *epidemic* (seeded push/pull
gossip among shard peers, region-aware) and convergence is closed by a
deterministic per-group sweep:

* :func:`epidemic_schedule` — per round every site contacts ``fanout``
  shard peers, preferring same-region peers with probability
  ``local_bias``; odd rounds push (the initiator is the sender), even
  rounds pull.  Pure function of (spec, shards, rounds, seed).
* :func:`sharded_update_schedule` — updates land only on sites that
  replicate the drawn object.
* :func:`closing_sweep` — the deterministic two-phase closer: each
  group's leader (its first ring replica) pulls from every member, then
  pushes back.  Sessions are scoped (via ``SessionRequest.objs``) to
  exactly the objects the leader leads for that member, so a sweep
  session can never spawn a fresh §2.2 self-increment on an object some
  *other* group's sweep already closed.  After phase 2 the leader's
  state dominates every member on every led object — convergence is
  structural, not probabilistic.

Phases are spaced ``settle`` simulated seconds apart (simulated time is
free) so each phase's queue drains before the next begins — the
domination argument needs phase 1 complete before phase 2 starts.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.net.sharding import ShardMap
from repro.net.topology import TopologySpec, select_peer
from repro.workload.cluster import SessionRequest, UpdateRequest


def epidemic_schedule(spec: TopologySpec, shards: ShardMap, *,
                      rounds: int, period: float = 1.0,
                      jitter: float = 0.2,
                      seed: Optional[int] = None) -> List[SessionRequest]:
    """Seeded push/pull gossip among shard peers, region-aware.

    Per round each site draws ``spec.gossip.fanout`` peers from its
    shard-peer set (sites sharing at least one object — so no session
    ever syncs nothing).  Each draw first picks a side of the
    local/remote split — same-region peers with probability
    ``local_bias`` when both sides are populated — then a uniform peer
    from that side via :func:`~repro.net.topology.select_peer`, the
    same primitive the store's anti-entropy uses.  With
    ``gossip.push_pull`` odd rounds reverse direction (the initiator
    sends); otherwise every round is a pull, the historical
    anti-entropy shape.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    if period <= 0:
        raise ValidationError(f"period must be > 0, got {period}")
    gossip = spec.gossip
    rng = random.Random(f"epidemic:{spec.seed if seed is None else seed}")
    sites = spec.site_names()
    requests: List[SessionRequest] = []
    for round_no in range(rounds):
        base = (round_no + 1) * period
        push = gossip.push_pull and round_no % 2 == 1
        for site in sites:
            region = spec.region_of(site)
            candidates = shards.shard_peers.get(site, ())
            if not candidates:
                continue  # hosts nothing — nothing to gossip about
            local = [p for p in candidates
                     if spec.region_of(p) == region]
            remote = [p for p in candidates
                      if spec.region_of(p) != region]
            for _ in range(gossip.fanout):
                offset = 1 + jitter * (2 * rng.random() - 1)
                if local and remote:
                    pool = local if rng.random() < gossip.local_bias \
                        else remote
                else:
                    pool = local or remote
                peer = select_peer(rng, site, pool)
                src, dst = (site, peer) if push else (peer, site)
                requests.append(SessionRequest(at=base * offset,
                                               src=src, dst=dst))
    requests.sort(key=lambda r: r.at)
    return requests


def sharded_update_schedule(spec: TopologySpec, shards: ShardMap, *,
                            n_updates: int, interval: float = 0.25,
                            leader_only: bool = False,
                            seed: Optional[int] = None
                            ) -> List[UpdateRequest]:
    """Exponentially-spaced updates landing only on hosting replicas.

    Each update draws a uniform object, then a uniform site from that
    object's replica group — the sharded analogue of
    :func:`~repro.workload.cluster.update_schedule`.  With
    ``leader_only`` every update lands on the object's ring leader (its
    first replica): one writer per object, the conflict-free regime BRV
    requires — the sharded analogue of the classic schedules'
    single-writer ``writers=[hub]`` restriction.
    """
    if n_updates < 0:
        raise ValidationError(f"n_updates must be >= 0, got {n_updates}")
    if interval <= 0:
        raise ValidationError(f"interval must be > 0, got {interval}")
    rng = random.Random(
        f"epidemic-updates:{spec.seed if seed is None else seed}")
    clock = 0.0
    requests: List[UpdateRequest] = []
    for _ in range(n_updates):
        clock += rng.expovariate(1.0 / interval)
        obj = rng.randrange(shards.n_objects)
        site = (shards.replicas[obj][0] if leader_only
                else rng.choice(shards.replicas[obj]))
        requests.append(UpdateRequest(at=clock, site=site, obj=obj))
    return requests


def closing_sweep(shards: ShardMap, *, start: float,
                  spacing: float = 0.001,
                  settle: float = 500.0) -> List[SessionRequest]:
    """The deterministic convergence closer for a sharded fleet.

    Phase 1 (from ``start``): every group's leader pulls from each
    member.  Phase 2 (``settle`` seconds after phase 1's last request):
    the leader pushes back.  Sessions between the same (member, leader)
    pair are deduplicated across groups by unioning their object sets;
    each session's ``objs`` restriction keeps it scoped to objects that
    leader actually leads, so no sweep session can reconcile — and
    thereby self-increment — an object outside its own groups.

    Why this closes: all updates to an object land inside its replica
    group, so after phase 1 the leader's copy dominates every member's
    (reconciliation self-increments during phase 1 land on the leader
    and are included).  Phase 2 then finds every member BEFORE-or-EQUAL
    the leader — a pure adoption with no new increments — leaving all
    replicas equal.  The spacing between phases is load-bearing: each
    phase's sessions must have drained before the next phase (and the
    sweep itself must start after the epidemic traffic has drained),
    which is what the generous ``settle`` gaps buy; simulated seconds
    are free.
    """
    if spacing <= 0:
        raise ValidationError(f"spacing must be > 0, got {spacing}")
    if settle <= 0:
        raise ValidationError(f"settle must be > 0, got {settle}")
    pair_objs: Dict[Tuple[str, str], List[int]] = {}
    order: List[Tuple[str, str]] = []
    for obj, group in enumerate(shards.replicas):
        leader = group[0]
        for member in group[1:]:
            key = (member, leader)
            if key not in pair_objs:
                pair_objs[key] = []
                order.append(key)
            pair_objs[key].append(obj)
    requests: List[SessionRequest] = []
    for index, (member, leader) in enumerate(order):
        requests.append(SessionRequest(
            at=start + index * spacing, src=member, dst=leader,
            objs=tuple(pair_objs[(member, leader)])))
    phase2 = start + len(order) * spacing + settle
    for index, (member, leader) in enumerate(order):
        requests.append(SessionRequest(
            at=phase2 + index * spacing, src=leader, dst=member,
            objs=tuple(pair_objs[(member, leader)])))
    return requests
