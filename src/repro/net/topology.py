"""Declarative multi-region fleet topology: the :class:`TopologySpec`.

The paper evaluates its protocols on flat single-region fleets where
every pair of sites shares one channel.  A production-scale deployment
does not look like that: sites live in *regions*, intra-region links are
fast and clean, inter-region links are slow and lossy, and specific
region pairs may ride dedicated (named) interconnects.  This module is
the declarative description of that shape:

* :class:`LinkProfile` — latency/bandwidth/loss of one class of link.
  A positive ``loss`` expands to the standard chaos fault mix
  (:func:`repro.net.faults.chaos_faults`: drop at ``loss``, duplicate at
  ``loss/2``, reorder at ``loss``), so "1% loss" means the same thing
  here as in every chaos bench cell.
* :class:`RegionSpec` — one region: a name, a site count, and the
  intra-region link profile.
* :class:`RegionLink` — a named override for one inter-region pair.
* :class:`GossipSpec` — epidemic dissemination knobs: fanout, push/pull
  alternation, and region-aware peer weighting (``local_bias``).
* :class:`TopologySpec` — the whole fleet.  It owns site naming
  (region-prefixed for multi-region fleets; the canonical flat
  ``S000 …`` names for single-region specs so the historical drivers
  stay byte-identical), site→region lookup, and per-pair channel
  construction (:meth:`TopologySpec.channel_for`).

The spec is pure data: frozen, validated eagerly, hashable, and
``dataclasses.asdict``-able, so it can ride inside
:class:`~repro.perf.bench.BenchConfig` and land verbatim in the
committed ``BENCH_cluster.json`` document.

It is also the one vocabulary for *who syncs with whom*.
:func:`select_peer` is the single uniform peer-sampling primitive: the
store's anti-entropy, the epidemic scheduler and the store's client
read-repairs all draw through it.  The :class:`PairSampler` classes
pick the pair of one synchronization for the gossip schedules, the
trace generator and the anti-entropy loop alike; the pattern sets the
conflict rate (a star funnels everything through a hub and rarely
conflicts, random pairwise gossip conflicts often).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.errors import ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultSpec, chaos_faults


def select_peer(rng: random.Random, dst: str,
                candidates: Sequence[str]) -> str:
    """One uniform draw of a peer for ``dst`` from ``candidates``: one
    ``rng.choice`` over the candidates with ``dst`` filtered out (same
    rng state in, same peer out, whoever draws)."""
    return rng.choice([site for site in candidates if site != dst])


def uniform_peer_rounds(sites: Sequence[str], *, rounds: int, seed: int = 0,
                        stream: str = "store-gossip"
                        ) -> List[Tuple[float, str, str]]:
    """The uniform anti-entropy plan: per round, every site pulls once.

    Returns ``(round, src, dst)`` triples where ``dst`` pulls from
    ``src``, one :func:`select_peer` draw per (round, dst) from
    ``random.Random(f"{stream}:{seed}")``.  Changing this stream changes
    every committed store digest.
    """
    rng = random.Random(f"{stream}:{seed}")
    plan: List[Tuple[float, str, str]] = []
    for round_no in range(rounds):
        for dst in sites:
            plan.append((float(round_no), select_peer(rng, dst, sites), dst))
    return plan


class PairSampler(Protocol):
    """Chooses the ``(src, dst)`` pair of one synchronization event.

    Samplers are deterministic functions of the seeded RNG and the step
    index, so every schedule drawn through one is reproducible.
    """

    def pair(self, rng: random.Random, step: int,
             sites: List[str]) -> Tuple[str, str]:
        """Return ``(src, dst)``: dst pulls from src."""
        ...


class RandomPairTopology:
    """Uniform random gossip: any distinct ordered pair."""

    def pair(self, rng: random.Random, step: int,
             sites: List[str]) -> Tuple[str, str]:
        """Pick a uniformly random ordered pair of distinct sites."""
        src, dst = rng.sample(sites, 2)
        return src, dst


class RingTopology:
    """Each sync moves clockwise: site i pulls from site i−1."""

    def pair(self, rng: random.Random, step: int,
             sites: List[str]) -> Tuple[str, str]:
        """The clockwise pair for this step index."""
        index = step % len(sites)
        return sites[(index - 1) % len(sites)], sites[index]


class StarTopology:
    """Spokes exchange with a hub (the first site), alternating direction."""

    def pair(self, rng: random.Random, step: int,
             sites: List[str]) -> Tuple[str, str]:
        """A hub↔spoke pair, direction alternating by step parity."""
        hub = sites[0]
        spoke = rng.choice(sites[1:]) if len(sites) > 1 else hub
        if step % 2 == 0:
            return spoke, hub   # hub pulls from spoke
        return hub, spoke       # spoke pulls from hub


@dataclass(frozen=True)
class LinkProfile:
    """One class of link: propagation delay, rate, and nominal loss.

    ``loss`` is the chaos knob: 0 keeps the link perfectly reliable (the
    historical fault-free path), a positive value expands to the
    standard chaos mix via :meth:`faults` and every session over the
    link runs the reliable ARQ transport.
    """

    latency: float = 0.005
    bandwidth: float = 1_000_000.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.latency):
            raise ValidationError(
                f"link latency must be finite, got {self.latency}")
        if not self.latency >= 0:
            raise ValidationError(
                f"link latency must be >= 0, got {self.latency}")
        if not self.bandwidth > 0:
            raise ValidationError(
                f"link bandwidth must be > 0, got {self.bandwidth}")
        if not 0.0 <= self.loss < 1.0:
            raise ValidationError(
                f"link loss must be in [0, 1), got {self.loss}")

    def faults(self, *, seed: int) -> FaultSpec:
        """The :func:`~repro.net.faults.chaos_faults` mix this profile's
        ``loss`` prices out to (no faults at all when it is 0)."""
        if self.loss <= 0:
            return FaultSpec()
        return chaos_faults(self.loss, latency=self.latency, seed=seed)

    def channel(self, *, seed: int) -> ChannelSpec:
        """This profile as a concrete :class:`ChannelSpec`."""
        return ChannelSpec(latency=self.latency, bandwidth=self.bandwidth,
                           faults=self.faults(seed=seed))


@dataclass(frozen=True)
class RegionSpec:
    """One region: a name, how many sites it holds, and its intra link."""

    name: str
    sites: int
    link: LinkProfile = field(default_factory=LinkProfile)

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValidationError(
                f"region name must be non-empty without whitespace, "
                f"got {self.name!r}")
        if self.sites < 1:
            raise ValidationError(
                f"region {self.name!r} must hold >= 1 site, "
                f"got {self.sites}")


@dataclass(frozen=True)
class RegionLink:
    """A named link profile for one specific inter-region pair."""

    a: str
    b: str
    link: LinkProfile

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(
                f"a RegionLink joins two distinct regions, "
                f"got {self.a!r} twice (intra-region links belong on "
                f"the RegionSpec)")


@dataclass(frozen=True)
class GossipSpec:
    """Epidemic dissemination knobs.

    Attributes:
        fanout: peers each site contacts per gossip round.
        local_bias: probability in [0, 1] that a draw prefers a
            same-region peer when one exists; the complement goes
            cross-region.  0.5 is unweighted in expectation for a
            two-choice split; higher values keep traffic regional.
        push_pull: alternate push (initiator sends) and pull (initiator
            asks) rounds; ``False`` is pull-only — the historical
            anti-entropy shape.
    """

    fanout: int = 1
    local_bias: float = 0.7
    push_pull: bool = True

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValidationError(
                f"gossip fanout must be >= 1, got {self.fanout}")
        if not 0.0 <= self.local_bias <= 1.0:
            raise ValidationError(
                f"local_bias must be in [0, 1], got {self.local_bias}")


@dataclass(frozen=True)
class TopologySpec:
    """The whole fleet: regions, links, gossip shape, and sharding.

    Attributes:
        regions: the fleet's regions, in declaration order (which fixes
            site naming and every deterministic iteration order).
        inter: the default inter-region link profile, used for every
            region pair without a named :class:`RegionLink` override.
        links: named per-pair overrides (order-insensitive pairs).
        gossip: epidemic dissemination knobs.
        replication: when set, objects are sharded onto site groups of
            this size by the consistent-hash ring
            (:mod:`repro.net.sharding`); ``None`` keeps the historical
            every-site-hosts-everything layout.
        vnodes: virtual nodes per site on the hash ring.
        seed: base seed for workload/gossip schedules derived from this
            spec.
        chaos_seed: base seed for every lossy link's fault stream (the
            per-session injector seed is still derived per session
            index, as everywhere else).
    """

    regions: Tuple[RegionSpec, ...]
    inter: LinkProfile = field(default_factory=lambda: LinkProfile(
        latency=0.04, bandwidth=250_000.0))
    links: Tuple[RegionLink, ...] = ()
    gossip: GossipSpec = field(default_factory=GossipSpec)
    replication: Optional[int] = None
    vnodes: int = 64
    seed: int = 0
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValidationError("a TopologySpec needs >= 1 region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate region names: {names}")
        for link in self.links:
            for end in (link.a, link.b):
                if end not in names:
                    raise ValidationError(
                        f"RegionLink names unknown region {end!r} "
                        f"(regions: {names})")
        pairs = [frozenset((link.a, link.b)) for link in self.links]
        if len(set(pairs)) != len(pairs):
            raise ValidationError("duplicate RegionLink pairs")
        if self.replication is not None:
            if self.replication < 1:
                raise ValidationError(
                    f"replication must be >= 1, got {self.replication}")
            if self.replication > self.n_sites:
                raise ValidationError(
                    f"replication {self.replication} exceeds the fleet "
                    f"size {self.n_sites}")
        if self.vnodes < 1:
            raise ValidationError(
                f"vnodes must be >= 1, got {self.vnodes}")
        # Derived lookup tables, built once.  object.__setattr__ because
        # the dataclass is frozen; leading underscores keep them out of
        # dataclasses.asdict / __eq__ / __hash__ (non-field attributes).
        site_region: Dict[str, str] = {}
        names_iter = iter(self.site_names())
        for region in self.regions:
            for _ in range(region.sites):
                site_region[next(names_iter)] = region.name
        object.__setattr__(self, "_site_region", site_region)
        object.__setattr__(self, "_channels", {})

    # -- naming and lookup ---------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Total fleet size across all regions."""
        return sum(region.sites for region in self.regions)

    def site_names(self) -> List[str]:
        """Every site name, region by region in declaration order.

        Single-region specs use the canonical flat ``S000, S001, …``
        names (matching :func:`repro.workload.cluster.site_names`), so a
        spec wrapped around a historical fleet names the identical
        sites.  Multi-region specs prefix the region:
        ``eu-000, eu-001, …, us-000, …``.
        """
        if len(self.regions) == 1:
            return [f"S{i:03d}" for i in range(self.regions[0].sites)]
        return [f"{region.name}-{i:03d}"
                for region in self.regions
                for i in range(region.sites)]

    def region_of(self, site: str) -> str:
        """The region a site lives in (raises KeyError on unknown sites)."""
        return self._site_region[site]  # type: ignore[attr-defined]

    def region_sites(self, name: str) -> List[str]:
        """Every site of one region, in naming order."""
        return [site for site in self.site_names()
                if self.region_of(site) == name]

    # -- channels ------------------------------------------------------------------

    def link_between(self, region_a: str, region_b: str) -> LinkProfile:
        """The link profile joining two regions (intra when equal)."""
        if region_a == region_b:
            for region in self.regions:
                if region.name == region_a:
                    return region.link
            raise ValidationError(f"unknown region {region_a!r}")
        wanted = frozenset((region_a, region_b))
        for link in self.links:
            if frozenset((link.a, link.b)) == wanted:
                return link.link
        return self.inter

    def channel_for(self, src: str, dst: str) -> ChannelSpec:
        """The concrete channel one session between ``src``/``dst`` uses.

        Channels are cached per (unordered) region pair — the spec is
        symmetric, so ``channel_for(a, b) is channel_for(b, a)``.
        """
        key = frozenset((self.region_of(src), self.region_of(dst)))
        cache: Dict[frozenset, ChannelSpec] = \
            self._channels  # type: ignore[attr-defined]
        if key not in cache:
            pair = sorted(key)
            profile = self.link_between(pair[0], pair[-1])
            cache[key] = profile.channel(seed=self.chaos_seed)
        return cache[key]

    @property
    def has_faults(self) -> bool:
        """True when any link profile can produce a fault."""
        profiles = [region.link for region in self.regions]
        profiles.append(self.inter)
        profiles.extend(link.link for link in self.links)
        return any(profile.loss > 0 for profile in profiles)

    # -- constructors --------------------------------------------------------------

    @classmethod
    def single(cls, n_sites: int, *, link: Optional[LinkProfile] = None,
               **kwargs: object) -> "TopologySpec":
        """A flat single-region fleet named exactly like the legacy one."""
        return cls(regions=(RegionSpec("flat", n_sites,
                                       link=link or LinkProfile()),),
                   **kwargs)  # type: ignore[arg-type]

    @classmethod
    def grid(cls, n_regions: int, sites_per_region: int, *,
             intra: Optional[LinkProfile] = None,
             inter: Optional[LinkProfile] = None,
             **kwargs: object) -> "TopologySpec":
        """A symmetric ``n_regions × sites_per_region`` fleet.

        Regions are named ``r0, r1, …``; every region shares one intra
        profile and every region pair the one inter profile.  The
        convenience shape behind the CI smoke fleets and the
        ``repro monitor --regions`` demo.
        """
        intra = intra or LinkProfile()
        return cls(regions=tuple(RegionSpec(f"r{i}", sites_per_region,
                                            link=intra)
                                 for i in range(n_regions)),
                   inter=inter or LinkProfile(latency=0.04,
                                              bandwidth=250_000.0),
                   **kwargs)  # type: ignore[arg-type]
