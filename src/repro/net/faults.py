"""Seeded, deterministic network fault injection and the ARQ retry policy.

The paper's cost claims — O(|Δ|), O(|Δ|+|Γ|), O(|Δ|+γ) — are statements
about *useful* metadata bits.  A real deployment pays them over channels
that drop, duplicate, and reorder packets and occasionally partition
outright; what survives is not the protocols' cleverness but the
transport's willingness to retransmit.  This module supplies both halves
of that robustness story for the timed driver (:mod:`repro.net.runner`):

* :class:`FaultSpec` — a declarative, validated description of a lossy
  link: per-message drop/duplication/reordering probabilities plus
  transient partition windows.  It rides on
  :class:`~repro.net.channel.ChannelSpec` so every driver that accepts a
  channel accepts faults.
* :class:`FaultInjector` — the seeded interpreter of a spec.  Every
  transmission asks the injector for its *fate* (how many copies arrive,
  each with how much extra delay); the draws come from a private
  ``random.Random`` so a given seed replays the identical fault schedule,
  which is what makes chaos runs regression-testable.
* :class:`RetryPolicy` — the selective-repeat ARQ knobs: per-message
  retransmission timeout (derived from the channel's round trip when not
  pinned), exponential backoff with deterministic jitter, a per-message
  retry budget, and the session-level resume budget.

Everything validates eagerly and raises
:class:`~repro.errors.ValidationError` (a :class:`~repro.errors.ReproError`)
on nonsense — negative windows, probabilities outside [0, 1] — because a
silently-accepted typo in a fault rate invalidates a whole chaos sweep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ValidationError
from repro.net.simulator import to_ns, to_seconds


def derive_seed(base: int, index: int) -> int:
    """A per-session seed deterministically mixed from ``base`` and ``index``.

    The cluster runner derives each session's injector seed from the fault
    spec's base seed and the session's start-order index, and
    :func:`repro.net.cluster.replay_sequential` re-derives the identical
    seed from the execution log — that shared derivation is what makes a
    chaotic concurrent run replayable session by session.
    """
    return (base * 1_000_003 + index * 7_919 + 1) & 0x7FFFFFFFFFFFFFFF


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one direction-agnostic lossy link.

    Attributes:
        drop: probability that a transmission is lost entirely.
        duplicate: probability that a (delivered) transmission arrives
            twice; the second copy is delayed by a fresh reorder draw.
        reorder: probability that a delivered copy is held back by an
            extra delay drawn from ``[0, reorder_window)`` seconds and
            rounded to whole ns, so in ``[0, reorder_window]`` — enough
            to land *after* traffic sent later.
        reorder_window: upper bound of the extra delay, in seconds.
        partitions: transient partition windows as ``(start, end)``
            pairs in simulated seconds; every transmission that starts
            inside a window is lost (both directions — the link is down).
        seed: base seed of the deterministic draw sequence; drivers may
            mix a per-session component in so concurrent sessions see
            independent-but-replayable schedules.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.0
    partitions: Tuple[Tuple[float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probability("drop", self.drop)
        _check_probability("duplicate", self.duplicate)
        _check_probability("reorder", self.reorder)
        # A reordered copy lands up to one window late: inf would land it
        # (and everything waiting on it) at t = inf.
        if not math.isfinite(self.reorder_window):
            raise ValidationError(
                f"reorder_window must be finite, got {self.reorder_window}")
        if not self.reorder_window >= 0:
            raise ValidationError(
                f"reorder_window must be >= 0, got {self.reorder_window}")
        for window in self.partitions:
            if len(window) != 2:
                raise ValidationError(
                    f"partition window must be (start, end), got {window!r}")
            start, end = window
            if not 0 <= start < end:
                raise ValidationError(
                    f"partition window must satisfy 0 <= start < end, "
                    f"got {window!r}")

    @property
    def enabled(self) -> bool:
        """True when any fault can actually occur under this spec."""
        return (self.drop > 0 or self.duplicate > 0 or self.reorder > 0
                or bool(self.partitions))

    def partitioned(self, now: float) -> bool:
        """Whether the link is down at simulated time ``now`` seconds."""
        return any(start <= now < end for start, end in self.partitions)


def chaos_faults(loss: float, *, latency: float,
                 seed: int = 0) -> FaultSpec:
    """The standard chaos profile for a nominal loss rate.

    One scalar — the nominal ``loss`` rate — expands into the full fault
    mix the benchmark grid, the chaos demo and every lossy
    :class:`~repro.net.topology.LinkProfile` share: drops at ``loss``,
    duplication at half of it, reordering at ``loss`` with a window of
    four propagation latencies (enough to land a copy behind traffic sent
    later, not enough to dwarf the ARQ timeout).  Keeping the expansion
    here means every consumer labels a run by one number and still
    injects the identical, seeded fault mix.
    """
    return FaultSpec(drop=loss, duplicate=loss / 2, reorder=loss,
                     reorder_window=4 * latency, seed=seed)


#: The fate of one transmission: extra delivery delay (integer ns beyond
#: the channel's propagation latency) per arriving copy.  An empty tuple
#: means the transmission was lost; ``(0,)`` is a clean, on-time delivery.
Fate = Tuple[int, ...]


class FaultInjector:
    """Seeded interpreter of a :class:`FaultSpec`.

    One injector per session (the cluster runner derives a per-session
    seed from the spec's base seed and the session index), so the fault
    schedule a session experiences depends only on its own transmission
    order — never on how sessions interleave on the shared clock.  That
    property is what lets :func:`repro.net.cluster.replay_sequential`
    reproduce a chaotic concurrent run bit for bit.
    """

    __slots__ = ("spec", "_rng", "drops", "duplicates", "reorders")

    def __init__(self, spec: FaultSpec, *, seed: Optional[int] = None) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed if seed is None else seed)
        self.drops = 0
        self.duplicates = 0
        self.reorders = 0

    def fate(self, now: int) -> Fate:
        """Draw the fate of one transmission starting at ``now`` ns.

        Partition checks consume no randomness (they are a pure function
        of the clock); probabilistic draws happen in a fixed order so an
        identical seed yields an identical schedule.
        """
        spec = self.spec
        if spec.partitions and spec.partitioned(to_seconds(now)):
            self.drops += 1
            return ()
        if spec.drop > 0 and self._rng.random() < spec.drop:
            self.drops += 1
            return ()
        delay = 0
        if spec.reorder > 0 and self._rng.random() < spec.reorder:
            self.reorders += 1
            delay = to_ns(self._rng.random() * spec.reorder_window)
        deliveries = (delay,)
        if spec.duplicate > 0 and self._rng.random() < spec.duplicate:
            self.duplicates += 1
            extra = to_ns(self._rng.random() * spec.reorder_window)
            deliveries = (delay, delay + extra)
        return deliveries


@dataclass(frozen=True)
class RetryPolicy:
    """ARQ knobs for the reliable session transport.

    The window is open: every outstanding message keeps its own timer,
    backoff and retry budget.  Timeouts are in seconds until
    :meth:`draw_timeout` arms one in whole nanoseconds.

    Attributes:
        max_retries: retransmissions allowed per message beyond the first
            attempt; exhausting the budget aborts the session attempt.
        initial_rto: first retransmission timeout in seconds, finite;
            ``None`` derives twice ``channel.stop_and_wait_ns()`` — twice
            the fault-free wait for an acknowledgment, so a healthy link
            never retransmits spuriously.
        backoff: multiplicative timeout growth per consecutive timeout of
            the same message (``>= 1``).
        max_rto: ceiling the backoff saturates at, in seconds (may be
            infinite).
        jitter: fractional jitter, finite; each armed timeout is
            stretched by a deterministic factor in ``[1, 1 + jitter]`` to
            de-synchronize retransmissions (drawn from the transport's
            seeded RNG, so runs replay exactly).
        max_session_attempts: total session attempts (first run plus
            resumes) before the driver gives up and raises
            :class:`~repro.errors.SessionError`.
        seed: seed of the jitter draw sequence.
    """

    max_retries: int = 12
    initial_rto: Optional[float] = None
    backoff: float = 2.0
    max_rto: float = 60.0
    jitter: float = 0.25
    max_session_attempts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        # A timer armed at inf retransmits a lost message at t = inf;
        # max_rto may be inf, since the backoff starts from a finite rto.
        for name in ("initial_rto", "jitter"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.initial_rto is not None and not self.initial_rto > 0:
            raise ValidationError(
                f"initial_rto must be > 0, got {self.initial_rto}")
        if not self.backoff >= 1.0:
            raise ValidationError(
                f"backoff must be >= 1, got {self.backoff}")
        if not self.max_rto > 0:
            raise ValidationError(f"max_rto must be > 0, got {self.max_rto}")
        if not self.jitter >= 0:
            raise ValidationError(f"jitter must be >= 0, got {self.jitter}")
        if self.max_session_attempts < 1:
            raise ValidationError(
                f"max_session_attempts must be >= 1, "
                f"got {self.max_session_attempts}")

    def rto_for(self, channel: "ChannelSpec") -> float:  # noqa: F821
        """The first timeout for a message on ``channel``, in seconds."""
        if self.initial_rto is not None:
            return self.initial_rto
        return to_seconds(2 * channel.stop_and_wait_ns())

    def next_rto(self, rto: float) -> float:
        """The timeout after one more consecutive timeout."""
        return min(rto * self.backoff, self.max_rto)

    def draw_timeout(self, rto: float, rng: random.Random) -> int:
        """The ns until an armed timer fires: ``rto`` seconds stretched
        by a jitter factor drawn from ``rng`` in ``[1, 1 + jitter)``."""
        return to_ns(rto * (1.0 + self.jitter * rng.random()))
