"""Live cluster health monitoring and inline invariant checking.

Everything before this module answered questions *after* a run: read the
bench document, replay a JSONL trace.  A :class:`ClusterMonitor` answers
them *during* one — attach it to a :class:`~repro.net.cluster.ClusterRunner`
and it maintains, per site, live health gauges sampled on a simulated-time
cadence into time-series ring buffers:

* **frontier distance** — how many elements the site is behind the global
  maximum (the fleet-wide frontier over every site's every object);
* **Δ backlog** — the total number of missing updates (the sum of the
  per-element gaps, i.e. the |Δ| a full catch-up would ship);
* **conflict-bit density** — conflict-tagged elements / total elements;
* **segment count** — segments across the site's objects (SRV skip fuel);
* **retry/timeout/resume pressure** — cumulative ARQ reliability events
  attributed to the site, read live off the trace stream;
* **convergence score** — the scalar ``known / frontier`` in ``[0, 1]``;
  1.0 means the site holds every update any site has seen.

The monitor is one gauge set over the shared
:class:`~repro.obs.observer.Observer` core: it subscribes to the runner's
:class:`~repro.obs.trace.Tracer` event stream (owning a private tracer when
the runner has none), reads the runner's vectors in place, and never
mutates them — a run with ``monitor=None`` (the default) executes
byte-for-byte the unmonitored code path.

Inline invariant checkers
-------------------------

Three families of checks run continuously, not just in tests:

* **Accounting** — ``retransmitted == total − goodput`` and
  ``0 ≤ retransmitted ≤ total`` per direction, per session, and (at
  :meth:`~ClusterMonitor.finalize`) for the cluster totals against the
  sum of per-session stats.
* **Ancestor closure** — after every completed session the receiver's
  vectors must equal the element-wise max of their pre-session state and
  the sender's state: every applied prefix is causally closed and the
  transfer is complete.  Checked on every session: an object has one
  holder, so the synced objects are pinned at both endpoints for the
  session's duration — sessions on other objects may overlap it.
* **COMPARE spot checks** — on a seeded schedule of sessions, Algorithm
  1's O(1) verdict is re-derived against the element-wise oracle
  (:meth:`~repro.core.rotating.BasicRotatingVector.compare_full`).

Each failure raises a structured ``invariant_violation`` trace event
carrying the check name and evidence; under ``strict=True`` it also
raises :class:`~repro.errors.InvariantViolationError` immediately
(fail-fast), otherwise it is counted (``monitor.invariant_violations``)
and the run continues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import (InvariantViolation, Observer,
                                ObserverConfig, RingBuffer)
from repro.obs.trace import TraceEvent

__all__ = ["GAUGE_NAMES", "ClusterMonitor", "InvariantViolation",
           "MonitorConfig", "RingBuffer"]

#: The per-site gauges every sample records, in documentation order.
GAUGE_NAMES = ("frontier_distance", "delta_backlog", "conflict_density",
               "segment_count", "pressure", "convergence_score")


@dataclass(frozen=True)
class MonitorConfig(ObserverConfig):
    """Knobs of one :class:`ClusterMonitor`.

    ``cadence``, ``ring_capacity`` and ``strict`` are the shared
    :class:`~repro.obs.observer.ObserverConfig` fields.

    Attributes:
        spot_check_period: run the COMPARE-vs-oracle spot check on every
            ``spot_check_period``-th session (0 disables it).
        spot_check_seed: seed of the spot checker's private object draw.
        check_accounting: enable the retransmitted/goodput identity
            checks.
        check_ancestor_closure: enable the post-session element-wise max
            oracle over the synced objects, on every session.
    """

    spot_check_period: int = 5
    spot_check_seed: int = 0
    check_accounting: bool = True
    check_ancestor_closure: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self._at_least("spot_check_period", 0)


class ClusterMonitor(Observer):
    """Live health gauges + inline invariant checkers for one cluster run.

    One-shot like the runner it watches::

        monitor = ClusterMonitor(MonitorConfig(strict=True))
        runner = ClusterRunner(sites, config, monitor=monitor)
        result = runner.run(sessions, updates)
        print(render_dashboard(monitor))          # repro.obs.dashboard

    User code only reads the series afterwards (or live, from another
    tracer subscriber).  The closure oracle and the spot check cover
    every session: an object has one session holder, so the objects a
    session syncs are pinned at both endpoints while it runs.
    """

    GAUGES = GAUGE_NAMES
    NAMESPACE = "monitor"
    VIOLATION_KIND = obs.INVARIANT_VIOLATION
    VIOLATIONS = "invariant_violations"
    VIOLATED = "invariant"

    def __init__(self, config: MonitorConfig = MonitorConfig(), *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(config, metrics=metrics)
        self._pressure: Dict[str, Dict[str, int]] = {}
        self._session_snapshots: Dict[int, Tuple[List[Dict[str, int]],
                                                 List[Dict[str, int]]]] = {}
        self._session_bits = 0
        self._session_retransmitted = 0
        self._sessions_checked = 0
        self._spot_rng = random.Random(config.spot_check_seed)

    def _bind(self) -> None:
        for site in self.sites:
            self._pressure[site] = {"retries": 0, "timeouts": 0,
                                    "aborts": 0, "resumes": 0}

    def _final_checks(self, now: float) -> None:
        """The cluster totals must equal the sum of per-session stats."""
        if not self.config.check_accounting:
            return
        totals = self._owner._totals
        if (totals.total_bits != self._session_bits
                or totals.total_retransmitted_bits
                != self._session_retransmitted):
            self._violate(
                "accounting", now,
                f"cluster totals disagree with the sum of sessions: "
                f"totals {totals.total_bits}b/"
                f"{totals.total_retransmitted_bits}b retransmitted vs "
                f"summed {self._session_bits}b/"
                f"{self._session_retransmitted}b",
                level="cluster")

    # -- runner hooks ------------------------------------------------------------

    def on_session_start(self, record: Any) -> None:
        """A session is about to launch; snapshot endpoints for the oracle."""
        now = self._now()
        self._maybe_sample(now)
        runner = self._owner
        if self.config.check_ancestor_closure:
            objs = record.objects
            src_snap = [runner.objects[record.src][obj]
                        .to_version_vector().as_dict() for obj in objs]
            dst_snap = [runner.objects[record.dst][obj]
                        .to_version_vector().as_dict() for obj in objs]
            self._session_snapshots[record.index] = (src_snap, dst_snap)
        period = self.config.spot_check_period
        if period and record.index % period == 0:
            self._spot_check(record, now)

    def on_session_commit(self, record: Any) -> None:
        """A session committed; run the ancestor-closure check.

        The runner calls this *before* applying §2.2's reconciliation
        self-increment and releasing the endpoints, so the
        element-wise-max oracle is exact.
        """
        now = self._now()
        snapshot = self._session_snapshots.pop(record.index, None)
        if snapshot is not None:
            self._check_closure(record, snapshot, now)
        self._maybe_sample(now)

    def on_session_end(self, record: Any, result: Any) -> None:
        """A session's parties finished; run the accounting checks."""
        now = self._now()
        stats = result.stats
        self._sessions_checked += 1
        self._session_bits += stats.total_bits
        self._session_retransmitted += stats.total_retransmitted_bits
        if self.config.check_accounting:
            self._check_accounting(record, stats, now)
        self._maybe_sample(now)

    def on_update(self, site: str, obj: int) -> None:
        """A local update applied; the clock may have crossed a boundary."""
        self._maybe_sample(self._now())

    # -- the trace stream --------------------------------------------------------

    def _on_trace_event(self, event: TraceEvent) -> None:
        kind = event.kind
        party = event.party
        if party in self._pressure:
            if kind == obs.RETRY:
                self._pressure[party]["retries"] += 1
            elif kind == obs.TIMEOUT:
                self._pressure[party]["timeouts"] += 1
            elif kind == obs.SESSION_ABORT:
                self._pressure[party]["aborts"] += 1
            elif (kind == obs.CONTROL
                    and event.fields.get("signal") == "session_resume"):
                self._pressure[party]["resumes"] += 1
        super()._on_trace_event(event)

    # -- the gauge walk ----------------------------------------------------------

    def _walk(self, now: float) -> None:
        """Record one health sample for every site at simulated ``now``.

        The frontier for an object is the element-wise max over the sites
        *hosting* it (all sites, when unsharded).  A site's convergence
        score is measured against the frontiers of its own hosted objects
        only — a site cannot be behind on objects it does not replicate.
        """
        runner = self._owner
        # The global frontier: per object, the element-wise max over its
        # hosting sites.
        frontiers: Dict[int, Dict[str, int]] = {
            obj: {} for obj in range(runner.config.n_objects)}
        for site in self.sites:
            for obj, vector in runner.objects[site].items():
                frontier = frontiers[obj]
                for element in vector.order:
                    if element.value > frontier.get(element.site, 0):
                        frontier[element.site] = element.value
        frontier_sums = {obj: sum(f.values())
                         for obj, f in frontiers.items()}
        for site in self.sites:
            hosted = runner.hosted_objects(site)
            distance = 0
            backlog = 0
            conflicted = 0
            elements = 0
            segments = 0
            for obj in hosted:
                vector = runner.objects[site][obj]
                known: Dict[str, int] = {}
                open_segment = False
                for element in vector.order:
                    known[element.site] = element.value
                    elements += 1
                    if element.conflict:
                        conflicted += 1
                    if element.segment:
                        segments += 1
                        open_segment = False
                    else:
                        open_segment = True
                if open_segment:
                    segments += 1  # the trailing implicit-terminator segment
                for elem_site, peak in frontiers[obj].items():
                    gap = peak - known.get(elem_site, 0)
                    if gap > 0:
                        distance += 1
                        backlog += gap
            pressure = self._pressure[site]
            pressure_total = (pressure["retries"] + pressure["timeouts"]
                              + pressure["resumes"])
            site_frontier = sum(frontier_sums[obj] for obj in hosted)
            score = (1.0 if site_frontier == 0
                     else (site_frontier - backlog) / site_frontier)
            self._record(site, now, (
                float(distance), float(backlog),
                conflicted / elements if elements else 0.0,
                float(segments), float(pressure_total), score))

    # -- invariant checkers ------------------------------------------------------

    def _check_accounting(self, record: Any, stats: Any, now: float) -> None:
        """``retransmitted == total − goodput`` at every session level."""
        for direction_name in ("forward", "backward"):
            direction = getattr(stats, direction_name)
            if not 0 <= direction.retransmitted_bits <= direction.bits:
                self._violate(
                    "accounting", now,
                    f"session {record.src}->{record.dst} {direction_name} "
                    f"retransmitted_bits {direction.retransmitted_bits} "
                    f"outside [0, {direction.bits}]",
                    session=record.index, direction=direction_name)
            if (direction.goodput_bits
                    != direction.bits - direction.retransmitted_bits):
                self._violate(
                    "accounting", now,
                    f"session {record.src}->{record.dst} {direction_name} "
                    f"goodput {direction.goodput_bits} != bits "
                    f"{direction.bits} - retransmitted "
                    f"{direction.retransmitted_bits}",
                    session=record.index, direction=direction_name)
            if direction.retransmitted_messages > direction.messages:
                self._violate(
                    "accounting", now,
                    f"session {record.src}->{record.dst} {direction_name} "
                    f"retransmitted {direction.retransmitted_messages} of "
                    f"only {direction.messages} messages",
                    session=record.index, direction=direction_name)
        if (stats.total_retransmitted_bits
                != stats.total_bits - stats.total_goodput_bits):
            self._violate(
                "accounting", now,
                f"session {record.src}->{record.dst}: retransmitted "
                f"{stats.total_retransmitted_bits} != total "
                f"{stats.total_bits} - goodput {stats.total_goodput_bits}",
                session=record.index)

    def _check_closure(self, record: Any,
                       snapshot: Tuple[List[Dict[str, int]],
                                       List[Dict[str, int]]],
                       now: float) -> None:
        """The receiver's post-state must be max(pre-state, sender's state).

        Anything less means a torn (non-ancestor-closed) prefix was
        committed; anything else means phantom updates appeared.
        """
        src_snap, dst_snap = snapshot
        runner = self._owner
        for obj, src_state, dst_state in zip(record.objects,
                                             src_snap, dst_snap):
            expected = dict(dst_state)
            for site_name, value in src_state.items():
                if value > expected.get(site_name, 0):
                    expected[site_name] = value
            actual = (runner.objects[record.dst][obj]
                      .to_version_vector().as_dict())
            if actual != expected:
                self._violate(
                    "ancestor_closure", now,
                    f"session {record.src}->{record.dst} object {obj}: "
                    f"receiver state {actual} != element-wise max "
                    f"{expected} of its pre-session state and the sender",
                    session=record.index, object=obj)

    def _spot_check(self, record: Any, now: float) -> None:
        """Algorithm 1's O(1) verdict vs the element-wise oracle."""
        runner = self._owner
        objs = record.objects
        obj = objs[self._spot_rng.randrange(len(objs))]
        dst_vector = runner.objects[record.dst][obj]
        src_vector = runner.objects[record.src][obj]
        fast = dst_vector.compare(src_vector)
        oracle = dst_vector.compare_full(src_vector)
        if self.metrics is not None:
            self.metrics.counter("monitor.spot_checks").inc()
        if fast is not oracle:
            self._violate(
                "compare_oracle", now,
                f"session {record.src}->{record.dst} object {obj}: "
                f"COMPARE said {fast.name}, element-wise oracle says "
                f"{oracle.name}",
                session=record.index, object=obj,
                compare=fast.name, oracle=oracle.name)

    # -- read API ----------------------------------------------------------------

    def pressure(self, site: str) -> Dict[str, int]:
        """Cumulative retry/timeout/abort/resume counts for ``site``."""
        return dict(self._pressure[site])

    def worst_offenders(self, limit: int = 5) -> List[str]:
        """Sites ranked worst-first: lowest score, then largest backlog."""
        def sort_key(site: str) -> Tuple[float, float]:
            score = self.latest(site, "convergence_score")
            backlog = self.latest(site, "delta_backlog")
            return (score if score is not None else 1.0,
                    -(backlog if backlog is not None else 0.0))
        return sorted(self.sites, key=sort_key)[:limit]

    def health_summary(self) -> Dict[str, Any]:
        """A JSON-ready digest for benchmark documents and reports.

        When the watched runner carries a :class:`TopologySpec` the digest
        additionally rolls scores up per region; when it shards, a shard
        summary (group count and per-site load spread) is included.  Both
        keys are simply absent on classic single-region runs, so existing
        documents are unchanged.
        """
        final_scores = {site: self.latest(site, "convergence_score")
                        for site in self.sites}
        summary: Dict[str, Any] = {
            "samples": self.samples,
            "sites": len(self.sites),
            "invariant_violations": self.violation_count,
            "sessions_checked": self._sessions_checked,
            "final_scores": final_scores,
            **_score_rollup([score for score in final_scores.values()
                             if score is not None]),
        }
        topology = getattr(self._owner, "topology", None)
        if topology is not None:
            summary["per_region"] = self._per_region(
                topology, final_scores, _score_rollup)
        shards = getattr(self._owner, "shards", None)
        if shards is not None:
            summary["shards"] = {
                "groups": len(shards.groups()),
                "objects": shards.n_objects,
                "load": shards.load_summary(),
            }
        return summary


def _score_rollup(scores: List[float]) -> Dict[str, float]:
    """Min and mean of some final scores (1.0 for none: nothing lags)."""
    return {"min_final_score": min(scores) if scores else 1.0,
            "mean_final_score": (sum(scores) / len(scores)
                                 if scores else 1.0)}
