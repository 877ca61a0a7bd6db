"""Aggregation helpers for experiment harnesses.

Benchmarks sweep a parameter (number of sites, conflict rate, rtt …) and
need per-scheme aggregates of many synchronization outcomes; this module
provides the accumulator they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.stats import TransferStats
from repro.replication.statesystem import StateTransferSystem, SyncOutcome


@dataclass
class SchemeAggregate:
    """Traffic and protocol counters accumulated over many syncs."""

    scheme: str
    syncs: int = 0
    metadata_bits: int = 0
    payload_bits: int = 0
    new_elements: int = 0
    redundant_elements: int = 0
    skips: int = 0
    reconciliations: int = 0
    conflicts: int = 0
    #: Full per-direction, per-message-type traffic (session stats merged
    #: via :meth:`TransferStats.merge` instead of hand-summed bits).
    traffic: TransferStats = field(default_factory=TransferStats)

    @property
    def metadata_bits_per_sync(self) -> float:
        return self.metadata_bits / self.syncs if self.syncs else 0.0

    def add_outcome(self, outcome: SyncOutcome) -> None:
        """Fold one synchronization outcome into the aggregate."""
        self.syncs += 1
        self.metadata_bits += outcome.metadata_bits
        self.payload_bits += outcome.payload_bits
        for session in (outcome.compare_session, outcome.sync_session):
            if session is not None:
                self.traffic.merge(session.stats)
        if outcome.action == "reconcile":
            self.reconciliations += 1
        elif outcome.action == "conflict":
            self.conflicts += 1
        receiver = outcome.receiver_report
        if receiver is not None:
            self.new_elements += receiver.new_elements
            self.redundant_elements += receiver.redundant_elements
            self.skips += receiver.skips_issued


def aggregate_system(scheme: str,
                     system: StateTransferSystem) -> SchemeAggregate:
    """Fold every outcome a system recorded into one aggregate."""
    aggregate = SchemeAggregate(scheme)
    for outcome in system.outcomes:
        aggregate.add_outcome(outcome)
    return aggregate
