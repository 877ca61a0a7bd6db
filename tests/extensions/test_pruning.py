"""Tests for inactive-site pruning of rotating vectors."""

import pytest

from repro.core.order import Ordering
from repro.core.skip import SkipRotatingVector
from repro.errors import ReproError
from repro.extensions.pruning import (RetirementLog, is_prunable, prune,
                                      prune_all)
from repro.net.wire import Encoding
from repro.protocols.syncs import sync_srv

ENC = Encoding(site_bits=8, value_bits=16)


def converged_pair():
    """Two replicas that both cover retiring site R completely."""
    a = SkipRotatingVector()
    for site in ("R", "A", "B"):
        a.record_update(site)
    b = a.copy()
    return a, b


class TestRetirementLog:
    def test_retire_records_entries(self):
        log = RetirementLog()
        entry = log.retire("R", 3)
        assert entry.site == "R" and entry.final_value == 3
        assert log.retired_sites() == ["R"]
        assert len(log) == 1

    def test_double_retirement_rejected(self):
        log = RetirementLog()
        log.retire("R", 1)
        with pytest.raises(ReproError):
            log.retire("R", 2)

    def test_negative_final_value_rejected(self):
        with pytest.raises(ReproError):
            RetirementLog().retire("R", -1)

    def test_epochs_are_ordered(self):
        log = RetirementLog()
        first = log.retire("R", 1)
        second = log.retire("S", 1)
        assert first.epoch < second.epoch


class TestPrune:
    def test_prune_removes_element(self):
        a, _ = converged_pair()
        log = RetirementLog()
        retirement = log.retire("R", 1)
        assert prune(a, retirement) is True
        assert "R" not in a.order
        assert a["A"] == 1 and a["B"] == 1

    def test_prune_requires_coverage(self):
        a, _ = converged_pair()
        log = RetirementLog()
        retirement = log.retire("R", 5)  # R made updates a never saw
        assert not is_prunable(a, retirement)
        with pytest.raises(ReproError):
            prune(a, retirement)

    def test_prune_preserves_segment_structure(self):
        vector = SkipRotatingVector.from_segments(
            [[("X", 1)], [("G", 1), ("R", 1), ("E", 1)], [("A", 1)]])
        log = RetirementLog()
        prune(vector, log.retire("E", 1))  # segment terminator retires
        # The boundary carried to R; segments stay parseable.
        assert [[s for s, _ in seg] for seg in vector.segments()] == [
            ["X"], ["G", "R"], ["A"]]

    def test_prune_all_applies_what_it_can(self):
        a, _ = converged_pair()
        log = RetirementLog()
        log.retire("R", 1)
        log.retire("Z", 9)  # never seen locally at that value
        assert prune_all(a, log) == 1
        assert "R" not in a.order


class TestPrunedProtocols:
    def test_symmetric_pruning_preserves_sync(self):
        a, b = converged_pair()
        b.record_update("B")
        log = RetirementLog()
        retirement = log.retire("R", 1)
        prune(a, retirement)
        prune(b, retirement)
        sync_srv(a, b, encoding=ENC)
        assert a.to_version_vector().as_dict() == {"A": 1, "B": 2}

    def test_symmetric_pruning_preserves_compare(self):
        a, b = converged_pair()
        log = RetirementLog()
        retirement = log.retire("R", 1)
        prune(a, retirement)
        prune(b, retirement)
        assert a.compare(b) is Ordering.EQUAL
        b.record_update("B")
        assert a.compare(b) is Ordering.BEFORE

    def test_pruning_shrinks_traffic(self):
        wide = SkipRotatingVector()
        for index in range(20):
            wide.record_update(f"OLD{index}")
        for site in ("A", "B"):
            wide.record_update(site)
        log = RetirementLog()
        for index in range(20):
            prune(wide, log.retire(f"OLD{index}", 1))
        fresh = SkipRotatingVector()
        session = sync_srv(fresh, wide, encoding=ENC)
        assert session.sender_result.elements_sent == 2  # A and B only

    def test_asymmetric_pruning_causes_false_verdicts(self):
        """The documented failure mode: prune on one side only."""
        a, b = converged_pair()  # equal vectors
        log = RetirementLog()
        prune(a, log.retire("R", 1))  # a prunes, b does not
        # b's front is R — a reads the pair as BEFORE although the live
        # sites agree completely: the §2.2 "excessive truncation" hazard.
        assert a.compare_full(b) is not Ordering.EQUAL
