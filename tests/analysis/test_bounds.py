"""Tests for notation extraction and the Table 2 bound helpers."""

from repro.analysis.bounds import (analyze_pair, lower_bound_bits,
                                   table2_rows, vector_storage_bits)
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.net.wire import Encoding

ENC = Encoding(site_bits=8, value_bits=8)


def pair():
    a = BasicRotatingVector.from_pairs([("A", 2), ("B", 1)])
    b = BasicRotatingVector.from_pairs([("C", 1), ("A", 3), ("B", 1)])
    return a, b


class TestNotations:
    def test_delta(self):
        a, b = pair()
        assert analyze_pair(a, b).delta == {"C", "A"}
        assert analyze_pair(b, a).delta == set()

    def test_analyze_pair(self):
        a, b = pair()
        analysis = analyze_pair(a, b)
        assert analysis.delta == {"C", "A"}
        assert analysis.gamma_candidates == {"B"}
        assert analysis.delta_size == 2


class TestTable2:
    def test_rows_cover_all_schemes(self):
        rows = table2_rows(ENC, n_sites=10)
        assert [row.scheme for row in rows] == ["Optimal", "BRV", "CRV", "SRV"]

    def test_bounds_match_encoding(self):
        rows = {row.scheme: row for row in table2_rows(ENC, 10)}
        assert rows["BRV"].upper_bound_bits == ENC.brv_sync_bound(10)
        assert rows["SRV"].upper_bound_bits == ENC.srv_sync_bound(10)

    def test_formulas_printable(self):
        for row in table2_rows(ENC, 4):
            assert isinstance(row.formula(), str)


class TestStorageAndLowerBound:
    def test_lower_bound_monotone(self):
        assert (lower_bound_bits(ENC, 3, 2)
                < lower_bound_bits(ENC, 4, 2)
                < lower_bound_bits(ENC, 4, 20))

    def test_vector_storage_scales_with_elements(self):
        small = SkipRotatingVector.from_pairs([("A", 1)])
        large = SkipRotatingVector.from_pairs(
            [(f"S{i}", 1) for i in range(10)])
        assert (vector_storage_bits(large, ENC)
                == 10 * vector_storage_bits(small, ENC))

    def test_srv_storage_exceeds_brv(self):
        brv = BasicRotatingVector.from_pairs([("A", 1)])
        srv = SkipRotatingVector.from_pairs([("A", 1)])
        assert vector_storage_bits(srv, ENC) > vector_storage_bits(brv, ENC)


class TestReport:
    def test_format_table_aligns(self):
        from repro.analysis.report import format_table
        text = format_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}


class TestAggregates:
    def test_scheme_aggregate_over_system(self):
        from repro.analysis.metrics import aggregate_system
        from repro.replication.statesystem import StateTransferSystem
        system = StateTransferSystem(metadata="srv")
        system.create_object("A", "doc", "v0")
        system.clone_replica("A", "B", "doc")
        system.update("A", "doc", "v1")
        system.pull("B", "A", "doc")
        aggregate = aggregate_system("srv", system)
        assert aggregate.syncs == 2
        assert aggregate.metadata_bits > 0
        assert aggregate.metadata_bits_per_sync > 0
