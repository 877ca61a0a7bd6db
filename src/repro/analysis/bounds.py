"""Analytic complexity bounds and notation extraction (Tables 1 and 2).

Table 1 defines the notations the complexity results are stated in; this
module computes each of them from *live* objects so benchmarks can print
the table with measured values next to the definitions:

====== ==========================================================
n      the number of sites
m      the number of updates on each site
Δ      ``{i : b[i] > a[i]}`` — elements the receiver must learn
Γ      ``{i : b[i] ≤ a[i] ∧ b[i] received}`` — redundant transfer
γ      the number of skipped segments
Π_v    CRG nodes: v's node plus its non-merge ancestors
====== ==========================================================

Table 2's communication upper bounds live on
:class:`~repro.net.wire.Encoding`; :func:`table2_rows` assembles the full
table (space, time/communication, worst-case bits) for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.rotating import BasicRotatingVector
from repro.net.wire import Encoding
from repro.protocols import registry


@dataclass(frozen=True)
class DeltaGamma:
    """The exact Δ and Γ-potential of a ``SYNC*_b(a)`` pair.

    ``delta`` is scheme-independent; ``gamma_candidates`` are the elements a
    CRV sender would retransmit *if* their conflict bits are set (the true
    Γ of a session also depends on where the session halts).
    """

    delta: Set[str]
    gamma_candidates: Set[str]

    @property
    def delta_size(self) -> int:
        return len(self.delta)


def analyze_pair(a: BasicRotatingVector, b: BasicRotatingVector) -> DeltaGamma:
    """Compute Δ and the Γ candidates for ``SYNC*_b(a)``."""
    delta: Set[str] = set()
    gamma: Set[str] = set()
    for element in b.order:
        if element.value > a[element.site]:
            delta.add(element.site)
        else:
            gamma.add(element.site)
    return DeltaGamma(delta, gamma)


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: a scheme's synchronization complexities."""

    scheme: str
    space: str
    time_comm: str
    upper_bound_bits: int

    def formula(self) -> str:
        """The bound formula as printed in Table 2."""
        return {
            "Optimal": "—",
            "BRV": "n·log(2mn) + 2",
            "CRV": "n·log(4mn) + 2",
            "SRV": "n·log(8mn) + n·log(2n) + 1",
        }[self.scheme]


def table2_rows(encoding: Encoding, n_sites: int) -> List[Table2Row]:
    """Table 2 for a concrete system size, bounds evaluated in bits."""
    return [
        Table2Row("Optimal", "O(1)", "O(|Δ|+γ)", 0),
        Table2Row("BRV", "O(1)", "O(|Δ|)",
                  encoding.brv_sync_bound(n_sites)),
        Table2Row("CRV", "O(1)", "O(|Δ|+|Γ|)",
                  encoding.crv_sync_bound(n_sites)),
        Table2Row("SRV", "O(1)", "O(|Δ|+γ)",
                  encoding.srv_sync_bound(n_sites)),
    ]


def lower_bound_bits(encoding: Encoding, delta: int, gamma: int) -> int:
    """Ω(|Δ|+γ) evaluated with this encoding's field widths.

    Theorem 5.1/Corollary 5.2: any O(n)-storage vector synchronization must
    move at least the Δ elements plus one unit of information per shared
    segment; we price those at the bare element and SKIP record widths.
    """
    return delta * encoding.compare_element_bits + gamma


def vector_storage_bits(vector: BasicRotatingVector,
                        encoding: Encoding) -> int:
    """Per-replica metadata storage of a rotating vector, in bits.

    Elements store site, value, and (kind-dependent) flag bits; the total
    order adds two pointers per element, priced at ``site_bits`` each (the
    doubly linked list of §3.3).
    """
    flag_bits = registry.get(vector.kind).flag_bits
    per_element = (encoding.site_bits + encoding.value_bits + flag_bits
                   + 2 * encoding.site_bits)
    return len(vector) * per_element
