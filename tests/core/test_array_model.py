"""Model-based testing of the array vector backend against the linked one.

The flat array backend (:mod:`repro.core.arrayvec`) re-implements the
element order over parallel lists; the linked backend is its semantic
oracle.  Hypothesis drives random operation interleavings — updates,
batched rotations, ``place_after`` re-anchoring, bit writes, snapshots
by ``copy`` — against an SRV pair
(the richest kind: values, conflict bits, segment bits) and demands full
structural agreement after every step.  A second pass checks COMPARE
verdicts between historical snapshots, and direct property tests cover
``from_pairs`` equivalence and ``copy`` independence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.arrayvec import (ArrayBasicRotatingVector,
                                 ArraySkipRotatingVector)
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector

SITES = [f"S{i}" for i in range(6)]
site_indices = st.integers(0, len(SITES) - 1)


class ArrayVsLinkedMachine(RuleBasedStateMachine):
    """One SRV per backend; every rule mutates both, identically."""

    def __init__(self):
        super().__init__()
        self.array = ArraySkipRotatingVector()
        self.linked = SkipRotatingVector()
        self.snapshots = []

    @rule(index=site_indices)
    def record_update(self, index):
        site = SITES[index]
        assert (self.array.record_update(site)
                == self.linked.record_update(site))

    @rule(indices=st.lists(site_indices, min_size=1, max_size=6))
    def rotate_many(self, indices):
        sites = [SITES[i] for i in indices]
        self.array.rotate_many(sites)
        self.linked.rotate_many(sites)

    @rule(index=site_indices, flag=st.booleans())
    def set_conflict_bit(self, index, flag):
        site = SITES[index]
        if site in self.linked:
            self.array.set_conflict_bit(site, flag)
            self.linked.set_conflict_bit(site, flag)

    @rule(index=site_indices, flag=st.booleans())
    def set_segment_bit(self, index, flag):
        site = SITES[index]
        if site in self.linked:
            self.array.set_segment_bit(site, flag)
            self.linked.set_segment_bit(site, flag)

    @rule(anchor=st.one_of(st.none(), site_indices), index=site_indices,
          value=st.integers(1, 50), conflict=st.booleans(),
          segment=st.booleans())
    def place_after(self, anchor, index, value, conflict, segment):
        """The receive-side primitive, from every starting position.

        The draw covers front placement (``anchor`` None), the
        self-anchor no-op, an already adjacent pair, a move that takes a
        segment terminator away (the bit carries to its predecessor) and
        an anchor the order does not hold.
        """
        prev = None if anchor is None else SITES[anchor]
        args = (prev, SITES[index], value, conflict, segment)
        if prev is not None and prev not in self.linked:
            before = self.linked.order.as_tuples()
            for vector in (self.array, self.linked):
                with pytest.raises(KeyError):
                    vector.order.place_after(*args)
            assert self.linked.order.as_tuples() == before
            return
        versions = (self.array.order.version, self.linked.order.version)
        self.array.order.place_after(*args)
        self.linked.order.place_after(*args)
        assert (self.array.order.version - versions[0]
                == self.linked.order.version - versions[1] == 1)
        assert self.array.order.value(SITES[index]) == value

    @rule()
    def snapshot(self):
        self.snapshots.append((self.array.copy(), self.linked.copy()))

    @invariant()
    def backends_agree(self):
        assert self.array.order.as_tuples() == self.linked.order.as_tuples()
        # The lazy row walk is the same walk, on both backends.
        assert (list(self.array.order.rows()) == list(self.linked.order.rows())
                == self.linked.order.as_tuples())
        assert self.array.to_version_vector() == self.linked.to_version_vector()
        assert self.array.segments() == self.linked.segments()
        assert self.array.total_updates() == self.linked.total_updates()
        first_l = self.linked.first()
        front = None if first_l is None else (first_l.site, first_l.value)
        assert self.array.order.front() == self.linked.order.front() == front
        first_a = self.array.first()
        assert (first_a is None) == (first_l is None)
        if first_a is not None:
            assert (first_a.site, first_a.value) == front

    @invariant()
    def compare_matches_across_history(self):
        for array_snap, linked_snap in self.snapshots[-3:]:
            assert (self.array.compare(array_snap)
                    == self.linked.compare(linked_snap))
            assert (array_snap.compare(self.array)
                    == linked_snap.compare(self.linked))


TestArrayVsLinked = ArrayVsLinkedMachine.TestCase
TestArrayVsLinked.settings = settings(max_examples=50,
                                      stateful_step_count=30,
                                      deadline=None)

pair_lists = st.lists(
    st.tuples(site_indices, st.integers(1, 50)),
    max_size=len(SITES),
    unique_by=lambda pair: pair[0])


@given(pair_lists)
@settings(max_examples=80, deadline=None)
def test_from_pairs_equivalent(pairs):
    """Bulk construction yields identical structure on both backends."""
    named = [(SITES[i], value) for i, value in pairs]
    array_vec = ArrayBasicRotatingVector.from_pairs(named)
    linked_vec = BasicRotatingVector.from_pairs(named)
    assert array_vec.order.as_tuples() == linked_vec.order.as_tuples()
    assert array_vec.elements() == linked_vec.elements()


@given(pair_lists, site_indices)
@settings(max_examples=80, deadline=None)
def test_copy_is_independent(pairs, index):
    """Mutating a copy never leaks into the original, on either backend."""
    named = [(SITES[i], value) for i, value in pairs]
    for cls in (ArrayBasicRotatingVector, BasicRotatingVector):
        original = cls.from_pairs(named)
        before = original.order.as_tuples()
        clone = original.copy()
        clone.record_update(SITES[index])
        assert original.order.as_tuples() == before
        assert clone[SITES[index]] >= 1


@pytest.mark.parametrize("cls", [ArraySkipRotatingVector, SkipRotatingVector])
def test_place_after_cases(cls):
    """``place_after`` is ``rotate_after`` plus the writes, case by case."""
    vector = cls.from_segments([[("A", 1), ("B", 2)], [("C", 3)]])
    order = vector.order
    rows = order.as_tuples
    assert rows() == [("A", 1, False, False), ("B", 2, False, True),
                      ("C", 3, False, True)]
    # Already adjacent: nothing moves, the fields are written.
    order.place_after("A", "B", 5, True, True)
    assert rows()[1] == ("B", 5, True, True)
    # Self-anchor: a structural no-op.
    order.place_after("C", "C", 4)
    assert rows() == [("A", 1, False, False), ("B", 5, True, True),
                      ("C", 4, False, False)]
    # Moving a segment terminator carries its bit to the predecessor.
    order.place_after("C", "B", 6, False, False)
    assert rows() == [("A", 1, False, True), ("C", 4, False, False),
                      ("B", 6, False, False)]
    # prev=None places at the front; a new site gets a fresh element.
    order.place_after(None, "D", 7, True)
    assert rows()[0] == ("D", 7, True, False) and len(order) == 4
    before, version = rows(), order.version
    with pytest.raises(KeyError):
        order.place_after("Z", "A", 9)
    # Self-anchoring is a no-op only for a present site; an absent one is
    # an unknown anchor like any other, and registers nothing.
    with pytest.raises(KeyError):
        order.place_after("Z", "Z", 9)
    with pytest.raises(KeyError):
        order.rotate_after("Z", "Z")
    assert "Z" not in order and list(order.copy().rows()) == before
    assert rows() == before and order.version == version + 3
    assert list(order.rows()) == before


def test_array_views_are_lazy_and_keep_identity():
    """No view exists until one is asked for; then it is *the* view."""
    vector = ArraySkipRotatingVector.from_pairs([("A", 1), ("B", 2)])
    order = vector.order
    order.place_after("A", "C", 3)
    list(order.rows())
    vector.compare(vector.copy())
    assert order._views is None and vector.copy().order._views is None
    first = order.first()
    assert first is order.get("A") is order.rotate_after(None, "A")
    assert first.next is order.get("C") and order.get("C").prev is first
    assert len(order._views) == 2
