"""Model-based testing of ElementOrder against a plain-list reference.

The doubly linked order with O(1) rotation is the foundation under every
rotating vector; hypothesis drives random operation sequences against a
naive list model and checks full structural agreement after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.core.linkedorder import ElementOrder

SITES = [f"S{i}" for i in range(8)]
site_indices = st.integers(0, len(SITES) - 1)


class _ListModel:
    """Reference implementation: a list of [site, value, conflict, segment]."""

    def __init__(self):
        self.rows = []

    def _find(self, site):
        for index, row in enumerate(self.rows):
            if row[0] == site:
                return index
        return None

    def rotate_front(self, site):
        index = self._find(site)
        if index is None:
            self.rows.insert(0, [site, 0, False, False])
            return
        row = self.rows.pop(index)
        if row[3] and index > 0:
            self.rows[index - 1][3] = True  # carry the segment bit
        self.rows.insert(0, row)

    def rotate_after(self, prev_site, site):
        if prev_site is None:
            self.rotate_front(site)
            return
        index = self._find(site)
        anchor = self._find(prev_site)
        if anchor is None:
            raise KeyError(prev_site)
        if prev_site == site:
            return  # already in its own slot
        if index is not None:
            if index == anchor + 1:
                return  # already in place
            row = self.rows.pop(index)
            if row[3] and index > 0:
                self.rows[index - 1][3] = True
            anchor = self._find(prev_site)
        else:
            row = [site, 0, False, False]
        self.rows.insert(anchor + 1, row)

    def remove(self, site):
        index = self._find(site)
        if index is None:
            return
        row = self.rows.pop(index)
        if row[3] and index > 0:
            self.rows[index - 1][3] = True

    def set_fields(self, site, value, conflict, segment):
        index = self._find(site)
        if index is not None:
            self.rows[index][1:] = [value, conflict, segment]

    def as_tuples(self):
        return [tuple(row) for row in self.rows]


class OrderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = ElementOrder()
        self.model = _ListModel()

    @rule(site=site_indices)
    def rotate_front(self, site):
        self.real.rotate_front(SITES[site])
        self.model.rotate_front(SITES[site])

    @rule(prev=site_indices, site=site_indices)
    def rotate_after(self, prev, site):
        prev_site, target = SITES[prev], SITES[site]
        if prev_site not in self.real:
            return  # anchor must exist; covered by unit tests
        self.real.rotate_after(prev_site, target)
        self.model.rotate_after(prev_site, target)

    @rule(site=site_indices, value=st.integers(0, 50),
          conflict=st.booleans(), segment=st.booleans())
    def set_fields(self, site, value, conflict, segment):
        element = self.real.get(SITES[site])
        if element is None:
            return
        element.value = value
        element.conflict = conflict
        element.segment = segment
        self.model.set_fields(SITES[site], value, conflict, segment)

    @rule(site=site_indices)
    def remove(self, site):
        self.real.remove(SITES[site])
        self.model.remove(SITES[site])

    @invariant()
    def structures_agree(self):
        assert self.real.as_tuples() == self.model.as_tuples()

    @invariant()
    def pointers_are_consistent(self):
        forward = [e.site for e in self.real]
        backward = []
        node = self.real.last()
        while node is not None:
            backward.append(node.site)
            node = node.prev
        assert backward == list(reversed(forward))
        assert len(forward) == len(self.real)


TestOrderModel = OrderMachine.TestCase
TestOrderModel.settings = settings(max_examples=60,
                                   stateful_step_count=50,
                                   deadline=None)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(site_indices, st.booleans()), max_size=30))
def test_copy_equals_original_after_any_history(ops):
    order = ElementOrder()
    for site, front in ops:
        if front or len(order) == 0:
            order.rotate_front(SITES[site])
        else:
            anchor = order.last().site
            order.rotate_after(anchor, SITES[site])
    assert order.copy().as_tuples() == order.as_tuples()
