"""The shared session scheduler: start order, holds and deferral."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cluster import SessionScheduler

SITES = ("A", "B", "C", "D")
PAIRS = [(src, dst) for src in SITES for dst in SITES if src != dst]


class FullScanOracle:
    """Oldest-first admission the simple way: every request joins one
    queue, and every request and every release rescans all of it."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.usage = dict.fromkeys(SITES, 0)
        self.pending = []
        self.started = []

    def _scan(self):
        waiting = []
        for src, dst, item in self.pending:
            if (self.usage[src] < self.capacity
                    and self.usage[dst] < self.capacity):
                self.usage[src] += 1
                self.usage[dst] += 1
                self.started.append(item)
            else:
                waiting.append((src, dst, item))
        self.pending = waiting

    def request(self, src, dst, item):
        self.pending.append((src, dst, item))
        self._scan()

    def release(self, src, dst, nested):
        self.usage[src] -= 1
        self.usage[dst] -= 1
        for request in nested:
            self.request(*request)
        self._scan()


class Harness:
    """A :class:`SessionScheduler` whose sessions each hold their own id
    as the resource, so work deferred on it lands exactly at its release."""

    def __init__(self, capacity):
        self.endpoints = {}
        self.started = []
        self.scheduler = SessionScheduler(SITES, capacity, self._start)

    def _start(self, item):
        src, dst = self.endpoints[item]
        self.scheduler.occupy(src, dst, (item,))
        self.started.append(item)

    def request(self, src, dst, item):
        self.endpoints[item] = (src, dst)
        self.scheduler.request(src, dst, item)

    def release(self, item, nested):
        """End session ``item``; each of ``nested`` is requested from
        inside the release, by work deferred behind the session."""
        src, dst = self.endpoints[item]
        for request in nested:
            assert self.scheduler.admit(src, item, self.request, *request)
        self.scheduler.release(src, dst, (item,))


steps = st.lists(st.one_of(
    st.tuples(st.just("request"), st.sampled_from(PAIRS)),
    st.tuples(st.just("release"), st.integers(0, 63),
              st.lists(st.sampled_from(PAIRS), max_size=3))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from((1, 2)), plan=steps)
def test_start_order_matches_a_full_oldest_first_scan(capacity, plan):
    """Requests arriving mid-release never overtake older waiters."""
    harness, oracle = Harness(capacity), FullScanOracle(capacity)
    items = count()
    released = set()

    def release(item, nested):
        nested = [(src, dst, next(items)) for src, dst in nested]
        harness.release(item, nested)
        oracle.release(*harness.endpoints[item], nested)
        released.add(item)

    for step in plan:
        if step[0] == "request":
            item = next(items)
            harness.request(*step[1], item)
            oracle.request(*step[1], item)
        else:
            live = [item for item in harness.started if item not in released]
            if live:
                release(live[step[1] % len(live)], step[2])
        assert harness.started == oracle.started
    while len(released) < len(harness.started):
        release(next(item for item in harness.started
                     if item not in released), ())
        assert harness.started == oracle.started
    assert not oracle.pending and harness.scheduler.drained()


def test_release_lands_deferred_work_in_arrival_order_across_resources():
    landed = []
    scheduler = SessionScheduler(SITES, 1, lambda item: None)
    scheduler.occupy("A", "B", ("x", "y"))
    for label, resource in (("x1", "x"), ("y1", "y"), ("x2", "x")):
        assert scheduler.admit("A", resource, landed.append, label)
    assert not scheduler.admit("A", "z", landed.append, "z1")
    scheduler.release("A", "B", ("x", "y"))
    assert landed == ["z1", "x1", "y1", "x2"]
    assert scheduler.deferrals == 3 and scheduler.drained()


def test_work_behind_a_resource_retaken_mid_flush_stays_deferred():
    """A landed item that starts a session over its resource keeps the
    items behind it waiting for that session's release."""
    landed = []
    scheduler = SessionScheduler(SITES, 1, lambda item: None)

    def retake(label):
        landed.append(label)
        scheduler.occupy("A", "C", ("x",))

    scheduler.occupy("A", "B", ("x", "y"))
    scheduler.admit("A", "x", retake, "x1")
    scheduler.admit("A", "x", landed.append, "x2")
    scheduler.admit("A", "y", landed.append, "y1")
    scheduler.release("A", "B", ("x", "y"))
    assert landed == ["x1", "y1"]
    scheduler.release("A", "C", ("x",))
    assert landed == ["x1", "y1", "x2"] and scheduler.drained()
