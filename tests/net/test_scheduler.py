"""The shared session scheduler: start order, holds and deferral."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cluster import SessionScheduler

SITES = ("A", "B", "C", "D")
PAIRS = [(src, dst) for src in SITES for dst in SITES if src != dst]
#: The shared resources a session may name beside its own id.
SHARED = ("x", "y", "z")


class FullScanOracle:
    """Oldest-first admission the simple way: every request joins one
    queue, and every request and every release rescans all of it.  A
    request starts once no resource it names is held at either endpoint
    and no older request of its (src, dst) pair still waits."""

    def __init__(self):
        self.held = {}
        self.pending = []
        self.started = []

    def _free(self, src, dst, resources):
        return all(self.held.get((site, resource), 0) == 0
                   for site in (src, dst) for resource in resources)

    def _scan(self):
        waiting = []
        for src, dst, resources, item in self.pending:
            if (all((src, dst) != entry[:2] for entry in waiting)
                    and self._free(src, dst, resources)):
                for site in (src, dst):
                    for resource in resources:
                        key = (site, resource)
                        self.held[key] = self.held.get(key, 0) + 1
                self.started.append(item)
            else:
                waiting.append((src, dst, resources, item))
        self.pending = waiting

    def request(self, src, dst, resources, item):
        self.pending.append((src, dst, resources, item))
        self._scan()

    def release(self, src, dst, resources, nested):
        for site in (src, dst):
            for resource in resources:
                self.held[(site, resource)] -= 1
        for request in nested:
            self.request(*request)
        self._scan()


class Harness:
    """A :class:`SessionScheduler` whose sessions each hold their own id
    beside the shared resources they name, so work deferred on the id
    lands exactly at the session's release."""

    def __init__(self):
        self.sessions = {}
        self.started = []
        self.scheduler = SessionScheduler(SITES, self._start)

    def _start(self, item):
        src, dst, resources = self.sessions[item]
        self.scheduler.occupy(src, dst, resources)
        self.started.append(item)

    def request(self, src, dst, resources, item):
        resources = (item, *resources)
        self.sessions[item] = (src, dst, resources)
        self.scheduler.request(src, dst, resources, item)

    def release(self, item, nested):
        """End session ``item``; each of ``nested`` is requested from
        inside the release, by work deferred behind the session."""
        src, dst, resources = self.sessions[item]
        for request in nested:
            assert self.scheduler.admit(src, item, self.request, *request)
        self.scheduler.release(src, dst, resources)


subsets = st.lists(st.sampled_from(SHARED), unique=True, max_size=3).map(
    tuple)
requests = st.tuples(st.sampled_from(PAIRS), subsets)
steps = st.lists(st.one_of(
    st.tuples(st.just("request"), requests),
    st.tuples(st.just("release"), st.integers(0, 63),
              st.lists(requests, max_size=3))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(plan=steps)
def test_start_order_matches_a_full_oldest_first_scan(plan):
    """Requests naming random resource subsets start exactly when the
    full rescan starts them: mid-release arrivals never overtake older
    waiters, and no request overtakes an older one of its own pair."""
    harness, oracle = Harness(), FullScanOracle()
    items = count()
    released = set()

    def release(item, nested):
        nested = [(src, dst, shared, next(items))
                  for (src, dst), shared in nested]
        harness.release(item, nested)
        src, dst, resources = harness.sessions[item]
        oracle.release(src, dst, resources, [
            (src, dst, (nested_item, *shared), nested_item)
            for src, dst, shared, nested_item in nested])
        released.add(item)

    for step in plan:
        if step[0] == "request":
            item = next(items)
            (src, dst), shared = step[1]
            harness.request(src, dst, shared, item)
            oracle.request(src, dst, (item, *shared), item)
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


def test_sessions_on_disjoint_resources_share_a_site():
    started = []
    scheduler = SessionScheduler(SITES, started.append)
    scheduler.request("A", "B", ("x",), "AB")
    scheduler.occupy("A", "B", ("x",))
    scheduler.request("C", "A", ("y",), "CA")
    scheduler.occupy("C", "A", ("y",))
    scheduler.request("D", "A", ("x", "z"), "DA")
    assert started == ["AB", "CA"]
    scheduler.release("A", "B", ("x",))
    assert started == ["AB", "CA", "DA"]


def test_a_request_waits_behind_an_older_one_of_its_pair():
    """Object admission alone would let the second A→B request start
    first; the pair's FIFO order holds it back until the first starts."""
    started = []

    def start(item):
        started.append(item)
        scheduler.occupy("A", "B", resources[item])

    resources = {"busy": ("x",), "first": ("x",), "second": ("y",)}
    scheduler = SessionScheduler(SITES, start)
    scheduler.request("A", "B", ("x",), "busy")
    scheduler.request("A", "B", ("x",), "first")
    scheduler.request("A", "B", ("y",), "second")
    assert started == ["busy"]
    scheduler.release("A", "B", ("x",))
    assert started == ["busy", "first", "second"]


def test_release_lands_deferred_work_in_arrival_order_across_resources():
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
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
    scheduler = SessionScheduler(SITES, lambda item: None)

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
