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


class AdmissionOracle:
    """Deferred work at one site the simple way: one list of waiting
    items, rescanned in arrival order at every release.  An item waits
    while an older item of its (resource, client) waits, or while it is
    busy: a read while its (resource, client) is barred, other work
    while its resource is held."""

    def __init__(self):
        self.held = {}
        self.barred = {}
        self.waiting = []
        self.landed = []
        self.deferrals = 0

    def _busy(self, resource, client, read):
        if read:
            return self.barred.get((resource, client), 0) > 0
        return self.held.get(resource, 0) > 0

    def admit(self, resource, client, read, label):
        if (any(item[:2] == (resource, client) for item in self.waiting)
                or self._busy(resource, client, read)):
            self.waiting.append((resource, client, read, label))
            self.deferrals += 1
        else:
            self.landed.append(label)

    def release(self, resources):
        still = []
        for item in self.waiting:
            if (item[0] not in resources
                    or any(other[:2] == item[:2] for other in still)
                    or self._busy(*item[:3])):
                still.append(item)
            else:
                self.landed.append(item[3])
        self.waiting = still


RESOURCES = SHARED[:2]
CLIENTS = (None, 1, 2)
admission_steps = st.lists(st.one_of(
    st.tuples(st.just("admit"), st.sampled_from(RESOURCES),
              st.sampled_from(CLIENTS), st.booleans()),
    st.tuples(st.just("hold"), st.sampled_from(RESOURCES)),
    st.tuples(st.just("bar"), st.sampled_from(RESOURCES),
              st.sampled_from(CLIENTS)),
    st.tuples(st.just("session"), st.lists(
        st.sampled_from(RESOURCES), min_size=1, unique=True).map(tuple)),
    st.tuples(st.just("end"), st.integers(0, 7))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(plan=admission_steps)
def test_work_lands_when_a_per_client_fifo_rescan_lands_it(plan):
    """Reads and writes of three clients (one anonymous) among holds,
    bars and sessions receiving at ``B``: work lands exactly when the
    oracle's full rescan lands it.  An ended hold or bar is followed by
    a release of its resource, as a store repair's end is."""
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
    oracle = AdmissionOracle()
    live = []

    def count_in(step, by):
        if step[0] == "bar":
            oracle.barred[step[1:]] = oracle.barred.get(step[1:], 0) + by
        for resource in ((step[1],) if step[0] == "hold"
                         else step[1] if step[0] == "session" else ()):
            oracle.held[resource] = oracle.held.get(resource, 0) + by

    def release(resources):
        scheduler.release("A", "B", (), resources)
        oracle.release(resources)

    def end(step):
        count_in(step, -1)
        if step[0] == "session":
            release(step[1])
            return
        if step[0] == "hold":
            scheduler.unhold("B", step[1])
        else:
            scheduler.unbar("B", *step[1:])
        scheduler.occupy("A", "B", (), step[1:2])
        release(step[1:2])

    for number, step in enumerate(plan):
        if step[0] == "admit":
            _, resource, client, read = step
            scheduler.admit("B", resource, landed.append, number,
                            read=read, client=client)
            oracle.admit(resource, client, read, number)
        elif step[0] == "end":
            if live:
                end(live.pop(step[1] % len(live)))
        else:
            if step[0] == "hold":
                scheduler.hold("B", step[1])
            elif step[0] == "bar":
                scheduler.bar("B", *step[1:])
            else:
                scheduler.occupy("A", "B", (), step[1])
            count_in(step, 1)
            live.append(step)
        assert landed == oracle.landed
    while live:
        end(live.pop())
    scheduler.occupy("A", "B", (), RESOURCES)
    release(RESOURCES)
    admitted = [n for n, step in enumerate(plan) if step[0] == "admit"]
    assert landed == oracle.landed and sorted(landed) == admitted
    assert scheduler.drained() and scheduler.deferrals == oracle.deferrals


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


def test_reads_wait_only_for_bars_and_their_clients_older_work():
    """A session's receiver-only resources bind its ``dst`` alone, and
    only for work that is not a read; a read waits for a :meth:`bar` on
    its own client and for its client's older work on its resource,
    which it never overtakes.  A :meth:`hold` stops writes, not reads."""
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
    scheduler.occupy("A", "B", ("s",), ("x",))
    assert not scheduler.admit("A", "x", landed.append, "write at A")
    assert not scheduler.admit("B", "x", landed.append, "read at B",
                               read=True)
    assert scheduler.admit("B", "x", landed.append, "write at B", client=1)
    assert scheduler.admit("B", "x", landed.append, "read behind",
                           read=True, client=1)
    assert not scheduler.admit("B", "x", landed.append, "other client",
                               read=True, client=2)
    scheduler.hold("B", "y")
    scheduler.bar("B", "y", 1)
    assert not scheduler.admit("B", "y", landed.append, "read held",
                               read=True, client=2)
    assert scheduler.admit("B", "y", landed.append, "read barred",
                           read=True, client=1)
    assert scheduler.admit("B", "y", landed.append, "write held", client=2)
    scheduler.release("A", "B", ("s",), ("x",))
    assert landed == ["write at A", "read at B", "other client",
                      "read held", "write at B", "read behind"]
    # The hold's write lands at the next release of ``y`` at ``B``; the
    # barred read of another client does not keep it back ...
    scheduler.unhold("B", "y")
    scheduler.occupy("C", "B", (), ("y",))
    scheduler.release("C", "B", (), ("y",))
    assert landed[-1] == "write held"
    # ... and the read lands at the first release after its unbar.
    scheduler.unbar("B", "y", 1)
    assert landed[-1] == "write held"
    scheduler.occupy("C", "B", (), ("y",))
    scheduler.release("C", "B", (), ("y",))
    assert landed[-1] == "read barred" and scheduler.drained()


def test_a_bar_defers_its_own_client_alone():
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
    scheduler.bar("B", "x", 1)
    assert scheduler.admit("B", "x", landed.append, "barred", read=True,
                           client=1)
    for client in (2, None):
        assert not scheduler.admit("B", "x", landed.append, client,
                                   read=True, client=client)
    # The bar binds its site and resource only.
    assert not scheduler.admit("A", "x", landed.append, "at A", read=True,
                               client=1)
    assert not scheduler.admit("B", "y", landed.append, "on y", read=True,
                               client=1)
    # Not a hold: writes pass it.
    assert not scheduler.admit("B", "x", landed.append, "write", client=2)
    scheduler.unbar("B", "x", 1)
    scheduler.occupy("A", "B", ("x",))
    scheduler.release("A", "B", ("x",))
    assert landed == [2, None, "at A", "on y", "write", "barred"]
    assert scheduler.drained() and scheduler.deferrals == 1


def test_a_clients_pipelined_ops_stay_fifo():
    """Ops a client issues on a key before the earlier ones have landed
    land in issue order, reads behind writes included; another client's
    read and the client's own ops on another key overtake them."""
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
    scheduler.occupy("A", "B", ("s",), ("x",))
    plan = (("w1", False), ("r1", True), ("w2", False), ("r2", True))
    for label, read in plan:
        assert scheduler.admit("B", "x", landed.append, label, read=read,
                               client=1)
    assert not scheduler.admit("B", "x", landed.append, "other", read=True,
                               client=2)
    assert not scheduler.admit("B", "y", landed.append, "own y", read=True,
                               client=1)
    scheduler.release("A", "B", ("s",), ("x",))
    assert landed == ["other", "own y", "w1", "r1", "w2", "r2"]
    assert scheduler.drained()


def test_anonymous_ops_keep_one_queue_and_one_bar_per_key():
    """Work admitted without a client behaves as before clients existed:
    one FIFO per resource, and a bar on ``None`` stops every such read."""
    landed = []
    scheduler = SessionScheduler(SITES, lambda item: None)
    scheduler.occupy("A", "B", ("s",), ("x",))
    assert scheduler.admit("B", "x", landed.append, "write")
    assert scheduler.admit("B", "x", landed.append, "read behind", read=True)
    scheduler.bar("B", "y", None)
    assert scheduler.admit("B", "y", landed.append, "read barred", read=True)
    assert scheduler.admit("B", "y", landed.append, "read behind it",
                           read=True)
    scheduler.release("A", "B", ("s",), ("x",))
    assert landed == ["write", "read behind"]
    scheduler.unbar("B", "y", None)
    scheduler.occupy("C", "B", (), ("y",))
    scheduler.release("C", "B", (), ("y",))
    assert landed[2:] == ["read barred", "read behind it"]
    assert scheduler.drained() and scheduler.deferrals == 4
