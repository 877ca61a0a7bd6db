"""Tests for the discrete-event simulation kernel (times in integer ns)."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import _COMPACT_MIN_CANCELLED, Simulator, to_ns
from repro.obs.trace import Tracer


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(20, lambda: fired.append("late"))
        sim.call_at(10, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 20

    def test_fifo_within_a_tick(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.call_at(10, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_call_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.call_at(50, lambda: sim.call_after(25, lambda: times.append(sim.now)))
        sim.run()
        assert times == [75]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.call_at(30, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(10, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-10, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.call_at(10, lambda: fired.append(1))
        sim.call_at(100, lambda: fired.append(10))
        sim.run(until=50)
        assert fired == [1]
        assert sim.now == 50
        assert sim.pending_events == 1

    def test_run_until_advances_clock_on_empty_queue(self):
        # Time passes even with nothing scheduled: draining before the
        # horizon leaves the clock at the horizon, exactly as when the
        # first pending event lies past it.
        sim = Simulator()
        assert sim.run(until=50) == 50
        assert sim.now == 50
        sim.call_after(10, lambda: None)
        assert sim.run(until=90) == 90
        assert sim.now == 90

    def test_run_until_in_the_past_keeps_clock(self):
        sim = Simulator()
        sim.call_at(40, lambda: None)
        sim.run()
        assert sim.run(until=20) == 40  # never moves backwards

    def test_nan_times_rejected(self):
        # NaN compares false both ways, so a `< now` check lets it in and
        # the heap then orders it arbitrarily.
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.call_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_after(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        assert sim.pending_events == 0

    def test_run_until_nan_rejected(self):
        # `time > nan` is always false, so a NaN bound would drain the
        # queue; it cannot become a clock value in the first place.
        sim = Simulator()
        fired = []
        sim.call_at(10, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            sim.run(until=to_ns(float("nan")))
        assert fired == [] and sim.pending_events == 1

    def test_schedule_is_call_at_without_a_handle(self):
        # Same clock, same FIFO sequence: mixing the two never reorders.
        sim = Simulator()
        fired = []
        sim.call_at(10, lambda: fired.append("a"))
        assert sim.schedule(10, lambda: fired.append("b")) is None
        sim.call_at(10, lambda: fired.append("c"))
        sim.schedule(5, lambda: fired.append("first"))
        sim.run()
        assert fired == ["first", "a", "b", "c"]

    def test_run_until_drained_queue_still_detects_deadlock(self):
        # A drained queue can never wake a parked host; waiting longer
        # cannot help, so the deadlock check applies even under an `until`.
        sim = Simulator()
        sim.park()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=1000)

    def test_run_until_early_return_skips_deadlock_check(self):
        # Stopping early with events still pending is not a deadlock: the
        # remaining events may wake the parked host, as resuming shows.
        sim = Simulator()
        woke = []

        def wake():
            sim.unpark()
            woke.append(sim.now)

        sim.park()
        sim.call_at(100, wake)
        assert sim.run(until=50) == 50
        assert woke == []
        sim.run()
        assert woke == [100]


class TestProcesses:
    """A process is a chain of callbacks, as the runner's wire parties
    are: it sleeps by scheduling its next step later and waits by
    parking until another event wakes it."""

    def test_process_sleeps(self):
        sim = Simulator()
        trace = []

        def start():
            trace.append(("start", sim.now))
            sim.schedule(sim.now + 15, mid)

        def mid():
            trace.append(("mid", sim.now))
            sim.schedule(sim.now + 5, end)

        def end():
            trace.append(("end", sim.now))

        sim.schedule(sim.now, start)
        sim.run()
        assert trace == [("start", 0), ("mid", 15), ("end", 20)]

    def test_deadlock_detection(self):
        sim = Simulator()
        sim.call_at(10, sim.park)  # parks, and nothing will wake it
        with pytest.raises(SimulationError, match="deadlock") as caught:
            sim.run()
        assert "1 host(s) parked at t=10 ns" in str(caught.value)

    def test_two_processes_interleave_by_time(self):
        sim = Simulator()
        trace = []

        def ticker(name, period, count):
            def tick():
                trace.append((name, sim.now))
                if count > 1:
                    sim.schedule(sim.now + period,
                                 ticker(name, period, count - 1))
            return tick

        sim.schedule(10, ticker("fast", 10, 3))
        sim.schedule(25, ticker("slow", 25, 1))
        sim.run()
        assert trace == [("fast", 10), ("fast", 20), ("slow", 25),
                         ("fast", 30)]

    def test_negative_sleep_rejected(self):
        sim = Simulator()
        sim.call_at(10, lambda: sim.schedule(sim.now - 5, lambda: None))
        with pytest.raises(SimulationError, match="before now"):
            sim.run()

    def test_int_sleep(self):
        sim = Simulator()
        woke = []
        sim.schedule(sim.now + 2, lambda: woke.append(sim.now))
        sim.run()
        assert woke == [2]

    def test_resumed_waiter_is_not_a_deadlock(self):
        sim = Simulator()
        woke = []

        def wake():
            sim.unpark()
            woke.append(sim.now)
            if len(woke) < 3:
                sim.park()

        sim.park()
        for at in (10, 20, 30):
            sim.call_at(at, wake)
        assert sim.run() == 30  # no false deadlock
        assert woke == [10, 20, 30]


class TestTimerCompaction:
    """Cancelled timers must not accumulate in the heap (the ARQ leak)."""

    def test_cancel_suppresses_callback(self):
        sim = Simulator()
        fired = []
        timer = sim.call_after(10, lambda: fired.append("no"))
        sim.call_after(20, lambda: fired.append("yes"))
        timer.cancel()
        sim.run()
        assert fired == ["yes"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.call_after(10, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sim._cancelled == 1
        sim.run()

    def test_heap_stays_bounded_under_cancel_heavy_load(self):
        # The retransmission pattern: every delivered item obsoletes a
        # pending timer.  Before compaction the heap grew by one dead
        # entry per cancel, so a long chaos run held every obsoleted
        # timer until its (far-future) deadline.  Now the dead fraction
        # is capped, so pending_events stays proportional to live work.
        sim = Simulator()
        high_water = 0
        live = 50
        timers = [sim.call_at(10000 + i, lambda: None)
                  for i in range(live)]
        for round_number in range(200):
            for i in range(live):
                timers[i].cancel()
                timers[i] = sim.call_at(
                    10000 + round_number + i, lambda: None)
            high_water = max(high_water, sim.pending_events)
        # 10_000 cancellations happened; an unbounded heap would hold
        # them all.  Compaction keeps at most ~half the heap dead.
        assert high_water <= 2 * live + _COMPACT_MIN_CANCELLED
        sim.run()

    def test_compaction_keeps_live_events_and_order(self):
        sim = Simulator()
        fired = []
        keep = [sim.call_after(10 * i, lambda i=i: fired.append(i))
                for i in range(1, 6)]
        drop = [sim.call_after(5, lambda: fired.append("dead"))
                for _ in range(300)]
        for timer in drop:
            timer.cancel()
        assert sim.pending_events < 300  # compaction already ran
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert keep[0].cancelled is False

    def test_compaction_during_run_keeps_queue_alias_valid(self):
        # run() holds a local alias to the heap; in-place compaction
        # (triggered by a callback cancelling en masse) must stay visible.
        sim = Simulator()
        fired = []
        victims = [sim.call_at(500 + i, lambda: fired.append("dead"))
                   for i in range(200)]

        def massacre():
            for timer in victims:
                timer.cancel()

        sim.call_after(10, massacre)
        sim.call_after(20, lambda: fired.append("after"))
        sim.run()
        assert fired == ["after"]


class TestStamping:
    def test_events_carry_simulated_time_inside_the_block_only(self):
        tracer = Tracer()
        tracer.clock = lambda: -1.0
        sim = Simulator()
        with sim.stamping(tracer):
            sim.call_at(to_ns(2.5), lambda: tracer.event("tick"))
            sim.run()
        tracer.event("after")
        # The kernel counts ns; the tracer is stamped in seconds.
        assert [(e.kind, e.time) for e in tracer.events] == [
            ("tick", 2.5), ("after", -1.0)]

    def test_previous_clock_comes_back_on_error(self):
        tracer = Tracer()
        sim = Simulator()
        with pytest.raises(RuntimeError):
            with sim.stamping(tracer):
                raise RuntimeError("boom")
        assert tracer.clock is None

    def test_no_tracer_just_runs_the_block(self):
        sim = Simulator()
        with sim.stamping(None):
            sim.call_at(10, lambda: None)
            assert sim.run() == 10
