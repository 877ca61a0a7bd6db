"""A small discrete-event simulation kernel.

The paper's running-time claims (pipelining saves ``(k−1)·rtt``; costs at
most ``β = bandwidth·rtt`` bytes of excess transmission) are about time,
which the instant session driver deliberately abstracts away.  This kernel
provides the simulated clock: an event queue of callbacks.  Whatever it
hosts — the timed runner's wire parties, cluster schedules, timers — is
driven by its own callbacks; a host that waits for another callback to
wake it *parks* (:meth:`Simulator.park`), so a queue that drains while
something is parked is reported as a deadlock.

The kernel is deliberately tiny — deterministic, single-clock, no real
concurrency — because the paper's experiments need nothing more, and a
small kernel is easy to test exhaustively.  It is also the hottest loop
in every cluster benchmark, so the implementation is tuned:

* every class is ``__slots__``-ed; no per-instance dicts on the kernel
  path;
* events that can never be cancelled (:meth:`Simulator.schedule`: wire
  deliveries, wake-ups) share one immortal :class:`Timer` sentinel
  instead of allocating a handle per event;
* :meth:`Simulator.run` dispatches in a tight loop that skips cancelled
  entries inline and only consults the tracer when one is attached —
  with tracing off the per-event cost is one heap pop and the callback;
* cancelled timers are *compacted*: once they exceed half the heap (and
  a small floor) the heap is rebuilt without them, so a long chaos run's
  queue stays proportional to its live events instead of accumulating
  every obsoleted retransmission timer forever.

Time is an ``int`` count of nanoseconds, and this module holds the unit:
:func:`to_ns` is the one way a seconds value enters the clock and
:func:`to_seconds` the one way a clock value leaves it.  Sums of ints
are exact, so a tie in one run is a tie in any replay of it, and ties
break FIFO by sequence number.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import trace as obs
from repro.obs.trace import Tracer

#: Compaction floor: below this many cancelled entries the heap is left
#: alone (rebuilding a tiny heap costs more than skipping its entries).
_COMPACT_MIN_CANCELLED = 64


def to_ns(seconds: float) -> int:
    """``seconds`` as whole nanoseconds, to the nearest (halves up);
    NaN and the infinities raise :class:`SimulationError`."""
    try:
        return math.floor(seconds * 1e9 + 0.5)
    except (OverflowError, ValueError):
        raise SimulationError(
            f"simulated time must be finite, got {seconds}") from None


def to_seconds(ns: int) -> float:
    """A clock value (or a difference of two) in seconds."""
    return ns / 1e9


class Timer:
    """Handle to one scheduled event; ``cancel()`` makes it a no-op.

    Cancelling does no O(n) heap surgery: the entry stays queued and the
    dispatch loop skips it.  The owning simulator counts cancellations
    and rebuilds the heap without them once they exceed half its length,
    so cancel-heavy runs (the ARQ transport obsoletes a retransmission
    timer for every acknowledged item) keep a bounded queue.
    """

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: Optional["Simulator"] = None) -> None:
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the scheduled callback from ever running."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


#: Shared sentinel for the events :meth:`Simulator.schedule` queues.  No
#: handle to them ever escapes, so they cannot be cancelled and do not
#: need per-event Timer allocations.
_INTERNAL_TIMER = Timer()


class Simulator:
    """Deterministic event queue whose clock ``now`` and every time it
    takes are ``int`` nanoseconds.

    Pass a :class:`~repro.obs.trace.Tracer` to observe the kernel itself:
    every dispatched event becomes a ``sim_dispatch`` trace event stamped
    with the simulated clock.  The ``None`` default keeps the dispatch
    loop untouched.  Events emitted by hosted callbacks carry simulated
    time inside a :meth:`stamping` block.
    """

    __slots__ = ("now", "_queue", "_sequence", "_parked", "_cancelled",
                 "tracer")

    def __init__(self, *, tracer: Optional[Tracer] = None) -> None:
        self.now = 0
        self._queue: List[Tuple[int, int, Callable[[], None], Timer]] = []
        self._sequence = itertools.count()
        #: Hosts waiting for a callback to wake them (deadlock check).
        self._parked = 0
        #: Cancelled entries believed to be in the heap.  May overcount
        #: (cancelling an already-dispatched timer still bumps it) but
        #: compaction resets it to truth, so drift is self-correcting.
        self._cancelled = 0
        self.tracer = tracer

    @contextmanager
    def stamping(self, tracer: Optional[Tracer]) -> Iterator[None]:
        """Stamp ``tracer``'s events with this simulator's clock, in
        seconds, for the block, then give the tracer its previous clock
        back (on error too).  Without a tracer the block just runs."""
        if tracer is None:
            yield
            return
        previous = tracer.clock
        tracer.clock = lambda: self.now / 1e9
        try:
            yield
        finally:
            tracer.clock = previous

    # -- event scheduling ---------------------------------------------------------

    def call_at(self, time: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at absolute simulated ``time`` ns (FIFO within a tick).

        Returns a :class:`Timer` handle; cancelling it before the event
        dispatches suppresses the callback.  A time that is not an
        ``int``, or lies before ``now``, raises :class:`SimulationError`.
        """
        if time.__class__ is not int or time < self.now:
            self._reject(time)
        timer = Timer(self)
        heapq.heappush(self._queue, (time, next(self._sequence), fn, timer))
        return timer

    def call_after(self, delay: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` after ``delay`` simulated ns."""
        return self.call_at(self.now + delay, fn)

    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        """:meth:`call_at` without a handle: the event cannot be
        cancelled, so no :class:`Timer` is allocated for it.  It takes a
        sequence number exactly as :meth:`call_at` would, so swapping one
        for the other never reorders a run."""
        if time.__class__ is not int or time < self.now:
            self._reject(time)
        heapq.heappush(self._queue,
                       (time, next(self._sequence), fn, _INTERNAL_TIMER))

    def _reject(self, time: object) -> None:
        """Raise for an event time :meth:`call_at` cannot queue: one float
        would make ``now`` a float for the rest of the run."""
        if time.__class__ is not int:
            raise SimulationError(
                f"simulated time is int nanoseconds, got "
                f"{type(time).__name__} {time!r}; convert with to_ns")
        raise SimulationError(
            f"cannot schedule at {time} before now={self.now}")

    def _note_cancelled(self) -> None:
        """Count one cancellation; compact when the dead fraction is high."""
        self._cancelled = count = self._cancelled + 1
        if (count >= _COMPACT_MIN_CANCELLED
                and count * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (in place)."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

    # -- parking ---------------------------------------------------------------------

    def park(self) -> None:
        """Count one host as waiting for a callback to wake it.

        Pair every ``park()`` with one :meth:`unpark` when the wake-up
        runs.  A queue that drains while anything is parked can never
        wake it, so :meth:`run` raises instead of returning.
        """
        self._parked += 1

    def unpark(self) -> None:
        """A parked host was woken."""
        self._parked -= 1

    # -- execution ---------------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains (or past ``until``).

        Raises :class:`SimulationError` if hosts remain parked when the
        queue drains — a deadlock.  With ``until`` the clock always ends
        at ``max(now, until)`` when the queue drains first (simulated
        time passes even when nothing is scheduled), and the deadlock
        check still applies: a drained queue can never wake anything, no
        matter how much longer we would have run.  Stopping *early*
        (first pending event past ``until``) skips the check — the
        remaining events may well wake the parked hosts.
        Returns the final clock value.  A non-``int`` ``until`` raises
        :class:`SimulationError`.
        """
        if until is not None and until.__class__ is not int:
            self._reject(until)
        # The dispatch loop is the hottest code in every benchmark; it
        # aliases the queue (compaction rewrites it in place, so the
        # alias stays valid) and skips cancelled entries inline.  The
        # tracer is re-read per event — dispatched callbacks may attach
        # one mid-run — but with tracing off that is the only overhead.
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = queue[0]
            if entry[3].cancelled:
                pop(queue)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                return until
            pop(queue)
            self.now = time
            if self.tracer is not None:
                self.tracer.event(obs.SIM_DISPATCH, time=time / 1e9,
                                  pending=len(queue))
            entry[2]()
        if self._parked:
            raise SimulationError(
                f"simulation deadlocked with {self._parked} host(s) "
                f"parked at t={self.now} ns")
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._queue)
