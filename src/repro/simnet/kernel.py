"""Discrete-event simulation kernel.

A single :class:`Simulator` owns virtual time and a priority queue of
scheduled callbacks.  All components in the reproduction (NICs, CPUs,
protocol timers, media sources) schedule work through it, which makes every
experiment fully deterministic for a given seed.

Performance notes (the kernel is the hottest code in the repo — a Figure-3
run, 400 receivers, executes ~830 kernel events per media packet):

* Heap entries are 4-slot lists ``[time, seq, fn, args]`` that ``heapq``
  orders with the C-level list comparison — ``time`` then the unique
  ``seq`` — so no Python ``__lt__`` frame is ever entered.  ``schedule()``
  pushes a :class:`Timer` (a ``list`` subclass with ``cancel()``);
  ``post()`` pushes a plain list for callers that discard the handle.
  One heap, one order and one dispatch loop serve both.
* ``Host.send``, ``Host.deliver`` and ``Cpu._complete`` push plain
  entries themselves, taking the next ``seq`` as ``post()`` does.  A CPU
  train points ``_next_seq`` into a block it reserved when queued while
  its items run (``simnet/cpu.py``, "Ties").
* ``schedule()`` is self-contained (no delegation) and stores ``args=None``
  for the dominant zero-arg case so the dispatch loop can call ``fn()``
  directly without ``*()`` unboxing.
* ``now`` is a plain slot attribute: a property cost a Python frame per
  read, several reads per packet.  Only the kernel and the in-place
  completions (below) write it.
* ``run()`` pops first; an entry past ``until`` goes back with its own
  ``seq``.  ``max_events`` dispatches through :meth:`Simulator.step`.
* Cancelled timers null their callback slot in place (O(1)) and the heap is
  compacted when ghosts exceed half the queue — unbounded ghost growth from
  heartbeat-heavy workloads was a real leak (see ``heap_compactions``).
* Every :class:`Timer` is also kept in a second heap so :meth:`horizon`
  can say when the next one is due; a CPU train runs its items ahead of
  the clock only up to there (``simnet/cpu.py``, DESIGN.md §7).
* A CPU completion that is provably the next event runs in place,
  uncounted (``simnet/cpu.py``); ``_until`` is what it needs to know.

:meth:`Simulator.step` is the plain one-event-at-a-time dispatch, and it
never looks ahead: no train batch, no completion in place.  The kernel
tests drain seeded schedules through it and through ``run()`` and require
the same firing order; ``tests/simnet/test_cpu.py`` does the same with
CPU work.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

#: Compaction only considers queues at least this large; tiny queues are
#: cheap to drain lazily and compacting them would just add churn.
_COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Timer(list):
    """A cancellable handle for a scheduled callback.

    The timer *is* its own heap entry: a 4-slot list ``[time, seq, fn,
    args]`` ordered by ``(time, seq)`` via C list comparison, so events
    scheduled for the same instant fire in scheduling order — important
    for determinism — without a Python-level ``__lt__``.

    A fired or cancelled timer has ``self[2] is None``; the distinction
    does not matter to callers (``cancel()`` is idempotent and a no-op
    after firing).  Firing and cancelling both drop the arguments, so a
    timer still sitting in the kernel's horizon heap keeps nothing alive.
    """

    __slots__ = ("sim",)

    # No __init__: the hot path constructs ``Timer((time, seq, fn, args))``
    # through the inherited C-level list constructor and assigns ``sim``
    # afterwards, avoiding a Python frame per scheduled event.

    # Read-only views for tests; neither is on a hot path.
    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); the ghost heap entry is
        discarded lazily, or eagerly when ghosts dominate the queue)."""
        if self[2] is None:
            return
        self[2] = None
        self[3] = None
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "armed"
        return f"<Timer t={self[0]:.6f} {getattr(self[2], '__name__', self[2])} {state}>"


class Simulator:
    """Event-driven virtual-time scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, fire_probe)
        sim.run(until=10.0)
    """

    __slots__ = (
        "_queue",
        "_timers",
        "_until",
        "_next_seq",
        "now",
        "_events_processed",
        "_ghosts",
        "timers_cancelled",
        "heap_compactions",
        "ghost_timers_collected",
    )

    def __init__(self) -> None:
        self._queue: List[list] = []  # Timers and plain post() entries
        self._timers: List[Timer] = []  # every Timer again, for horizon()
        # How far the current dispatch may look ahead: the current run()'s
        # end; -inf outside run(), in step() and in run(max_events=).
        self._until = -math.inf
        self._next_seq = 0
        self.now = 0.0  # current virtual time in seconds
        self._events_processed = 0
        self._ghosts = 0  # cancelled timers still sitting in the heap
        self.timers_cancelled = 0
        self.heap_compactions = 0
        self.ghost_timers_collected = 0

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (a :meth:`run` in
        progress adds its own when it returns)."""
        return self._events_processed

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = Timer((self.now + delay, seq, fn, args if args else None))
        timer.sim = self
        heapq.heappush(self._queue, timer)
        self._note_timer(timer)
        return timer

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}; current time is {self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = Timer((time, seq, fn, args if args else None))
        timer.sim = self
        heapq.heappush(self._queue, timer)
        self._note_timer(timer)
        return timer

    def schedule_reserved(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> Timer:
        """Schedule ``fn(*args)`` at ``time`` in the place ``seq`` holds
        among the events of that instant.  ``seq`` was reserved earlier
        (``seq = sim._next_seq; sim._next_seq = seq + 1``), so the callback
        runs exactly where a timer scheduled at that moment would have:
        a protocol keeping many deadlines behind one timer arms it for
        the earliest with that deadline's own reservation."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}; current time is {self.now}"
            )
        timer = Timer((time, seq, fn, args if args else None))
        timer.sim = self
        heapq.heappush(self._queue, timer)
        self._note_timer(timer)
        return timer

    def post(
        self, delay: float, fn: Callable[..., Any], args: Optional[tuple] = None
    ) -> None:
        """Handle-free :meth:`schedule`: run ``fn(*args)`` ``delay`` seconds
        from now, with nothing to cancel.  For callers that would discard
        the :class:`Timer`; ``args`` is a ready tuple (or None)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, [self.now + delay, seq, fn, args])

    def _note_timer(self, timer: Timer) -> None:
        timers = self._timers
        heapq.heappush(timers, timer)
        while timers[0][2] is None:  # fired or cancelled: drop from the top
            heapq.heappop(timers)

    def horizon(self) -> float:
        """Virtual time before which only posted work can run: the earliest
        armed :class:`Timer`, or the end of the current :meth:`run` (-inf
        outside one, in :meth:`step` and under ``max_events``).
        Posted entries are deliveries and CPU completions, which act on
        their own host only; timers are how anything else happens."""
        timers = self._timers
        while timers and timers[0][2] is None:
            heapq.heappop(timers)
        if timers and timers[0][0] < self._until:
            return timers[0][0]
        return self._until

    def pending(self) -> int:
        """Number of queued (possibly cancelled) timers."""
        return len(self._queue)

    def step(self, until: float = math.inf) -> bool:
        """Execute the next pending event if it is due by ``until``;
        False when there is none.  Nothing looks ahead of the event (the
        horizon is -inf): a CPU train advances one item per step and no
        completion runs in place, exactly as with one event per item."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            time, _seq, fn, args = entry
            if fn is None:
                self._ghosts -= 1
                continue
            if time > until:
                heapq.heappush(queue, entry)  # its own seq: order unchanged
                return False
            entry[2] = entry[3] = None  # a fired Timer reads as fired
            self.now = time
            self._events_processed += 1
            outer_until, self._until = self._until, -math.inf
            if args is None:
                fn()
            else:
                fn(*args)
            self._until = outer_until
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed (through :meth:`step`, nothing
        ahead of the clock).  Returns the number executed.

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` even if the queue drains earlier (unless ``max_events``
        stopped the run with events still queued).
        """
        end = math.inf if until is None else until
        executed = 0
        if max_events is not None:
            for _ in range(max_events):
                if not self.step(end):
                    break
                executed += 1
            else:
                if self._queue:
                    return executed
        else:
            queue = self._queue
            heappop = heapq.heappop
            outer_until, self._until = self._until, end
            try:
                while queue:
                    entry = heappop(queue)
                    time, _seq, fn, args = entry
                    if fn is None:
                        self._ghosts -= 1
                        continue
                    if time > end:
                        heapq.heappush(queue, entry)  # its own seq: same order
                        break
                    entry[2] = entry[3] = None  # a fired Timer reads as fired
                    self.now = time
                    executed += 1
                    if args is None:
                        fn()
                    else:
                        fn(*args)
            finally:
                self._events_processed += executed
                self._until = outer_until
        if until is not None and until > self.now:
            self.now = until
        return executed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` seconds of virtual time."""
        return self.run(until=self.now + duration, max_events=max_events)

    # ----------------------------------------------------- ghost handling

    def _note_cancel(self) -> None:
        """Called by :meth:`Timer.cancel`; compacts the heap when cancelled
        ghosts exceed half the queue (the PR-3/PR-5 soak leak)."""
        self.timers_cancelled += 1
        ghosts = self._ghosts + 1
        self._ghosts = ghosts
        if ghosts * 2 > len(self._queue) >= _COMPACT_MIN_QUEUE:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place so an active
        ``run()`` loop keeps draining the same list object."""
        queue = self._queue
        live = [entry for entry in queue if entry[2] is not None]
        self.ghost_timers_collected += len(queue) - len(live)
        heapq.heapify(live)
        queue[:] = live
        timers = [timer for timer in self._timers if timer[2] is not None]
        heapq.heapify(timers)
        self._timers = timers
        self._ghosts = 0
        self.heap_compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._queue)}>"
