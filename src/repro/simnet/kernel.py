"""Discrete-event simulation kernel.

A single :class:`Simulator` owns virtual time and a priority queue of
scheduled callbacks.  All components in the reproduction (NICs, CPUs,
protocol timers, media sources) schedule work through it, which makes every
experiment fully deterministic for a given seed.

Performance notes (the kernel is the hottest code in the repo — a Figure-3
run executes ~1700 kernel events per media packet):

* Heap entries are 4-slot lists ``[time, seq, fn, args]`` that ``heapq``
  orders with the C-level list comparison — ``time`` then the unique
  ``seq`` — so no Python ``__lt__`` frame is ever entered.  ``schedule()``
  pushes a :class:`Timer` (a ``list`` subclass with ``cancel()``);
  ``post()`` pushes a plain list for callers that discard the handle.
  One heap, one order and one dispatch loop serve both.
* ``schedule()`` is self-contained (no delegation) and stores ``args=None``
  for the dominant zero-arg case so the dispatch loop can call ``fn()``
  directly without ``*()`` unboxing.
* ``now`` is a plain slot attribute: a property cost a Python frame per
  read, several reads per packet.  Only the kernel writes it.
* ``run()`` is a batched drain: ``heappop``/queue/locals are hoisted once
  per call instead of resolved per event.
* Cancelled timers null their callback slot in place (O(1)) and the heap is
  compacted when ghosts exceed half the queue — unbounded ghost growth from
  heartbeat-heavy workloads was a real leak (see ``heap_compactions``).
* Every :class:`Timer` is also kept in a second heap so :meth:`horizon`
  can say when the next one is due; a CPU train runs its items ahead of
  the clock only up to there (``simnet/cpu.py``, DESIGN.md §7).

:meth:`Simulator.step` is the plain one-event-at-a-time dispatch; the
kernel tests drain seeded schedules through it and through ``run()`` and
require the same firing order.
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
    after firing) and nulling the slots releases callback/arg references
    promptly.
    """

    __slots__ = ("sim",)

    # No __init__: the hot path constructs ``Timer((time, seq, fn, args))``
    # through the inherited C-level list constructor and assigns ``sim``
    # afterwards, avoiding a Python frame per scheduled event.

    # Read-only views kept for API compatibility; none are on a hot path.
    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def fn(self) -> Optional[Callable[..., Any]]:
        return self[2]

    @property
    def args(self) -> tuple:
        return self[3] if self[3] is not None else ()

    @property
    def cancelled(self) -> bool:
        return self[2] is None

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
        self._until = math.inf  # the current run()'s end
        self._next_seq = 0
        self.now = 0.0  # current virtual time in seconds
        self._events_processed = 0
        self._ghosts = 0  # cancelled timers still sitting in the heap
        self.timers_cancelled = 0
        self.heap_compactions = 0
        self.ghost_timers_collected = 0

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
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
        armed :class:`Timer`, or the end of the current :meth:`run`.
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

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle.

        The event is also the horizon, so a CPU train advances one item
        per step, exactly as with one event per item."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            fn = entry[2]
            if fn is None:
                self._ghosts -= 1
                continue
            args = entry[3]
            entry[2] = None
            entry[3] = None
            self.now = entry[0]
            self._events_processed += 1
            outer_until, self._until = self._until, entry[0]
            if args is None:
                fn()
            else:
                fn(*args)
            self._until = outer_until
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number executed.

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` even if the queue drains earlier.
        """
        queue = self._queue
        heappop = heapq.heappop
        limit = -1 if max_events is None else max_events
        executed = 0
        ep = self._events_processed
        outer_until = self._until
        self._until = math.inf if until is None else until
        while queue:
            if executed == limit:
                self._until = outer_until
                return executed
            entry = queue[0]
            fn = entry[2]
            if fn is None:
                heappop(queue)
                self._ghosts -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(queue)
            args = entry[3]
            entry[2] = None
            entry[3] = None
            self.now = time
            ep += 1
            self._events_processed = ep
            if args is None:
                fn()
            else:
                fn(*args)
            executed += 1
            ep = self._events_processed  # callbacks may step()/run() reentrantly
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
