"""Host CPU model: a single FIFO server with garbage-collection pauses.

Why this exists: in the paper's Figure 3 experiment the measured delay and
jitter are dominated by software costs — per-receiver send overhead in the
reflector, receive-stack processing on the (shared) client machine, and
JVM garbage-collection pauses.  We model a host CPU as a non-preemptive
single server: work items queue and execute in order, each occupying the
CPU for its service time.

Garbage collection: components account allocations via :meth:`Cpu.allocate`.
When cumulative allocation crosses the young-generation budget the CPU takes
a stop-the-world pause whose duration scales with the live heap — this is
what produces the spiky jitter traces of the JMF baseline.

Trains: :meth:`Cpu.execute_train` queues a run of equal-cost items as one
job.  When the job reaches the server, its items run in one kernel event,
item *k* with ``sim.now`` set to ``t_k = t_{k-1} + cost``, the time its own
completion event would have had, while ``t_k`` lies before
:meth:`Simulator.horizon` (the next timer or the end of the run) and for
at most a quarter of the collector's young-generation threshold in items;
past either bound the train resumes as an event at ``t_k``.  The last item
completes as an ordinary event, so what queued behind the train is served
from ``t_N`` on.  Counters, the busy clock and :attr:`Cpu.queue_depth` read
exactly as with one event per item; DESIGN.md §7 states what a train item
may do.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.simnet.kernel import Simulator


@dataclass(frozen=True)
class GcProfile:
    """Garbage-collector behaviour for a simulated JVM-style runtime.

    Attributes:
        young_gen_bytes: allocation budget between collections.
        base_pause_s: minimum stop-the-world pause.
        pause_per_mb_s: additional pause per MiB reclaimed.
        max_pause_s: hard cap on a single pause.
    """

    young_gen_bytes: int = 32 * 1024 * 1024
    base_pause_s: float = 0.004
    pause_per_mb_s: float = 0.0008
    max_pause_s: float = 0.250

    def pause_for(self, reclaimed_bytes: int) -> float:
        pause = self.base_pause_s + self.pause_per_mb_s * (
            reclaimed_bytes / (1024.0 * 1024.0)
        )
        return min(pause, self.max_pause_s)


class Cpu:
    """Non-preemptive FIFO CPU with optional GC pauses.

    ``execute(cost, fn, *args)`` queues a work item; ``fn`` runs when the
    item *finishes* service, i.e. the callback observes queueing + service
    delay.  Zero-cost items on an idle CPU run via the simulator queue at
    the current time (still deterministic ordering).

    Queue entries are ``(cost, fn, args)``, or ``(cost, None, train)``
    for a train: a list ``[cost, args, fn, fn, ...]`` of items that share
    their cost and arguments.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        gc_profile: Optional[GcProfile] = None,
    ):
        self.sim = sim
        self.name = name
        self.gc_profile = gc_profile
        self._queue: Deque[Tuple[float, Optional[Callable[..., Any]], Any]] = deque()
        #: Queued train items beyond the one queue entry each train takes.
        self._backlog = 0
        self._busy = False
        self._allocated_since_gc = 0
        self.busy_time = 0.0
        self.gc_pauses = 0
        self.gc_pause_time = 0.0
        self.tasks_executed = 0

    @property
    def queue_depth(self) -> int:
        """Work items waiting for the server, train items counted singly."""
        return len(self._queue) + self._backlog

    def execute(self, cost_s: float, fn: Callable[..., Any], *args: Any) -> None:
        """Queue a work item needing ``cost_s`` seconds of CPU; run
        ``fn(*args)`` when it completes."""
        if cost_s < 0:
            raise ValueError(f"negative CPU cost {cost_s}")
        if self._busy:
            self._queue.append((cost_s, fn, args))
        else:
            # Idle fast path: enter service immediately without touching
            # the deque — the dominant case in steady-state fan-out.
            self._busy = True
            self.busy_time += cost_s
            self.sim.post(cost_s, self._complete, (fn, args))

    def execute_train(
        self,
        cost_s: float,
        fns: List[Callable[..., Any]],
        args: tuple,
        alloc_bytes: int = 0,
    ) -> None:
        """Queue ``fn(*args)`` for each of ``fns``, each costing ``cost_s``
        and preceded by ``allocate(alloc_bytes)`` — what one :meth:`execute`
        per function would do — as one job.  For work that only sends
        datagrams from this host: a function must not queue CPU work, arm
        a timer or reach another host's state.  A GC pause an allocation
        trips is queued ahead of its item, splitting the job there."""
        if cost_s < 0:
            raise ValueError(f"negative CPU cost {cost_s}")
        gc_profile = self.gc_profile
        if gc_profile is not None and alloc_bytes > 0:
            allocated = self._allocated_since_gc + len(fns) * alloc_bytes
            if allocated >= gc_profile.young_gen_bytes:
                self._split_at_pause(cost_s, fns, args, alloc_bytes)
                return
            self._allocated_since_gc = allocated
        if len(fns) == 1:  # one item is just an item
            fn = fns[0]
        else:
            fn = None
            args = [cost_s, args, *fns]  # the train, in place of its args
            self._backlog += len(fns) - 1
        if self._busy:
            self._queue.append((cost_s, fn, args))
        else:
            self._busy = True
            self.busy_time += cost_s
            if fn is None:
                self.sim.post(cost_s, self._run_train, (args, 2))
            else:
                self.sim.post(cost_s, self._complete, (fn, args))

    def _split_at_pause(
        self,
        cost_s: float,
        fns: List[Callable[..., Any]],
        args: tuple,
        alloc_bytes: int,
    ) -> None:
        """:meth:`execute_train` for ``fns`` whose allocations trip the
        collector: the item that trips it queues behind its pause."""
        room = self.gc_profile.young_gen_bytes - self._allocated_since_gc
        quiet = max(0, (room - 1) // alloc_bytes)  # items before the trip
        if quiet:
            self.execute_train(cost_s, fns[:quiet], args, alloc_bytes)
        self.allocate(alloc_bytes)  # trips: queues the pause
        self.execute_train(cost_s, fns[quiet:quiet + 1], args)
        if len(fns) > quiet + 1:
            self.execute_train(cost_s, fns[quiet + 1:], args, alloc_bytes)

    def execute_traced(
        self, cost_s: float, fn: Callable[..., Any], *args: Any, hop: Any
    ) -> None:
        """Like :meth:`execute`, but attribute the work to a trace hop.

        When the item completes, ``hop.cpu_s`` gains the service time and
        ``hop.queue_wait_s`` gains everything else that elapsed since the
        enqueue — FIFO queueing behind other work *and* any stop-the-world
        GC pauses the item sat through.  The wrapper only exists on the
        sampled path; untraced work keeps calling :meth:`execute`.
        """
        enqueued_at = self.sim.now

        def charged(*inner_args: Any) -> None:
            hop.cpu_s += cost_s
            hop.queue_wait_s += max(
                0.0, self.sim.now - enqueued_at - cost_s
            )
            fn(*inner_args)

        self.execute(cost_s, charged, *args)

    def allocate(self, nbytes: int) -> None:
        """Account a heap allocation; may trigger a GC pause.

        The pause is queued as a CPU work item, so everything behind it in
        the queue is delayed — the stop-the-world effect.
        """
        if self.gc_profile is None or nbytes <= 0:
            return
        self._allocated_since_gc += nbytes
        if self._allocated_since_gc >= self.gc_profile.young_gen_bytes:
            reclaimed = self._allocated_since_gc
            self._allocated_since_gc = 0
            pause = self.gc_profile.pause_for(reclaimed)
            self.gc_pauses += 1
            self.gc_pause_time += pause
            self.execute(pause, lambda: None)

    def _complete(self, fn: Callable[..., Any], args: tuple) -> None:
        self.tasks_executed += 1
        fn(*args)
        queue = self._queue
        if queue:
            cost_s, next_fn, next_args = queue.popleft()
            self.busy_time += cost_s
            if next_fn is None:  # a train
                self.sim.post(cost_s, self._run_train, (next_args, 2))
            else:
                self.sim.post(cost_s, self._complete, (next_fn, next_args))
        else:
            self._busy = False

    def _run_train(self, train: list, i: int) -> None:
        """Item ``train[i]`` of ``[cost, args, fn, fn, ...]`` completes
        now; run the items after it that complete before the horizon, each
        at its own completion time, and post the first one that does not."""
        last = len(train) - 1
        args = train[1]
        if i == last:
            self._complete(train[i], args)
            return
        cost_s = train[0]
        sim = self.sim
        start = now = sim.now
        horizon = sim.horizon()
        # What an item sends lives until it lands (a datagram, its kernel
        # entry and the entry's args): a batch that outgrows the young
        # generation has them promoted wholesale, which costs the collector
        # more than the batch saves the kernel.
        stop = min(last, i + max(1, gc.get_threshold()[0] // 4))
        begun = i
        busy_time = self.busy_time
        while True:
            fn = train[i]
            # Drop the train's reference as the item runs: what it sends
            # then does not pile up on top of the train for the GC.
            train[i] = None
            fn(*args)
            i += 1
            busy_time += cost_s
            due = now + cost_s
            if i == stop or due >= horizon:
                break
            sim.now = now = due
        # Items never read this CPU, so its tallies can be written once.
        self.busy_time = busy_time
        self.tasks_executed += i - begun
        self._backlog -= i - begun
        # sim.now is the previous item's time, so the entry lands at ``due``.
        if i == last:
            sim.post(cost_s, self._complete, (train[i], args))
        else:
            sim.post(cost_s, self._run_train, (train, i))
        sim.now = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cpu {self.name} depth={self.queue_depth} busy={self._busy}>"
