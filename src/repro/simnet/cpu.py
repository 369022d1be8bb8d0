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

Completions in place: a completion that is provably the kernel's next
event runs where it would have been posted, at the same ``now + cost``
time: it is due by ``Simulator._until`` (the end of a ``run()`` without
``max_events``, else -inf) and strictly before the heap head (a ghost
counts).  ``Host.deliver`` applies the rule to a receive on an idle CPU,
:meth:`Cpu._complete` to the job behind one and to a train's boundaries.

Trains: :meth:`Cpu.execute_train` queues a run of equal-cost items as one
job.  When the job reaches the server, its items run in one kernel event,
item *k* with ``sim.now`` set to ``t_k = t_{k-1} + cost``, the time its own
completion event would have had, while ``t_k`` lies before
:meth:`Simulator.horizon` (the next timer or the end of the run) and for
at most a quarter of the collector's young-generation threshold in items;
past either bound the train resumes at ``t_k``, as an event or in place.
The last item completes on its own, so what queued behind the train is
served from ``t_N`` on.  Counters, the busy clock and
:attr:`Cpu.queue_depth` read exactly as with one event per item;
DESIGN.md §7 states what a train item may do.

Ties: a train reserves a block of kernel ``seq`` numbers when it is
queued, and what its items post (their sends, each next item's
completion) takes its ``seq`` from that block.  Among entries due at the
same instant, a train's sort as they would had they been posted when it
was queued, however many items a batch ran ahead, so ``run()`` and
``step()`` order them alike.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.simnet.kernel import SimulationError, Simulator

#: Kernel ``seq`` numbers a train reserves per item: its sends' arrivals
#: and the next item's completion (DESIGN.md §7, "Ties").
_SEQS_PER_ITEM = 64


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
    the current time (still deterministic ordering); a receive on an idle
    CPU (``Host.deliver``) completes in place when nothing else is due by
    then.

    Queue entries are ``(cost, fn, args)``, or ``(cost, None, train)``
    for a train: a list ``[cost, args, seq, end, fn_N, ..., fn_1]`` of
    items that share their cost and arguments, popped from the end as
    they run; ``seq`` is the next number of its reserved block, ``end``
    the first past it.  The queue is made on the first item that waits
    (``None`` until then): most hosts' CPUs never queue.
    """

    # ``__dict__`` only for tests that wrap a method on one CPU; CPython
    # makes it when something is stored there.
    __slots__ = (
        "sim",
        "name",
        "gc_profile",
        "_queue",
        "_backlog",
        "_busy",
        "_allocated_since_gc",
        "busy_time",
        "gc_pauses",
        "gc_pause_time",
        "tasks_executed",
        "__dict__",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        gc_profile: Optional[GcProfile] = None,
    ):
        self.sim = sim
        self.name = name
        self.gc_profile = gc_profile
        self._queue: Optional[
            Deque[Tuple[float, Optional[Callable[..., Any]], Any]]
        ] = None
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
        queue = self._queue
        return (len(queue) if queue is not None else 0) + self._backlog

    def execute(self, cost_s: float, fn: Callable[..., Any], *args: Any) -> None:
        """Queue a work item needing ``cost_s`` seconds of CPU; run
        ``fn(*args)`` when it completes."""
        if cost_s < 0:
            raise ValueError(f"negative CPU cost {cost_s}")
        if self._busy:
            queue = self._queue
            if queue is None:
                queue = self._queue = deque()
            queue.append((cost_s, fn, args))
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
            sim = self.sim
            seq = sim._next_seq
            end = sim._next_seq = seq + len(fns) * _SEQS_PER_ITEM
            args = [cost_s, args, seq, end, *reversed(fns)]  # the train
            self._backlog += len(fns) - 1
        if self._busy:
            queue = self._queue
            if queue is None:
                queue = self._queue = deque()
            queue.append((cost_s, fn, args))
        else:
            self._busy = True
            self.busy_time += cost_s
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

    def _complete(self, fn: Optional[Callable[..., Any]], args: Any) -> None:
        """Job ``fn(*args)`` completes now (``fn`` None: the next item of
        the train ``args`` does; ``args`` None too: the job ran already).
        Run it, then serve the job queued behind it.  Each next completion
        that is provably the kernel's next event (the module docstring's
        rule) runs here, in place; the first that is not is posted."""
        sim = self.sim
        while True:
            if fn is None and args is not None:
                train = args
                due = self._run_train(train)
                if len(train) == 5:  # the last item completes as a job
                    fn, args = train[4], train[1]
            else:
                if fn is not None:
                    self.tasks_executed += 1
                    fn(*args)
                queue = self._queue
                if not queue:
                    self._busy = False
                    return
                cost_s, fn, args = queue.popleft()
                self.busy_time += cost_s
                due = sim.now + cost_s
                train = None
            heap = sim._queue
            if due <= sim._until and (not heap or due < heap[0][0]):
                sim.now = due
                continue
            if train is None:
                seq = sim._next_seq
                sim._next_seq = seq + 1
            else:  # the train's next item: from its block
                seq = train[2]
                train[2] = seq + 1
            heappush(heap, [due, seq, self._complete, (fn, args)])
            return

    def _run_train(self, train: list) -> float:
        """The next item of ``train`` — ``[cost, args, seq, end, fn_N,
        ..., fn_k]``, popped from the end — completes now.  Run it and the
        items after it that complete before the horizon, each at its own
        completion time, short of the last item, posting from the train's
        block; return when the next one completes."""
        cost_s, args = train[0], train[1]
        sim = self.sim
        start = now = sim.now
        horizon = sim.horizon()
        next_seq, sim._next_seq = sim._next_seq, train[2]
        # What an item sends lives until it lands (a datagram, its kernel
        # entry and the entry's args): a batch that outgrows the young
        # generation has them promoted wholesale, which costs the collector
        # more than the batch saves the kernel.
        batch = max(1, gc.get_threshold()[0] // 4)
        limit = left = min(batch, len(train) - 5)  # short of the last item
        busy_time = self.busy_time
        while True:
            # Popping the item as it runs drops the train's reference: what
            # it sends then does not pile up on top of the train for the GC.
            train.pop()(*args)
            left -= 1
            busy_time += cost_s
            due = now + cost_s
            if not left or due >= horizon:
                break
            sim.now = now = due
        ran = limit - left
        # Items never read this CPU, so its tallies can be written once.
        self.busy_time = busy_time
        self.tasks_executed += ran
        self._backlog -= ran
        sim.now = start
        seq, sim._next_seq = sim._next_seq, next_seq
        if seq >= train[3]:  # room must be left for the next completion
            raise SimulationError(
                f"train items posted over {_SEQS_PER_ITEM} entries each"
            )
        train[2] = seq
        return due

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cpu {self.name} depth={self.queue_depth} busy={self._busy}>"
