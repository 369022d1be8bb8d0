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
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

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
        self._queue: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()
        self._busy = False
        self._allocated_since_gc = 0
        self.busy_time = 0.0
        self.gc_pauses = 0
        self.gc_pause_time = 0.0
        self.tasks_executed = 0

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

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
            self.sim.post(cost_s, self._complete, (next_fn, next_args))
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cpu {self.name} depth={len(self._queue)} busy={self._busy}>"
