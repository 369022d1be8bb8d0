"""Per-broker overload protection: watermarks, shedding, admission.

The flash-crowd failure mode (ROADMAP item 5) is not a crash — it is a
broker whose modeled CPU queue, NIC ledger and reliable outboxes grow
without bound until a heartbeat waits behind ten thousand video frames
and the mesh-healing machinery starves.  This module makes overload a
first-class, *observable* condition:

* :class:`OverloadController` reads the modeled pressure signals
  (``Cpu.queue_depth``, NIC queued bytes, aggregate outbox depth)
  through hysteresis watermarks into a NORMAL → DEGRADED → SHEDDING
  state machine.
* In DEGRADED the broker sheds BULK events (traces, archive); in
  SHEDDING it also sheds VIDEO and refuses new connects/subscribes with
  ``Busy(retry_after_s)``.  CONTROL is **never** shed and AUDIO is never
  shed in-broker (late audio is dropped at the RTP proxy edge instead),
  so degradation is graceful: the conference loses video before voice
  and never loses the control plane.

Determinism contract: the controller is a *pure observer* below its
watermarks.  It owns no timers, draws no randomness, and evaluates
pressure lazily at existing decision points through side-effect-free
signal reads — with the controller enabled but pressure under the
degraded marks, the simulation is bit-identical to a run without it.

Cost: in NORMAL, :meth:`OverloadController.should_shed` — asked on
every data-plane publish and forward — is one comparison per signal
against its degraded mark, copied from the frozen
:class:`ShedWatermarks`; only pressure runs the full hysteresis.
"""

from __future__ import annotations

from operator import ge, lt
from typing import Callable, Tuple

from repro.broker.event import (
    PRIORITY_AUDIO,
    PRIORITY_BULK,
    PRIORITY_CONTROL,
    PRIORITY_VIDEO,
)

#: Overload states, ordered by severity.  Exposed as a gauge
#: (``overload_state``) so telemetry samples and the fleet console's
#: per-broker rows show episodes.
NORMAL = 0
DEGRADED = 1
SHEDDING = 2

STATE_NAMES = ("normal", "degraded", "shedding")

#: Default ``Busy`` hint: how long a refused client should wait before
#: re-attempting admission.  Long enough to outlive a burst's queue
#: drain, short enough that a recovered broker refills quickly.
DEFAULT_RETRY_AFTER_S = 1.0


class ShedWatermarks:
    """Hysteresis watermarks over the three modeled pressure signals,
    and the ``Busy`` hint a refused client is given.

    Each signal has an *enter* mark per elevated state; a state is left
    only once every signal falls below ``clear_frac`` of the marks that
    entered it, so pressure oscillating around a mark cannot flap the
    state machine (and with it the shed decision) on every event.
    Frozen: a controller copies the marks when it is built.

    Defaults are sized *above* the repo's canonical headline workloads —
    a Figure-3 broker fanning one video packet out to 400 receivers
    enqueues ~400 CPU closures and ~0.5 MB of NIC backlog in one burst,
    and the capacity experiments push past 1000 audio clients — so a
    healthy broker at paper-claimed scale never trips them.  They catch
    *collapse* (minutes of modeled backlog), not load; deployments
    modeling smaller brokers should pass tighter marks, as
    ``benchmarks/bench_overload.py`` does.
    """

    __slots__ = ("cpu_degraded", "cpu_shedding", "nic_degraded_bytes",
                 "nic_shedding_bytes", "outbox_degraded", "outbox_shedding",
                 "clear_frac", "retry_after_s")

    def __init__(
        self,
        cpu_degraded: int = 4096,
        cpu_shedding: int = 16384,
        nic_degraded_bytes: int = 16 << 20,
        nic_shedding_bytes: int = 48 << 20,
        outbox_degraded: int = 1024,
        outbox_shedding: int = 4096,
        clear_frac: float = 0.5,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    ):
        if not 0.0 < clear_frac <= 1.0:
            raise ValueError("clear_frac must be in (0, 1]")
        for name, degraded, shedding in (
            ("cpu", cpu_degraded, cpu_shedding),
            ("nic", nic_degraded_bytes, nic_shedding_bytes),
            ("outbox", outbox_degraded, outbox_shedding),
        ):
            if degraded <= 0 or shedding < degraded:
                raise ValueError(
                    f"{name} watermarks must satisfy 0 < degraded <= shedding"
                )
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        for name, value in zip(self.__slots__, (
            cpu_degraded, cpu_shedding, nic_degraded_bytes, nic_shedding_bytes,
            outbox_degraded, outbox_shedding, clear_frac, retry_after_s,
        )):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ShedWatermarks is frozen: cannot set {name}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShedWatermarks) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class OverloadController:
    """The NORMAL → DEGRADED → SHEDDING state machine of one broker.

    Signals are caller-supplied zero-argument callables so the
    controller stays testable (the broker hands it bound methods: the
    side-effect-free ``Cpu.queue_depth`` / ``Nic.queued_bytes`` getters
    and its aggregate-outbox read).  All decisions are pull-based:
    callers invoke :meth:`should_shed` / :meth:`admit` at their existing
    decision points and the state refreshes inline — no timers, no RNG.
    """

    __slots__ = (
        "_cpu", "_nic", "_outbox", "_cpu_mark", "_nic_mark", "_outbox_mark",
        "_enter", "_clear", "retry_after_s", "state", "state_since",
        "overload_entries", "events_shed_by_class", "admissions_refused",
    )

    def __init__(
        self,
        signals: Tuple[Callable[[], int], ...],
        watermarks: ShedWatermarks,
    ):
        if len(signals) != 3:
            raise ValueError("signals must be (cpu_depth, nic_bytes, outbox_depth)")
        self._cpu, self._nic, self._outbox = signals
        w = watermarks
        degraded = (w.cpu_degraded, w.nic_degraded_bytes, w.outbox_degraded)
        shedding = (w.cpu_shedding, w.nic_shedding_bytes, w.outbox_shedding)
        self._cpu_mark, self._nic_mark, self._outbox_mark = degraded
        # Indexed by state: the marks that enter it, and the levels every
        # signal must fall below to leave it.
        self._enter = (None, degraded, shedding)
        self._clear = (None,) + tuple(
            tuple(mark * w.clear_frac for mark in marks)
            for marks in (degraded, shedding)
        )
        self.retry_after_s = w.retry_after_s
        self.state = NORMAL
        self.state_since = 0.0
        self.overload_entries = 0
        self.events_shed_by_class = [0, 0, 0, 0]
        self.admissions_refused = 0

    # ------------------------------------------------------ state machine

    def refresh(self, now: float) -> int:
        """Re-evaluate pressure and return the (possibly new) state.

        Escalation is immediate at the enter marks; de-escalation steps
        down one state at a time and only once *every* signal has fallen
        below ``clear_frac`` of the marks that entered the state.
        """
        state = self.state
        readings = (self._cpu(), self._nic(), self._outbox())
        if any(map(ge, readings, self._enter[SHEDDING])):
            level = SHEDDING
        elif any(map(ge, readings, self._enter[DEGRADED])):
            level = DEGRADED
        else:
            level = NORMAL
        if level > state:
            if state == NORMAL:
                self.overload_entries += 1
            self.state = level
            self.state_since = now
        elif state != NORMAL and all(map(lt, readings, self._clear[state])):
            self.state = state - 1
            self.state_since = now
        return self.state

    # --------------------------------------------------------- decisions

    def should_shed(self, priority: int, now: float) -> bool:
        """Shed decision for one data-plane event, lowest class first.

        DEGRADED sheds BULK; SHEDDING sheds BULK and VIDEO.  CONTROL and
        AUDIO always pass (AUDIO degrades only at the playout edge).
        """
        if priority <= PRIORITY_AUDIO:
            return False
        if (  # NORMAL, every signal below its degraded mark: nothing to do
            self.state == NORMAL
            and self._cpu() < self._cpu_mark
            and self._nic() < self._nic_mark
            and self._outbox() < self._outbox_mark
        ):
            return False
        state = self.refresh(now)
        if state == NORMAL:
            return False
        if priority >= PRIORITY_BULK or state == SHEDDING:
            self.events_shed_by_class[priority] += 1
            return True
        return False

    def admit(self, now: float) -> Tuple[bool, float]:
        """Admission decision for a new connect/subscribe/join.

        Returns ``(admitted, retry_after_s)``; ``retry_after_s`` is only
        meaningful when refused.  Only SHEDDING refuses — a DEGRADED
        broker still takes new work, it just sheds bulk.
        """
        if self.refresh(now) == SHEDDING:
            self.admissions_refused += 1
            return False, self.retry_after_s
        return True, 0.0

    # ------------------------------------------------------- observation

    @property
    def events_shed(self) -> int:
        return sum(self.events_shed_by_class)

    @property
    def events_shed_control(self) -> int:
        return self.events_shed_by_class[PRIORITY_CONTROL]

    @property
    def events_shed_audio(self) -> int:
        return self.events_shed_by_class[PRIORITY_AUDIO]

    @property
    def events_shed_video(self) -> int:
        return self.events_shed_by_class[PRIORITY_VIDEO]

    @property
    def events_shed_bulk(self) -> int:
        return self.events_shed_by_class[PRIORITY_BULK]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OverloadController {STATE_NAMES[self.state]} "
            f"shed={self.events_shed} refused={self.admissions_refused}>"
        )
