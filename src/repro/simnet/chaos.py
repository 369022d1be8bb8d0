"""Chaos injection for broker-mesh soaks.

The paper's substrate is a *"dynamic collection of brokers"* expected to
keep A/V sessions alive across hostile WANs.  A :class:`ChaosSchedule`
scripts that hostility against a running simulation: timed link flaps,
loss bursts, network partitions, and un-announced broker crash/restart —
all deterministic for a given seed, so a chaos soak is as reproducible as
any other experiment on the kernel.

The schedule drives mechanisms owned elsewhere: path blackholing lives on
:class:`repro.simnet.network.Network`, link profiles on hosts, and the
broker-level operations (``cut_link`` / ``restore_link`` / ``partition``
/ ``heal`` / ``crash_broker`` / ``restart_broker``) on the broker-network
object passed in.  The object is duck-typed on purpose — ``simnet`` does
not import the broker package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class ChaosEvent:
    """One injected fault, recorded at the instant it fired."""

    at: float
    kind: str
    detail: str


class ChaosSchedule:
    """Timed fault injection against a broker network.

    All ``at`` times are absolute virtual times.  Faults are injected
    silently — no broker or client is told anything; detection and repair
    are the system's job.  Every fired fault is appended to :attr:`log`.
    """

    def __init__(self, broker_network: Any, seed: int = 0):
        self.bnet = broker_network
        self.network = broker_network.network
        self.sim = self.network.sim
        self.rng = random.Random(seed)
        self.log: List[ChaosEvent] = []
        #: host -> (pristine link, loss rates of its active bursts)
        self._loss_bursts: Dict[str, Tuple[Any, List[float]]] = {}

    def _fire(self, kind: str, detail: str, action, *args) -> None:
        action(*args)
        self.log.append(ChaosEvent(self.sim.now, kind, detail))

    # ------------------------------------------------------------- links

    def cut_link(self, at: float, a: str, b: str) -> None:
        """Blackhole the peer path between brokers ``a`` and ``b`` at ``at``."""
        self.sim.schedule_at(
            at, self._fire, "cut-link", f"{a}<->{b}", self.bnet.cut_link, a, b
        )

    def restore_link(self, at: float, a: str, b: str) -> None:
        self.sim.schedule_at(
            at, self._fire, "restore-link", f"{a}<->{b}",
            self.bnet.restore_link, a, b,
        )

    def link_flap(self, at: float, a: str, b: str, down_for: float) -> None:
        """Cut a link at ``at`` and restore it ``down_for`` seconds later."""
        self.cut_link(at, a, b)
        self.restore_link(at + down_for, a, b)

    def random_link_flaps(
        self,
        edges: Sequence[Tuple[str, str]],
        between: Tuple[float, float],
        count: int,
        down_for: Tuple[float, float],
    ) -> None:
        """Schedule ``count`` flaps on random edges at seeded-random times."""
        edges = list(edges)
        start, end = between
        for _ in range(count):
            a, b = self.rng.choice(edges)
            at = self.rng.uniform(start, end)
            duration = self.rng.uniform(*down_for)
            self.link_flap(at, a, b, duration)

    # -------------------------------------------------------- partitions

    def partition(
        self,
        at: float,
        groups: Sequence[Iterable[str]],
        heal_after: Optional[float] = None,
    ) -> None:
        """Split the mesh into ``groups`` at ``at``; optionally heal later."""
        sides = [sorted(group) for group in groups]
        detail = " | ".join(",".join(side) for side in sides)
        self.sim.schedule_at(
            at, self._fire, "partition", detail, self.bnet.partition, sides
        )
        if heal_after is not None:
            self.heal(at + heal_after)

    def partition_regions(
        self,
        at: float,
        *regions: str,
        heal_after: Optional[float] = None,
    ) -> None:
        """Blackhole every inter-region path at ``at`` as one fault.

        One region named → it is cut off from every other region (the
        transoceanic-isolation scenario); several → every pair among them
        is cut.  Intra-region paths keep working.  Today's alternative —
        hand-assembling one ``cut_link`` per crossing pair — scales as
        the product of the region sizes; this is one schedulable fault,
        restored wholesale by :meth:`heal`.
        """
        detail = " | ".join(regions)
        self.sim.schedule_at(
            at, self._fire, "partition-regions", detail,
            self.bnet.partition_regions, *regions,
        )
        if heal_after is not None:
            self.heal(at + heal_after)

    def heal(self, at: float) -> None:
        """Restore every link and region cut the network currently has."""
        self.sim.schedule_at(at, self._fire, "heal", "all cut links",
                             self.bnet.heal)

    # ----------------------------------------------------------- brokers

    def crash_broker(
        self, at: float, name: str, restart_after: Optional[float] = None
    ) -> None:
        """Un-announced broker kill at ``at``; optionally restart later."""
        self.sim.schedule_at(
            at, self._fire, "crash", name, self.bnet.crash_broker, name
        )
        if restart_after is not None:
            self.sim.schedule_at(
                at + restart_after, self._fire, "restart", name,
                self.bnet.restart_broker, name,
            )

    # ----------------------------------------------------------- services

    def kill_service(self, at: float, name: str, action: Any) -> None:
        """Un-announced kill of an application-layer service at ``at``.

        ``action`` is the service's silent-death callable (e.g. an XGSP
        session server's ``crash``) — the schedule stays duck-typed, same
        as for the broker network.  Used for mid-conference session-server
        kills in the control-plane failover soaks (DESIGN.md §5d).
        """
        self.sim.schedule_at(at, self._fire, "kill-service", name, action)

    # ------------------------------------------------------- flash crowds

    def flash_crowd(
        self,
        at: float,
        count: int,
        window_s: float,
        spawn: Any,
    ) -> None:
        """Inject ``count`` arrivals staggered evenly across ``window_s``.

        ``spawn`` is a caller-supplied callable taking the arrival index
        (the schedule stays duck-typed — it knows nothing about clients,
        subscribers, or XGSP joins).  Arrival ``i`` fires at
        ``at + i * window_s / count``: deterministic spacing, so the same
        seed reproduces the same crowd.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        spacing = window_s / count
        for index in range(count):
            self.sim.schedule_at(
                at + index * spacing, self._fire, "flash-crowd",
                f"arrival {index + 1}/{count}", spawn, index,
            )

    def publisher_burst(
        self,
        at: float,
        duration_s: float,
        rate_hz: float,
        publish: Any,
    ) -> None:
        """Drive ``publish(index)`` at ``rate_hz`` for ``duration_s``.

        Models a publish storm (screen-share start, bulk archive replay)
        on top of steady-state traffic — the load half of a flash crowd,
        where :meth:`flash_crowd` is the connection half.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if rate_hz <= 0:
            raise ValueError("rate_hz must be > 0")
        interval = 1.0 / rate_hz
        total = int(duration_s * rate_hz)
        # One log entry for the whole burst — the packets are load, not
        # individual faults, and a storm would drown the chaos log.
        self.sim.schedule_at(
            at, self._fire, "publisher-burst",
            f"{total} publishes at {rate_hz:g} Hz over {duration_s:g}s",
            publish, 0,
        )
        for index in range(1, total):
            self.sim.schedule_at(at + index * interval, publish, index)

    # ------------------------------------------------------------- hosts

    def loss_burst(
        self, at: float, host_name: str, duration: float, loss_rate: float = 0.2
    ) -> None:
        """Degrade one host's access link to ``loss_rate`` for ``duration``.
        Bursts on one host may overlap: the latest-begun active one sets
        the rate and the end of the last restores the pristine profile."""
        def begin() -> None:
            host = self.network.host(host_name)
            pristine, rates = self._loss_bursts.setdefault(host_name, (host.link, []))
            rates.append(loss_rate)
            host.link = replace(pristine, loss_rate=loss_rate)

            def end() -> None:
                rates.remove(loss_rate)
                if rates:
                    host.link = replace(pristine, loss_rate=rates[-1])
                else:
                    del self._loss_bursts[host_name]
                    host.link = pristine
            self.sim.schedule(
                duration, self._fire, "loss-burst-end", host_name, end
            )

        self.sim.schedule_at(
            at, self._fire, "loss-burst",
            f"{host_name} loss={loss_rate:g} for {duration:g}s", begin,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosSchedule fired={len(self.log)}>"
