"""Simulated hosts.

A :class:`Host` owns a CPU, a NIC, and a table of bound ports.  Datagram
receive charges the host CPU (queueing behind whatever else the machine is
doing — the mechanism behind the co-located-client delays in Figure 3)
before the bound handler runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.simnet.cpu import Cpu, GcProfile
from repro.simnet.link import LinkProfile, LAN_100M
from repro.simnet.nic import Nic
from repro.simnet.packet import Address, Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.firewall import Firewall
    from repro.simnet.network import Network

Handler = Callable[[Datagram], None]

EPHEMERAL_BASE = 49152


class PortInUseError(RuntimeError):
    """Raised when binding an already-bound port."""


class Host:
    """A machine attached to the simulated network."""

    def __init__(
        self,
        network: "Network",
        name: str,
        link: LinkProfile = LAN_100M,
        recv_cpu_cost_s: float = 5e-6,
        gc_profile: Optional[GcProfile] = None,
        firewall: Optional["Firewall"] = None,
        multicast_enabled: bool = True,
    ):
        self.network = network
        self.sim = network.sim
        self.name = name
        self._link = link
        self.recv_cpu_cost_s = recv_cpu_cost_s
        self.cpu = Cpu(network.sim, name=f"{name}.cpu", gc_profile=gc_profile)
        self.nic = Nic(network.sim, link, network.route_future)
        self.firewall = firewall
        self.multicast_enabled = multicast_enabled
        self._handlers: Dict[int, Tuple[Handler, Optional[float]]] = {}
        self._src_addrs: Dict[int, Address] = {}  # port -> cached source Address
        self._next_ephemeral = EPHEMERAL_BASE
        self.received_packets = 0
        self.received_bytes = 0
        self.discarded_packets = 0
        self.firewall_blocked_packets = 0

    @property
    def link(self) -> LinkProfile:
        """Access-link profile; assigning one (chaos loss bursts) takes
        effect from the next packet.  The NIC keeps its serialization rate."""
        return self._link

    @link.setter
    def link(self, link: LinkProfile) -> None:
        self._link = link
        self.network.forget_paths()

    # ------------------------------------------------------------- ports

    def bind(
        self, port: int, handler: Handler, recv_cpu_cost_s: Optional[float] = None
    ) -> Address:
        """Register ``handler`` for datagrams arriving on ``port``.

        ``recv_cpu_cost_s`` overrides the host default CPU cost charged
        per received datagram before the handler runs.
        """
        if port in self._handlers:
            raise PortInUseError(f"{self.name}:{port} already bound")
        self._handlers[port] = (handler, recv_cpu_cost_s)
        return Address(self.name, port)

    def rebind(self, port: int, handler: Handler) -> None:
        """Swap a bound port's handler (and its duties), keeping the cost."""
        self._handlers[port] = (handler, self._handlers[port][1])

    def unbind(self, port: int) -> None:
        self._handlers.pop(port, None)

    def is_bound(self, port: int) -> bool:
        return port in self._handlers

    def allocate_port(self) -> int:
        """Return an unused ephemeral port number."""
        while self._next_ephemeral in self._handlers:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # ----------------------------------------------------------- sending

    #: One-way latency of the in-host loopback path.
    LOOPBACK_LATENCY_S = 2e-5

    def send(self, src_port: int, dst: Address, payload: Any, size: int) -> bool:
        """Transmit a datagram; returns False if the NIC tail-dropped it."""
        src = self._src_addrs.get(src_port)
        if src is None:
            src = self._src_addrs[src_port] = Address(self.name, src_port)
        sim = self.sim
        datagram = Datagram(src, dst, payload, size, sim.now)
        if dst.host == self.name:
            # Loopback: no NIC serialization, no firewall, no link loss.
            sim.post(self.LOOPBACK_LATENCY_S, self.deliver, (datagram,))
            return True
        if self.firewall is not None:
            self.firewall.note_outbound(datagram)
        return self.nic.enqueue(datagram)

    # ---------------------------------------------------------- delivery

    def deliver(self, datagram: Datagram) -> None:
        """Called by the network fabric when a datagram arrives."""
        firewall = self.firewall
        if (
            firewall is not None
            and datagram.src.host != self.name  # loopback bypasses it
            and not firewall.allows_inbound(datagram)
        ):
            self.firewall_blocked_packets += 1
            return
        entry = self._handlers.get(datagram.dst.port)
        if entry is None:
            self.discarded_packets += 1
            return
        handler, cost_override = entry
        cost = self.recv_cpu_cost_s if cost_override is None else cost_override
        self.received_packets += 1
        self.received_bytes += datagram.size
        self.cpu.execute(cost, handler, datagram)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ports={sorted(self._handlers)}>"
