"""Simulated hosts.

A :class:`Host` owns a CPU, a NIC, and a table of bound ports.  Datagram
receive charges the host CPU (queueing behind whatever else the machine is
doing — the mechanism behind the co-located-client delays in Figure 3)
before the bound handler runs.
A wire packet takes one frame from the sender's CPU job to the kernel
heap (:meth:`Host.send`), and one from there to an idle receiver's
handler (:meth:`Host.deliver`; DESIGN.md §7).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
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


#: The hazard slot of a multicast group's path record (Network.resolve_path).
MULTICAST = object()


class _Table(dict):
    """A host's dict that answers a missing key with ``miss(host, key)``,
    which stores what should be kept."""

    __slots__ = ("host", "miss")

    def __missing__(self, key: Any) -> Any:
        return self.miss(self.host, key)


def _source_address(host: "Host", port: int) -> Address:
    address = host._src_addrs[port] = Address(host.name, port)
    return address


class Host:
    """A machine attached to the simulated network."""

    # ``__dict__`` only for tests that wrap a method on one host; CPython
    # makes it when something is stored there.
    __slots__ = (
        "network",
        "sim",
        "name",
        "_link",
        "recv_cpu_cost_s",
        "cpu",
        "nic",
        "_paths",
        "firewall",
        "multicast_enabled",
        "_handlers",
        "_src_addrs",
        "_next_ephemeral",
        "received_packets",
        "received_bytes",
        "discarded_packets",
        "firewall_blocked_packets",
        "__dict__",
    )

    def __init__(
        self,
        network: "Network",
        name: str,
        link: LinkProfile = LAN_100M,
        recv_cpu_cost_s: float = 5e-6,
        gc_profile: Optional[GcProfile] = None,
        multicast_enabled: bool = True,
    ):
        if recv_cpu_cost_s < 0:
            raise ValueError(f"negative CPU cost {recv_cpu_cost_s}")
        self.network = network
        self.sim = network.sim
        self.name = name
        self._link = link
        self.recv_cpu_cost_s = recv_cpu_cost_s
        self.cpu = Cpu(network.sim, name=f"{name}.cpu", gc_profile=gc_profile)
        self.nic = Nic(network.sim, link)
        self._paths = _Table()  # destination name -> path record
        self._paths.host, self._paths.miss = self, network.resolve_path
        self.firewall: Optional["Firewall"] = None
        self.multicast_enabled = multicast_enabled
        #: port -> (handler, CPU cost charged per received datagram)
        self._handlers: Dict[int, Tuple[Handler, float]] = {}
        self._src_addrs = _Table()  # port -> this host's Address on it
        self._src_addrs.host, self._src_addrs.miss = self, _source_address
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
        per received datagram before the handler runs (default: the host's
        at bind time).
        """
        if port in self._handlers:
            raise PortInUseError(f"{self.name}:{port} already bound")
        if recv_cpu_cost_s is None:
            recv_cpu_cost_s = self.recv_cpu_cost_s
        elif recv_cpu_cost_s < 0:
            raise ValueError(f"negative CPU cost {recv_cpu_cost_s}")
        self._handlers[port] = (handler, recv_cpu_cost_s)
        return Address(self.name, port)

    def rebind(self, port: int, handler: Handler) -> None:
        """Swap a bound port's handler (and its duties), keeping the cost."""
        self._handlers[port] = (handler, self._handlers[port][1])

    def unbind(self, port: int) -> None:
        self._handlers.pop(port, None)

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

    def send(
        self,
        src_port: int,
        dst: Address,
        payload: Any,
        size: int,
        serialized_at: Optional[float] = None,
    ) -> bool:
        """Transmit a datagram; False if the NIC tail-dropped it.  The
        one unicast routine: NIC arithmetic (``nic.py``), then the path
        record's draws, then the arrival at ``now + ((tx_done - now) +
        latency)``.  A multicast copy (``Network.route_future``) comes
        ``serialized_at`` and skips loopback, firewall, NIC and taps."""
        datagram = Datagram(self._src_addrs[src_port], dst, payload, size)
        sim = self.sim
        now = sim.now
        dst_name = dst.host
        if serialized_at is None:
            if dst_name == self.name:
                # Loopback: no NIC serialization, no firewall, no link loss.
                sim.post(self.LOOPBACK_LATENCY_S, self.deliver, (datagram,))
                return True
            if self.firewall is not None:
                self.firewall.note_outbound(datagram)
            nic = self.nic
            free_at = nic._free_at
            if free_at <= now:  # idle: every ledger entry has started
                if nic._queued_bytes:
                    nic._pending.clear()
                    nic._queued_bytes = 0
                if size > nic.queue_limit_bytes:
                    nic.dropped_packets += 1
                    return False
                tx_done = now + size * nic._sec_per_byte
            else:
                pending = nic._pending
                queued = nic._queued_bytes
                while pending and pending[0][0] <= now:
                    queued -= pending.popleft()[1]
                if queued + size > nic.queue_limit_bytes:
                    nic._queued_bytes = queued
                    nic.dropped_packets += 1
                    return False
                if pending is None:  # the first packet this NIC queues
                    pending = nic._pending = deque()
                pending.append((free_at, size))
                nic._queued_bytes = queued + size
                tx_done = free_at + size * nic._sec_per_byte
            nic._free_at = tx_done
            nic.sent_packets += 1
            nic.sent_bytes += size
        else:
            tx_done = serialized_at
        hazard, latency, src_jitter, dst_latency, dst_jitter, deliver, rand = \
            self._paths[dst_name]
        if hazard is not None:  # a group, taps, a blackhole or a lossy leg
            network = self.network
            if hazard is MULTICAST:
                network.route_future(self, datagram, tx_done)
                return True
            taps, blocked, region_loss, src_loss, dst_loss = hazard
            if taps and serialized_at is None:
                for observer in taps:
                    observer(datagram)
            if blocked:
                network.lost_packets += 1
                network.blackholed_packets += 1
                return True
            if (
                (region_loss > 0.0 and rand() < region_loss)
                or (src_loss > 0.0 and rand() < src_loss)
                or (dst_loss > 0.0 and rand() < dst_loss)
            ):
                network.lost_packets += 1
                return True
        if src_jitter:
            # Same draw as rng.uniform(0, jitter), minus the frame.
            latency += src_jitter * rand()
        latency += dst_latency
        if dst_jitter:
            latency += dst_jitter * rand()
        self.network.delivered_packets += 1
        seq = sim._next_seq
        sim._next_seq = seq + 1
        entry = [now + ((tx_done - now) + latency), seq, deliver, (datagram,)]
        heappush(sim._queue, entry)
        return True

    # ---------------------------------------------------------- delivery

    def deliver(self, datagram: Datagram) -> None:
        """A datagram arrives: its receive is a CPU item.  On an idle CPU
        whose completion is provably the kernel's next event (the rule
        ``simnet/cpu.py`` states), it completes here, in place."""
        if (
            self.firewall is not None
            and datagram.src.host != self.name  # loopback bypasses it
            and not self.firewall.allows_inbound(datagram)
        ):
            self.firewall_blocked_packets += 1
            return
        entry = self._handlers.get(datagram.dst.port)
        if entry is None:
            self.discarded_packets += 1
            return
        handler, cost = entry
        self.received_packets += 1
        self.received_bytes += datagram.size
        cpu = self.cpu
        if cpu._busy:
            queue = cpu._queue
            if queue is None:  # the first item this CPU queues
                queue = cpu._queue = deque()
            queue.append((cost, handler, (datagram,)))
            return
        cpu._busy = True
        cpu.busy_time += cost
        sim = self.sim
        due = sim.now + cost
        heap = sim._queue
        if due <= sim._until and (not heap or due < heap[0][0]):
            sim.now = due
            cpu.tasks_executed += 1
            handler(datagram)
            if cpu._queue:
                cpu._complete(None, None)  # serve what waits
            else:
                cpu._busy = False
            return
        seq = sim._next_seq
        sim._next_seq = seq + 1
        heappush(heap, [due, seq, cpu._complete, (handler, (datagram,))])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ports={sorted(self._handlers)}>"
