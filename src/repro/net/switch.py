"""A store-and-forward switch with finite drop-tail queues.

Provides the congestion-loss failure mode: when an output queue is full,
arriving packets are dropped ("data may be lost due to congestion
overflow", §3).  The switch is also the place where the paper's layered-
isolation argument shows up concretely: it forwards on addresses alone,
never inspecting transport or presentation content — intermediate
entities "operate at one or more layers without regard to the semantic
content of the symbols being exchanged at the upper layers" (§8).

With ``preserve_trains`` the switch additionally honors the shaped-train
tags a :class:`~repro.transport.pacing.TrainPacer` stamps on packets
(``header["train"]`` / ``header["train_len"]``): same-tag packets
meeting cross-traffic at a contended output port queue and forward as
**one unit** instead of interleaving packet-by-packet, so the trains the
sender deliberately shaped survive to the receiver's one-probe-per-run
demux.  A fairness cap bounds how many packets one train may claim as a
unit, so a single flow cannot monopolize the port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.buffers.chain import BufferChain
from repro.errors import NetworkError
from repro.machine.accounting import DATAPATH
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer


@dataclass
class SwitchStats:
    """Forwarding-plane ledger for one switch.

    ``queue_drops`` breaks congestion drops down per destination host —
    a full port serving several hosts tells you *whose* traffic the
    overflow cost (satellite of the pacing work: mid-train drops used to
    vanish into one opaque counter).
    """

    forwarded: int = 0
    bursts: int = 0
    no_route_drops: int = 0
    queue_drops: dict[str, int] = field(default_factory=dict)
    trains_joined: int = 0
    train_units: int = 0
    train_caps: int = 0

    @property
    def drops(self) -> int:
        """All drops: no-route plus every destination's queue drops."""
        return self.no_route_drops + sum(self.queue_drops.values())

    def record_queue_drop(self, destination: str) -> None:
        self.queue_drops[destination] = self.queue_drops.get(destination, 0) + 1

    def snapshot(self) -> dict[str, object]:
        return {
            "forwarded": self.forwarded,
            "bursts": self.bursts,
            "drops": self.drops,
            "no_route_drops": self.no_route_drops,
            "queue_drops": dict(sorted(self.queue_drops.items())),
            "trains_joined": self.trains_joined,
            "train_units": self.train_units,
            "train_caps": self.train_caps,
        }


@dataclass
class _Unit:
    """One forwarding unit in a port queue: a packet or a whole train."""

    packets: deque[Packet] = field(default_factory=deque)
    tag: tuple[str, object] | None = None
    admitted: int = 0
    expected: int = 1
    full_len: int = 1

    @property
    def open(self) -> bool:
        return self.tag is not None and self.admitted < self.expected


@dataclass
class _Port:
    name: str
    link: Link
    units: deque[_Unit] = field(default_factory=deque)
    open_units: dict[tuple[str, object], _Unit] = field(default_factory=dict)
    depth: int = 0
    transmitting: bool = False


class StoreAndForwardSwitch:
    """A switch forwarding packets by destination host name.

    Args:
        loop: simulation event loop.
        name: label for traces.
        queue_capacity: packets each output queue holds before dropping.
        forwarding_delay: per-packet processing latency (header lookup).
        preserve_trains: queue shaped trains (tagged ``header["train"]``)
            as forwarding units — a train's later members join its
            still-queued unit rather than interleaving behind
            cross-traffic that arrived in between.
        train_fairness_cap: most packets one train may claim as a unit;
            the remainder re-enters the queue as ordinary arrivals so
            one flow cannot monopolize a contended port.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str = "switch",
        queue_capacity: int = 64,
        forwarding_delay: float = 10e-6,
        preserve_trains: bool = False,
        train_fairness_cap: int = 32,
        tracer: Tracer | None = None,
    ):
        if queue_capacity <= 0:
            raise NetworkError("queue_capacity must be positive")
        if train_fairness_cap < 1:
            raise NetworkError("train_fairness_cap must be >= 1")
        self.loop = loop
        self.name = name
        self.queue_capacity = queue_capacity
        self.forwarding_delay = forwarding_delay
        self.preserve_trains = preserve_trains
        self.train_fairness_cap = train_fairness_cap
        self.tracer = tracer or DISABLED_TRACER
        self._ports: dict[str, _Port] = {}
        self._routes: dict[str, _Port] = {}
        self.stats = SwitchStats()

    # Legacy counter names, kept alive as views over the stats ledger.

    @property
    def drops(self) -> int:
        return self.stats.drops

    @property
    def forwarded(self) -> int:
        return self.stats.forwarded

    @property
    def bursts(self) -> int:
        return self.stats.bursts

    def attach(self, port_name: str, link: Link) -> None:
        """Attach an output link as ``port_name``."""
        if port_name in self._ports:
            raise NetworkError(f"{self.name}: port {port_name!r} already attached")
        self._ports[port_name] = _Port(port_name, link)

    def add_route(self, destination: str, port_name: str) -> None:
        """Forward packets for ``destination`` out of ``port_name``."""
        port = self._ports.get(port_name)
        if port is None:
            raise NetworkError(f"{self.name}: no port {port_name!r}")
        self._routes[destination] = port

    def remove_route(self, destination: str) -> bool:
        """Withdraw ``destination``'s route; returns True if one existed."""
        return self._routes.pop(destination, None) is not None

    def _drop(self, packet: Packet, port: _Port | None) -> None:
        if isinstance(packet.payload, BufferChain):
            packet.payload.release()
        if port is None:
            self.stats.no_route_drops += 1
            self.tracer.emit(self.loop.now, "switch", "no-route",
                             switch=self.name, dst=packet.dst)
        else:
            self.stats.record_queue_drop(packet.dst)
            if self.tracer.enabled:
                self.tracer.emit(self.loop.now, "switch", "queue-drop",
                                 switch=self.name, port=port.name,
                                 dst=packet.dst, packet_id=packet.packet_id)

    def _train_tag(self, packet: Packet) -> tuple[str, object] | None:
        if not self.preserve_trains:
            return None
        train = packet.header.get("train")
        if train is None:
            return None
        return (packet.src, train)

    def _enqueue(self, packet: Packet, port: _Port | None) -> None:
        if port is None:
            self._drop(packet, None)
            return
        if port.depth >= self.queue_capacity:
            self._drop(packet, port)
            return
        if isinstance(packet.payload, BufferChain):
            DATAPATH.record_zero_copy()
        tag = self._train_tag(packet)
        if tag is not None:
            unit = port.open_units.get(tag)
            if unit is not None:
                # A later member of a still-queued train: ride its unit
                # (ahead of cross-traffic queued in between) so the
                # shaped run leaves the port contiguous.
                unit.packets.append(packet)
                unit.admitted += 1
                port.depth += 1
                self.stats.trains_joined += 1
                if not unit.open:
                    del port.open_units[tag]
                return
            full_len = int(packet.header.get("train_len", 1))
            expected = min(max(full_len, 1), self.train_fairness_cap)
            unit = _Unit(tag=tag, expected=expected, full_len=full_len)
            unit.packets.append(packet)
            unit.admitted += 1
            port.depth += 1
            self.stats.train_units += 1
            if expected < full_len:
                self.stats.train_caps += 1
            if unit.open:
                port.open_units[tag] = unit
        else:
            unit = _Unit()
            unit.packets.append(packet)
            port.depth += 1
        port.units.append(unit)
        if not port.transmitting:
            port.transmitting = True
            self.loop.schedule(self.forwarding_delay, self._transmit, port.name)

    def receive(self, packet: Packet) -> None:
        """Handle an arriving packet: look up the route and enqueue.

        Forwarding is store-and-forward in *references*: a chain payload
        sits in its buffers while only the packet descriptor moves
        through the queue.  Dropped packets release their references.
        """
        self._enqueue(packet, self._routes.get(packet.dst))

    def receive_burst(self, packets: list[Packet]) -> None:
        """Forward a whole packet train in one pass.

        A link in train mode lands here; each packet's route is one dict
        lookup, and per-packet drop/enqueue semantics are unchanged — the
        train is a delivery optimization, not a forwarding unit (unless
        ``preserve_trains`` promotes tagged trains to units).
        """
        self.stats.bursts += 1
        for packet in packets:
            self._enqueue(packet, self._routes.get(packet.dst))

    def _transmit(self, port_name: str) -> None:
        port = self._ports[port_name]
        while port.units and not port.units[0].packets:
            # An emptied unit still open for late joiners parks at the
            # head; retire it — its remaining members arrive as a fresh
            # unit and queue behind whatever came in between.
            unit = port.units.popleft()
            if unit.tag is not None:
                port.open_units.pop(unit.tag, None)
        if not port.units:
            port.transmitting = False
            return
        unit = port.units[0]
        packet = unit.packets.popleft()
        port.depth -= 1
        if not unit.packets and not unit.open:
            port.units.popleft()
            if unit.tag is not None:
                port.open_units.pop(unit.tag, None)
        port.link.send(packet)
        self.stats.forwarded += 1
        # Pace the queue drain at the link's serialization rate.
        serialization = packet.wire_size * 8 / port.link.bandwidth_bps
        self.loop.schedule(serialization, self._transmit, port_name)

    def queue_depth(self, port_name: str) -> int:
        """Packets currently queued for ``port_name``."""
        if port_name not in self._ports:
            raise NetworkError(f"{self.name}: no port {port_name!r}")
        return self._ports[port_name].depth
