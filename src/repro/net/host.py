"""Hosts: endpoints with protocol demultiplexing.

A host owns an outgoing link per destination and dispatches arriving
packets to bound protocol handlers.  The dispatch is the first transfer-
control operation of the paper's receive path: "the packet must be
properly demultiplexed or dispatched" — a transport charges its
instruction cost (``header_parse`` plus ``demux_lookup``) to its own
:class:`~repro.control.instructions.InstructionCounter`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import Tracer

Handler = Callable[[Packet], None]
#: Takes ``packets[start:]`` as one unit if it can; returns how many.
RunHandler = Callable[[list[Packet], int], int]


def _run_entry(handler: Handler) -> RunHandler | None:
    """The ``receive_run`` of the object ``handler`` is bound to, if any."""
    return getattr(getattr(handler, "__self__", None), "receive_run", None)


class Host:
    """A network endpoint.

    Args:
        loop: simulation event loop.
        name: the host's address (packets are routed by this).
        rx_pool: when set, arriving byte payloads are DMA'd into
            refcounted pool buffers and handed to transports as
            scatter-gather chains — the start of the zero-copy receive
            path.  Pool exhaustion drops the packet (counted in
            :attr:`rx_dropped`), which is the real backpressure a finite
            interface has.
        uplink: a host to forward sends through when this host has no
            direct link toward the destination.  Shard worker hosts set
            this to their sharded front end, so transport replies (ACKs)
            egress over the front's links without every shard owning a
            link table.

    Dispatch keeps a single-entry hot-flow memo (§4's header
    prediction): back-to-back packets for the same (protocol, flow)
    reuse the last resolved handler without re-hashing, counted in
    :attr:`demux_memo_hits`.  Any binding change invalidates the memo.

    A handler bound from an object that also has ``receive_run(packets,
    start)`` gets the first offer of each burst run of its flow (see
    :meth:`receive_burst`), and of each single packet (see
    :meth:`receive`): it takes as many packets as it can process as one
    unit and the rest go to the handler as before.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        tracer: Tracer | None = None,
        rx_pool: BufferPool | None = None,
        uplink: "Host | None" = None,
    ):
        self.loop = loop
        self.name = name
        self.tracer = tracer or Tracer(enabled=False)
        self.rx_pool = rx_pool
        self.uplink = uplink
        self._links: dict[str, Link] = {}
        self._handlers: dict[tuple[str, int], Handler] = {}
        self._default_handlers: dict[str, Handler] = {}
        self._memo_key: tuple[str, int] | None = None
        self._memo_handler: Handler | None = None
        self._memo_run: RunHandler | None = None
        self.received = 0
        self.undeliverable = 0
        self.rx_dropped = 0
        self.demux_memo_hits = 0
        self.bursts = 0
        self.burst_packets = 0

    def add_link(self, destination: str, link: Link) -> None:
        """Use ``link`` for packets addressed to ``destination``."""
        if destination in self._links:
            raise NetworkError(f"{self.name}: link to {destination!r} already set")
        self._links[destination] = link

    def _invalidate_memo(self) -> None:
        self._memo_key = None
        self._memo_handler = None
        self._memo_run = None

    def bind(self, protocol: str, flow_id: int, handler: Handler) -> None:
        """Dispatch packets for (protocol, flow) to ``handler``."""
        key = (protocol, flow_id)
        if key in self._handlers:
            raise NetworkError(f"{self.name}: {key} already bound")
        self._handlers[key] = handler
        self._invalidate_memo()

    def bind_protocol(self, protocol: str, handler: Handler) -> None:
        """Fallback handler for a protocol (any flow), e.g. listeners."""
        if protocol in self._default_handlers:
            raise NetworkError(f"{self.name}: protocol {protocol!r} already bound")
        self._default_handlers[protocol] = handler
        self._invalidate_memo()

    def unbind(self, protocol: str, flow_id: int) -> None:
        """Remove a (protocol, flow) binding."""
        self._handlers.pop((protocol, flow_id), None)
        self._invalidate_memo()

    def bound_flows(self) -> tuple[tuple[str, int], ...]:
        """The (protocol, flow) keys with a per-flow handler bound
        (protocol fallbacks excluded).  The sharded front end consults
        this before committing a bucket migration: a flow bound here
        without ``ShardedHost.register_flow`` pins its bucket in place,
        because the migration has no receiver to rehome."""
        return tuple(self._handlers)

    def unbind_protocol(self, protocol: str) -> None:
        """Remove a protocol's fallback handler (inverse of
        :meth:`bind_protocol`), so a listener can be torn down and a new
        one bound in the same simulation."""
        self._default_handlers.pop(protocol, None)
        self._invalidate_memo()

    def send(self, packets: Packet | Sequence[Packet]) -> None:
        """Transmit a packet, or a run of packets for one destination,
        toward that destination.

        A run goes to the link in one call, the way a sender hands over a
        whole ADU's fragments (a single packet is a run of one); the run's
        first packet names the destination.  Every link-like object a
        host holds — a :class:`~repro.net.link.Link`, a spraying shim, the
        ``uplink`` — accepts either form.
        """
        run = (packets,) if isinstance(packets, Packet) else packets
        link = self._links.get(run[0].dst)
        if link is None:
            if self.uplink is not None:
                self.uplink.send(run)
                return
            raise NetworkError(f"{self.name}: no link toward {run[0].dst!r}")
        for packet in run:
            packet.src = self.name
        link.send(run)

    def _dma(self, packet: Packet) -> bool:
        """DMA a byte payload into pooled buffers; False drops the packet."""
        if (
            self.rx_pool is not None
            and not isinstance(packet.payload, BufferChain)
            and packet.payload
        ):
            # NIC DMA: the frame lands in pooled receive buffers (bus
            # traffic, not a CPU copy) and flows upward as a chain.
            chain = self.rx_pool.dma_chain(packet.payload)
            if chain is None:
                self.rx_dropped += 1
                self.tracer.emit(self.loop.now, "host", "rx-pool-drop",
                                 host=self.name, packet_id=packet.packet_id)
                return False
            packet.payload = chain
        return True

    def _drop_undeliverable(self, packet: Packet) -> None:
        """Count and release one packet no handler claims."""
        self.undeliverable += 1
        if isinstance(packet.payload, BufferChain):
            packet.payload.release()
        self.tracer.emit(self.loop.now, "host", "undeliverable",
                         host=self.name, protocol=packet.protocol,
                         flow_id=packet.flow_id)

    def receive(self, packet: Packet) -> None:
        """Deliver an arriving packet to its bound handler.

        The handler is resolved before the DMA, as in
        :meth:`receive_burst`: a packet no handler claims is never DMA'd.
        The handler's ``receive_run``, if it has one, is offered the
        packet as a run of one (for ALF, a whole single-fragment ADU,
        DMA'd by the receiver itself); otherwise the packet is DMA'd and
        handed to the handler.
        """
        self.received += 1
        key = (packet.protocol, packet.flow_id)
        if key == self._memo_key:
            # Hot-flow fast path: a packet train for one flow resolves
            # its handler once and skips the hash lookups after that.
            self.demux_memo_hits += 1
            handler = self._memo_handler
        else:
            handler = self._handlers.get(key)
            if handler is None:
                handler = self._default_handlers.get(packet.protocol)
            if handler is None:
                self._drop_undeliverable(packet)
                return
            self._memo_key = key
            self._memo_handler = handler
            self._memo_run = _run_entry(handler)
        if self._memo_run is not None and self._memo_run([packet], 0):
            return
        if self._dma(packet):
            handler(packet)

    def receive_burst(self, packets: list[Packet]) -> None:
        """Deliver a packet train in one call.

        Links in train mode and the sharded front end hand bursts here
        so that consecutive packets for the same flow form a *run*
        resolving the handler once, not per packet.  Where a run starts
        — and again after each unit it took — the handler's
        ``receive_run`` is offered the rest of the burst and takes what
        it can as one unit (for ALF, one whole ADU: one DMA, one
        reassembly); whatever it leaves goes packet by packet, with
        every counter advanced exactly as the per-packet path would.
        A poisoned packet mid-burst — no handler bound for its flow —
        releases its DMA chain and the rest of the burst keeps flowing;
        the run's cached handler is revalidated against the memo, so a
        flow closed by an earlier delivery in the same burst cannot be
        called stale.
        """
        self.bursts += 1
        self.burst_packets += len(packets)
        self.received += len(packets)
        # Hot loop: every attribute consulted per packet is hoisted to a
        # local once per burst — the steered zero-hop path lands whole
        # trains here, so the per-packet cost is what the bench gates.
        dma = self._dma
        handlers = self._handlers
        defaults = self._default_handlers
        run_key: tuple[str, int] | None = None
        handler: Handler | None = None
        index, count = 0, len(packets)
        while index < count:
            packet = packets[index]
            index += 1
            key = (packet.protocol, packet.flow_id)
            # A run continues only while the memo agrees: any binding
            # change inside the burst invalidates the memo, which
            # forces re-resolution exactly as packet-at-a-time would.
            if key == run_key and key == self._memo_key:
                self.demux_memo_hits += 1
                if dma(packet):
                    self._memo_handler(packet)
                continue
            run_key = key
            if key == self._memo_key:
                self.demux_memo_hits += 1
                handler = self._memo_handler
            else:
                handler = handlers.get(key)
                if handler is None:
                    handler = defaults.get(packet.protocol)
                if handler is not None:
                    self._memo_key = key
                    self._memo_handler = handler
                    self._memo_run = _run_entry(handler)
            if handler is None:
                # Undeliverable packets skip the DMA (nothing downstream
                # would ever release the chain) but must release a chain
                # the wire already handed over — and the burst goes on.
                self._drop_undeliverable(packet)
                continue
            if self._memo_run is not None:
                taken = self._memo_run(packets, index - 1)
                if taken:
                    # Each packet after the run's first is a memo hit
                    # packet by packet; the next packet may open a unit.
                    self.demux_memo_hits += taken - 1
                    index += taken - 1
                    run_key = None
                    continue
            if dma(packet):
                handler(packet)
