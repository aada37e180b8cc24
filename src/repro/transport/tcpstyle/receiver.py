"""TCP-style receiver: in-order delivery over a stream reassembler.

The receiver is where the paper's §5 stall lives: data behind a hole is
held in the reassembler, the application sees nothing until the hole
fills, and the presentation pipeline drains.  The receiver therefore
reports ``blocked_bytes`` and the time spent blocked, which the pipeline
experiment (F1) plots.
"""

from __future__ import annotations

from typing import Callable

from repro.buffers.chain import BufferChain
from repro.control.ack import AckGenerator
from repro.control.framing import StreamReassembler
from repro.control.instructions import InstructionCounter
from repro.machine.accounting import DATAPATH
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.stages.checksum import internet_checksum
from repro.transport.base import TransportStats

PROTOCOL = "tcp-style"


class TcpStyleReceiver:
    """One direction of a TCP-style connection (data in, ACKs out).

    Args:
        loop: simulation event loop.
        host: the local host (binds flow ``flow_id`` for data).
        peer: the sender's host name (ACK destination).
        flow_id: connection identifier.
        deliver: called with each chunk of *in-order* bytes as the
            contiguous prefix grows.  This is the hand-off to the
            application process.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        flow_id: int,
        deliver: Callable[[bytes], None],
        counter: InstructionCounter | None = None,
        tracer: Tracer | None = None,
    ):
        self.loop = loop
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.deliver = deliver
        self.counter = counter or InstructionCounter()
        self.tracer = tracer or DISABLED_TRACER
        self.stats = TransportStats()

        self.reassembler = StreamReassembler(counter=self.counter)
        self.acks = AckGenerator(counter=self.counter)

        # Stall bookkeeping for the pipeline experiment.
        self.blocked_since: float | None = None
        self.total_blocked_time = 0.0

        host.bind(PROTOCOL, flow_id, self._on_segment)

    def _on_segment(self, packet: Packet) -> None:
        self.counter.note_packet()
        self.stats.segments_received += 1
        seq = int(packet.header["seq"])
        payload = packet.payload
        if isinstance(payload, BufferChain):
            # The byte-stream reassembler stores contiguous bytes; a
            # pooled receive chain is materialized here and its buffers
            # returned.  (The ALF path keeps chains all the way up —
            # this is the stream abstraction's copy tax.)
            payload = payload.linearize()
            packet.payload.release()

        # Manipulation: error detection (charged by the stack layer when
        # one is attached; functionally verified here).
        DATAPATH.record_read_pass(len(payload))
        if internet_checksum(payload) != packet.header["checksum"]:
            self.stats.checksum_failures += 1
            self.tracer.emit(self.loop.now, "tcp", "bad-checksum", seq=seq)
            return

        if seq + len(payload) <= self.reassembler.next_offset:
            self.stats.duplicates_discarded += 1

        self.reassembler.insert(seq, payload)
        ready = self.reassembler.take_ready()
        if ready:
            self.stats.bytes_delivered += len(ready)
            self.deliver(ready)

        self._update_stall_clock()

        # Bookkeeping (islands, dup-ack detection) happens in the ack
        # generator; the simulation acks every segment rather than
        # modelling the delayed-ack timer, so a slow-start sender with a
        # one-segment window is never stranded waiting for a second
        # segment that cannot be sent.
        self.acks.on_segment(seq, len(payload))
        self._send_ack(ts_echo=packet.header.get("ts"))

    def _update_stall_clock(self) -> None:
        if self.reassembler.has_holes and self.blocked_since is None:
            self.blocked_since = self.loop.now
            self.tracer.emit(self.loop.now, "tcp", "stall-begin",
                             blocked=self.reassembler.blocked_bytes)
        elif not self.reassembler.has_holes and self.blocked_since is not None:
            self.total_blocked_time += self.loop.now - self.blocked_since
            self.tracer.emit(self.loop.now, "tcp", "stall-end")
            self.blocked_since = None

    def _send_ack(self, ts_echo: float | None = None) -> None:
        self.counter.record("ack_compute")
        self.stats.acks_sent += 1
        header = {"ack": self.reassembler.next_offset}
        if ts_echo is not None:
            header["ts_echo"] = ts_echo  # for the sender's RTT estimator
        ack_packet = Packet(
            src=self.host.name,
            dst=self.peer,
            protocol=PROTOCOL,
            flow_id=self.flow_id,
            header=header,
            payload=b"",
        )
        self.host.send(ack_packet)

    @property
    def blocked_bytes(self) -> int:
        """Bytes currently parked behind a hole (the §5 stall)."""
        return self.reassembler.blocked_bytes
