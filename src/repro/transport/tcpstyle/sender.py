"""TCP-style sender: windowed byte-stream with retransmission.

A deliberately classic design: cumulative ACKs, a sliding window bounded
by both the receiver window and an AIMD congestion window, a coarse
retransmission timer, and fast retransmit on three duplicate ACKs.  The
paper's in-band control accounting (E5) hangs off the instruction
counter every control action records into.
"""

from __future__ import annotations

from typing import Callable

from repro.control.flow import AimdCongestionControl, SlidingWindow
from repro.control.instructions import InstructionCounter
from repro.control.rtt import RttEstimator
from repro.errors import TransportError
from repro.machine.accounting import DATAPATH
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import Event, EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.stages.checksum import internet_checksum
from repro.transport.base import TransportStats

PROTOCOL = "tcp-style"


class TcpStyleSender:
    """One direction of a TCP-style connection (data out, ACKs in).

    Args:
        loop: simulation event loop.
        host: the local host (binds flow ``flow_id`` for ACKs).
        peer: destination host name.
        flow_id: connection identifier.
        mss: maximum segment payload.
        window_bytes: receiver-advertised window (static here; the
            receiver-side computation is out-of-band per §3).
        rto: retransmission timeout in seconds (the *initial* value
            when ``adaptive_rto`` is on).
        adaptive_rto: estimate SRTT/RTTVAR from acknowledgement echoes
            (Jacobson) and derive the timer from them, with Karn's rule
            and exponential backoff.  Off by default so experiments can
            pin the timer.
        use_congestion_control: enable AIMD (disable to isolate loss
            behaviour from congestion dynamics in experiments).
        on_complete: called once every byte has been acknowledged.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        flow_id: int,
        mss: int = 1024,
        window_bytes: int = 64 * 1024,
        rto: float = 0.2,
        adaptive_rto: bool = False,
        use_congestion_control: bool = True,
        counter: InstructionCounter | None = None,
        tracer: Tracer | None = None,
        on_complete: Callable[[], None] | None = None,
    ):
        if mss <= 0:
            raise TransportError("mss must be positive")
        self.loop = loop
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.mss = mss
        self.rto = rto
        self.rtt = RttEstimator(initial_rto=rto) if adaptive_rto else None
        self._last_retransmit_time = -1.0
        self.counter = counter or InstructionCounter()
        self.tracer = tracer or DISABLED_TRACER
        self.on_complete = on_complete
        self.stats = TransportStats()

        self.window = SlidingWindow(window_bytes, counter=self.counter)
        self.congestion = (
            AimdCongestionControl(mss, counter=self.counter)
            if use_congestion_control
            else None
        )

        self._buffer = bytearray()  # unsent + unacked bytes, from base
        self._base = 0              # first unacked sequence number
        self._next_seq = 0          # next byte to transmit
        self._dup_acks = 0
        self._last_ack = 0
        self._timer: Event | None = None
        self._closed = False
        self._completed = False

        host.bind(PROTOCOL, flow_id, self._on_ack_packet)

    # ------------------------------------------------------------------
    # Application interface

    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self._closed:
            raise TransportError("sender is closed")
        if not data:
            return
        self._buffer += data
        self._pump()

    def close(self) -> None:
        """No more data will be sent; completion fires when all is acked."""
        self._closed = True
        self._maybe_complete()

    @property
    def unacked_bytes(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return self._next_seq - self._base

    @property
    def total_queued(self) -> int:
        """All bytes ever queued."""
        return self._base + len(self._buffer)

    # ------------------------------------------------------------------
    # Transmission

    def _effective_window(self) -> int:
        window = self.window.available()
        if self.congestion is not None:
            window = min(window, max(self.congestion.window_bytes() - self.window.in_flight, 0))
        return window

    def _pump(self) -> None:
        """Transmit as much as the windows allow."""
        while True:
            unsent_offset = self._next_seq - self._base
            unsent = len(self._buffer) - unsent_offset
            if unsent <= 0:
                break
            allowance = self._effective_window()
            if allowance <= 0:
                break
            length = min(self.mss, unsent, allowance)
            # Slice through a memoryview: one copy (view -> bytes), not
            # the two a bytearray slice would do (slice, then bytes()).
            payload = bytes(
                memoryview(self._buffer)[unsent_offset : unsent_offset + length]
            )
            DATAPATH.record_copy(length, label="segment-slice")
            self._transmit(self._next_seq, payload)
            self.window.on_send(length)
            self._next_seq += length
        if self._timer is None and self.unacked_bytes > 0:
            self._arm_timer()

    def _transmit(self, seq: int, payload: bytes) -> None:
        checksum = internet_checksum(payload)
        packet = Packet(
            src=self.host.name,
            dst=self.peer,
            protocol=PROTOCOL,
            flow_id=self.flow_id,
            header={"seq": seq, "checksum": checksum, "ts": self.loop.now},
            payload=payload,
        )
        self.stats.segments_sent += 1
        self.stats.bytes_sent += len(payload)
        self.tracer.emit(self.loop.now, "tcp", "send", seq=seq, length=len(payload))
        self.host.send(packet)

    # ------------------------------------------------------------------
    # ACK processing

    def _on_ack_packet(self, packet: Packet) -> None:
        self.counter.note_packet()
        self.counter.record("header_parse", "demux_lookup")
        self.stats.acks_received += 1
        ack = int(packet.header["ack"])
        self.counter.record("sequence_check")

        # Jacobson RTT sampling, under Karn's rule: only segments sent
        # after the last retransmission give unambiguous samples.
        ts_echo = packet.header.get("ts_echo")
        if (
            self.rtt is not None
            and ts_echo is not None
            and ts_echo > self._last_retransmit_time
        ):
            self.counter.record("timestamp")
            self.rtt.sample(self.loop.now - float(ts_echo))

        if ack > self._last_ack:
            advanced = ack - self._base
            self._base = ack
            self._last_ack = ack
            self._dup_acks = 0
            del self._buffer[:advanced]
            self.window.on_ack(ack)
            if self.congestion is not None:
                self.congestion.on_ack(advanced)
            self._rearm_timer()
            self.tracer.emit(self.loop.now, "tcp", "ack", ack=ack)
            self._pump()
            self._maybe_complete()
        elif ack == self._last_ack and self.unacked_bytes > 0:
            self._dup_acks += 1
            if self._dup_acks == 3:
                self.tracer.emit(self.loop.now, "tcp", "fast-retransmit", seq=self._base)
                self._retransmit_base()
                self._dup_acks = 0

    def _maybe_complete(self) -> None:
        if (
            self._closed
            and not self._completed
            and self._base == self.total_queued
        ):
            self._completed = True
            self._cancel_timer()
            if self.on_complete is not None:
                self.on_complete()

    # ------------------------------------------------------------------
    # Retransmission

    def _retransmit_base(self) -> None:
        """Resend the first unacked segment (go-back on the left edge)."""
        length = min(self.mss, self._next_seq - self._base)
        if length <= 0:
            return
        payload = bytes(memoryview(self._buffer)[:length])
        DATAPATH.record_copy(length, label="segment-slice")
        self.stats.retransmissions += 1
        self._last_retransmit_time = self.loop.now
        self.window.on_retransmit(length)
        if self.congestion is not None:
            self.congestion.on_loss()
        self._transmit(self._base, payload)
        self._rearm_timer()

    def _on_timeout(self) -> None:
        self._timer = None
        if self.unacked_bytes <= 0:
            return
        self.counter.record("timer_set")
        self.tracer.emit(self.loop.now, "tcp", "timeout", seq=self._base)
        if self.rtt is not None:
            self.rtt.back_off()
        self._retransmit_base()

    def _arm_timer(self) -> None:
        self.counter.record("timer_set")
        timeout = self.rto if self.rtt is None else self.rtt.rto
        self._timer = self.loop.schedule(timeout, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.counter.record("timer_cancel")
            self._timer.cancel()
            self._timer = None

    def _rearm_timer(self) -> None:
        self._cancel_timer()
        if self.unacked_bytes > 0:
            self._arm_timer()
