"""Flow and congestion control.

"To protect both the network and the receiver, the sender must be
regulated to send no faster than the data can be accommodated.  The
minimal in-band control function involves the pacing of the data at the
transmitter and the monitoring of arrivals at the receiver.  The actual
computation and negotiation of the transfer rate can be performed on an
out-of-band basis" (§3).

:class:`SlidingWindow` and :class:`AimdCongestionControl` here are the
in-band mechanisms (cheap, per-packet).  The out-of-band rate and its
in-band enforcement live in :mod:`repro.control.ratecontrol` (a
receiver-computed rate pacing ADU sources) and
:class:`~repro.transport.pacing.TrainPacer` (the wire shaper).
"""

from __future__ import annotations

from repro.control.instructions import InstructionCounter
from repro.errors import TransportError


class SlidingWindow:
    """Byte-granularity sender window.

    Tracks the classic three pointers: acknowledged, sent, and the
    receiver-granted limit.
    """

    def __init__(self, window_bytes: int, counter: InstructionCounter | None = None):
        if window_bytes <= 0:
            raise TransportError("window_bytes must be positive")
        self.counter = counter or InstructionCounter()
        self.window_bytes = window_bytes
        self.acked = 0
        self.sent = 0

    @property
    def in_flight(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return self.sent - self.acked

    def available(self) -> int:
        """Bytes the window currently permits sending."""
        return max(self.window_bytes - self.in_flight, 0)

    def can_send(self, n_bytes: int) -> bool:
        """Whether ``n_bytes`` fit in the window right now."""
        return n_bytes <= self.available()

    def on_send(self, n_bytes: int) -> None:
        """Record a transmission."""
        if n_bytes < 0:
            raise TransportError("n_bytes must be >= 0")
        if not self.can_send(n_bytes):
            raise TransportError(
                f"window overrun: {n_bytes} > available {self.available()}"
            )
        self.sent += n_bytes
        self.counter.record("flow_window_update")

    def on_ack(self, acked_through: int) -> None:
        """Advance the acknowledged pointer (cumulative, idempotent)."""
        self.counter.record("flow_window_update")
        if acked_through > self.sent:
            raise TransportError(
                f"ack of {acked_through} beyond sent {self.sent}"
            )
        self.acked = max(self.acked, acked_through)

    def on_retransmit(self, n_bytes: int) -> None:
        """Retransmission does not change window occupancy; note the event."""
        self.counter.record("flow_window_update")


class AimdCongestionControl:
    """Additive-increase / multiplicative-decrease congestion window."""

    def __init__(
        self,
        mss: int,
        initial_cwnd: int | None = None,
        counter: InstructionCounter | None = None,
    ):
        if mss <= 0:
            raise TransportError("mss must be positive")
        self.counter = counter or InstructionCounter()
        self.mss = mss
        self.cwnd = initial_cwnd if initial_cwnd is not None else mss
        self.ssthresh = 64 * mss
        self.losses = 0

    def on_ack(self, acked_bytes: int) -> None:
        """Grow the window: slow start below ssthresh, else linear."""
        self.counter.record("congestion_update")
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)
        else:
            self.cwnd += max(self.mss * self.mss // self.cwnd, 1)

    def on_loss(self) -> None:
        """Halve on loss (multiplicative decrease)."""
        self.counter.record("congestion_update")
        self.losses += 1
        self.ssthresh = max(self.cwnd // 2, self.mss)
        self.cwnd = self.ssthresh

    def window_bytes(self) -> int:
        """The current congestion window."""
        return self.cwnd
