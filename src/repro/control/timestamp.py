"""Timestamps: regenerating inter-packet timing for real-time media.

"Some real-time protocols rely on packet timestamps to support the
regeneration of inter-packet timing" (§3).  The jitter estimator is the
EWMA of RFC 3550 (RTP — the protocol ALF eventually shaped); the playout
buffer converts sender timestamps plus a jitter allowance into receiver
play times, and reports late/dropped units.
"""

from __future__ import annotations

from repro.control.instructions import InstructionCounter
from repro.errors import TransportError


class JitterEstimator:
    """EWMA interarrival-jitter estimator (RFC 3550 §6.4.1 form)."""

    def __init__(self, counter: InstructionCounter | None = None):
        self.counter = counter or InstructionCounter()
        self.jitter = 0.0
        self._last_transit: float | None = None

    def on_packet(self, sender_timestamp: float, arrival_time: float) -> float:
        """Fold one arrival into the estimate; returns current jitter."""
        self.counter.record("timestamp")
        transit = arrival_time - sender_timestamp
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self.jitter += (deviation - self.jitter) / 16.0
        self._last_transit = transit
        return self.jitter


class PlayoutBuffer:
    """Schedules media units for playback at sender_time + offset.

    Units arriving after their play time are late (dropped); the offset
    trades delay against late drops, which is the jitter-tolerance
    consideration §1 says present architectures do not address.
    """

    def __init__(self, playout_offset: float, counter: InstructionCounter | None = None):
        if playout_offset < 0:
            raise TransportError("playout_offset must be >= 0")
        self.counter = counter or InstructionCounter()
        self.playout_offset = playout_offset
        self.scheduled: list[tuple[float, int]] = []  # (play_time, unit id)
        self.late: list[int] = []

    def on_unit(self, unit_id: int, sender_timestamp: float, arrival_time: float) -> float | None:
        """Admit a unit; returns its play time, or None if it is late."""
        self.counter.record("timestamp")
        play_time = sender_timestamp + self.playout_offset
        if arrival_time > play_time:
            self.late.append(unit_id)
            return None
        self.scheduled.append((play_time, unit_id))
        return play_time
