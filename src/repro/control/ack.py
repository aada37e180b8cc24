"""Acknowledgement generation.

"A common control function is positive acknowledgement of data receipt...
it is but one of many methods for dealing with network errors" (§3).
Two flavours are provided, matching the two transports:

* :class:`AckGenerator` — cumulative byte-stream ACKs with a delayed-ack
  policy (the TCP-style transport);
* :class:`SelectiveAckTracker` — per-ADU receipt tracking whose ACKs name
  *application data units*, not byte numbers (the ALF transport).  Naming
  ADUs is what lets the sending application choose its recovery method.
"""

from __future__ import annotations

from repro.control.instructions import InstructionCounter
from repro.errors import TransportError


class AckGenerator:
    """Cumulative acknowledgements over a byte stream.

    Tracks the highest in-order byte received; out-of-order arrivals are
    remembered so the cumulative point jumps when a gap fills.
    """

    def __init__(
        self,
        counter: InstructionCounter | None = None,
        delayed_ack_every: int = 2,
    ):
        if delayed_ack_every <= 0:
            raise TransportError("delayed_ack_every must be positive")
        self.counter = counter or InstructionCounter()
        self.delayed_ack_every = delayed_ack_every
        self.cumulative = 0
        self._out_of_order: dict[int, int] = {}  # start -> end
        self._since_last_ack = 0

    def on_segment(self, start: int, length: int) -> bool:
        """Record an arriving segment [start, start+length).

        Returns True when an ACK should be sent now: immediately for
        out-of-order segments (fast-retransmit support), otherwise per
        the delayed-ack policy.
        """
        if start < 0 or length < 0:
            raise TransportError("segment start/length must be >= 0")
        self.counter.record("sequence_check")
        self.counter.record("ack_compute")
        end = start + length

        if start > self.cumulative:
            # A gap: remember the island, ack immediately (duplicate ACK).
            current = self._out_of_order.get(start, start)
            self._out_of_order[start] = max(current, end)
            self._since_last_ack = 0
            return True

        # In-order (or overlapping) data advances the cumulative point,
        # then any contiguous islands are absorbed.
        self.cumulative = max(self.cumulative, end)
        if self._out_of_order:
            # One ascending pass: each absorbed island can only extend
            # the point, so the first island past it ends the pass.
            for island_start in sorted(self._out_of_order):
                if island_start > self.cumulative:
                    break
                self.cumulative = max(
                    self.cumulative, self._out_of_order.pop(island_start)
                )

        self._since_last_ack += 1
        if self._since_last_ack >= self.delayed_ack_every:
            self._since_last_ack = 0
            return True
        return False

    @property
    def pending_islands(self) -> int:
        """Out-of-order islands currently held."""
        return len(self._out_of_order)


class SelectiveAckTracker:
    """Per-ADU receipt tracking: ACKs name ADUs, not bytes.

    The receiver's single record of receipt, held in a form whose size
    is set by the reorder window, not by the flow's history:

    * ``cumulative`` — the next ADU not yet received in order (every
      ADU below it has arrived);
    * the set of ADUs received above that point;
    * the holes: ADUs between the point and the highest arrival that
      have not arrived, kept in an insertion-ordered dict as arrivals
      open and fill them.  New holes are always above every existing
      one, so insertion order is ascending order.

    :meth:`ack_payload` is what an ALF ACK carries.  An in-order flow
    sends an empty ``received`` list and holds no holes, however long
    it runs.
    """

    def __init__(self, counter: InstructionCounter | None = None):
        self.counter = counter or InstructionCounter()
        self.cumulative = 0
        self._above: set[int] = set()
        self._holes: dict[int, None] = {}
        self._highest = -1

    def on_adu(self, adu_sequence: int) -> bool:
        """Record a complete ADU; returns True if it was new."""
        if adu_sequence < 0:
            raise TransportError("adu_sequence must be >= 0")
        self.counter.record("sequence_check")
        self.counter.record("ack_compute")
        if adu_sequence < self.cumulative or adu_sequence in self._above:
            return False
        if adu_sequence > self._highest:
            if adu_sequence > self._highest + 1:
                self._holes.update(
                    dict.fromkeys(range(self._highest + 1, adu_sequence))
                )
            self._highest = adu_sequence
        else:
            del self._holes[adu_sequence]
        if adu_sequence == self.cumulative:
            point = adu_sequence + 1
            above = self._above
            while point in above:
                above.remove(point)
                point += 1
            self.cumulative = point
        else:
            self._above.add(adu_sequence)
        return True

    def __contains__(self, adu_sequence: int) -> bool:
        """Whether the ADU has been received."""
        return adu_sequence < self.cumulative or adu_sequence in self._above

    def __len__(self) -> int:
        """ADUs received so far."""
        return self.cumulative + len(self._above)

    def received_above(self) -> list[int]:
        """ADUs received above the cumulative point, ascending."""
        return sorted(self._above)

    def missing_below_highest(self) -> list[int]:
        """ADU sequences with a received successor but not yet received,
        ascending.

        These are the holes a sender (or its application) must decide
        about: retransmit, recompute, or ignore.
        """
        return list(self._holes)

    def ack_payload(self) -> dict[str, list[int] | int]:
        """The control information an ALF ACK carries."""
        return {
            "cum": self.cumulative,
            "received": self.received_above(),
            "missing": self.missing_below_highest(),
            "highest": self._highest,
        }
