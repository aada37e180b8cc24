"""Framing: conveying boundaries between sender and receiver.

"Encapsulation-based protocols require that frame boundaries be conveyed
between sending and receiving entities" (§3).  ALF preserves ADU
boundaries natively (:mod:`repro.core.adu`); a byte stream erases them.
:class:`StreamReassembler` is the byte-stream side: receiver hole
tracking, used by the TCP-style receiver to deliver in-order data.
"""

from __future__ import annotations

from repro.control.instructions import InstructionCounter
from repro.errors import FramingError


class StreamReassembler:
    """Byte-stream reassembly: in-order delivery over sequence numbers.

    The receiver half of a TCP-style transport: segments are inserted by
    byte offset, and :meth:`take_ready` yields only the contiguous
    prefix.  Data after a hole *waits* — this is precisely the pipeline
    stall ALF exists to avoid, so the class also tracks how many bytes
    are parked behind holes (:attr:`blocked_bytes`).
    """

    def __init__(self, counter: InstructionCounter | None = None):
        self.counter = counter or InstructionCounter()
        self.next_offset = 0
        self._islands: dict[int, bytes] = {}

    def insert(self, offset: int, data: bytes) -> None:
        """Add a segment at ``offset`` (duplicates/overlaps tolerated)."""
        if offset < 0:
            raise FramingError("offset must be >= 0")
        self.counter.record("reassembly_bookkeeping")
        if not data:
            return
        end = offset + len(data)
        if end <= self.next_offset:
            return  # wholly duplicate
        if offset < self.next_offset:
            data = data[self.next_offset - offset :]
            offset = self.next_offset
        existing = self._islands.get(offset)
        if existing is None or len(existing) < len(data):
            self._islands[offset] = data

    def take_ready(self) -> bytes:
        """Remove and return the contiguous in-order prefix."""
        self.counter.record("reassembly_bookkeeping")
        out = bytearray()
        while True:
            merged = False
            for start in sorted(self._islands):
                data = self._islands[start]
                end = start + len(data)
                if start <= self.next_offset < end:
                    out += data[self.next_offset - start :]
                    self.next_offset = end
                    del self._islands[start]
                    merged = True
                    break
                if end <= self.next_offset:
                    del self._islands[start]
                    merged = True
                    break
            if not merged:
                break
        return bytes(out)

    @property
    def blocked_bytes(self) -> int:
        """Bytes received but stuck behind a hole."""
        return sum(
            len(data)
            for start, data in self._islands.items()
            if start > self.next_offset
        )

    @property
    def has_holes(self) -> bool:
        """Whether any out-of-order data is waiting."""
        return self.blocked_bytes > 0
