"""mbuf-style scatter/gather buffer chains.

Protocol implementations avoid copying by keeping a packet as a chain of
refcounted :class:`~repro.buffers.segment.Segment` windows: payloads are
*split* and *shared* without touching the data, and releasing the chain
releases every reference it holds.  A :class:`BufferChain` models
exactly that.  Only :meth:`linearize` and :meth:`copy_into` perform a
real data pass, and both record it on the process-wide datapath counters
(:data:`repro.machine.accounting.DATAPATH`), so the zero-copy
claims of the chain datapath are measured rather than asserted.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.buffers.segment import Segment
from repro.errors import BufferError_
from repro.machine.accounting import DATAPATH


class BufferChain:
    """An ordered chain of refcounted segments.

    The chain's logical content is the concatenation of its segments.
    All structural operations (append, extend, split, share) are
    zero-copy.
    """

    def __init__(self, segments: Iterable[Segment] = ()):
        self._segments: list[Segment] = [s for s in segments if len(s) > 0]

    @classmethod
    def wrap(cls, payload, label: str = "") -> "BufferChain":
        """Zero-copy chain over caller-owned storage (bytes, bytearray,
        memoryview...)."""
        if len(payload) == 0:
            return cls()
        DATAPATH.record_zero_copy()
        return cls([Segment.wrap(payload, label=label)])

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The chain's segments, in order."""
        return tuple(self._segments)

    def __len__(self) -> int:
        return sum(map(len, self._segments))

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def memoryviews(self) -> list[memoryview]:
        """The segments' backing windows, in order (no copies)."""
        return [segment.memoryview() for segment in self._segments]

    def append(self, segment: Segment) -> None:
        """Add a segment at the end."""
        if len(segment) > 0:
            self._segments.append(segment)

    def extend(self, other: "BufferChain") -> None:
        """Append all of ``other``'s segments (zero-copy)."""
        self._segments.extend(other._segments)

    def split(self, at: int) -> tuple["BufferChain", "BufferChain"]:
        """Split into (first ``at`` bytes, rest) without copying.

        Both result chains own fresh references to the underlying data
        (segments are shared or subviewed); the original chain keeps its
        own and must still be released by its owner.
        """
        if at < 0 or at > len(self):
            raise BufferError_(f"split point {at} outside chain of length {len(self)}")
        DATAPATH.record_zero_copy()
        head: list[Segment] = []
        tail: list[Segment] = []
        remaining = at
        for segment in self._segments:
            if remaining >= len(segment):
                head.append(segment.share())
                remaining -= len(segment)
            elif remaining > 0:
                head.append(segment.subview(0, remaining))
                tail.append(segment.subview(remaining))
                remaining = 0
            else:
                tail.append(segment.share())
        return BufferChain(head), BufferChain(tail)

    def chunks(self, size: int) -> Iterator["BufferChain"]:
        """Yield consecutive sub-chains of at most ``size`` bytes.

        Each yielded chunk owns its own references; the original chain is
        untouched.  Intermediate remainders are released internally so
        no reference leaks here.
        """
        if size <= 0:
            raise BufferError_(f"chunk size must be positive, got {size}")
        rest = self.share()
        while len(rest) > 0:
            head, new_rest = rest.split(min(size, len(rest)))
            rest.release()
            rest = new_rest
            yield head

    def share(self) -> "BufferChain":
        """A new chain referencing the same data (refcounts bumped)."""
        DATAPATH.record_zero_copy()
        return BufferChain([segment.share() for segment in self._segments])

    def release(self) -> None:
        """Release every segment (pool buffers may recycle); the chain
        is empty afterwards."""
        segments, self._segments = self._segments, []
        for segment in segments:
            segment.release()

    def copy_into(self, target: memoryview, src_offset: int = 0,
                  length: int | None = None) -> int:
        """Gather ``length`` bytes from ``src_offset`` into ``target``.

        One real data pass (recorded); this is the scatter-gather
        primitive the final move into application memory uses.
        Returns the bytes written.
        """
        total = len(self)
        if length is None:
            length = total - src_offset
        if src_offset < 0 or length < 0 or src_offset + length > total:
            raise BufferError_(
                f"copy_into range [{src_offset}, {src_offset + length}) "
                f"outside chain of length {total}"
            )
        if length > len(target):
            raise BufferError_(
                f"copy_into of {length} bytes exceeds target of {len(target)}"
            )
        written = 0
        skip = src_offset
        for segment in self._segments:
            seg_len = len(segment)
            if skip >= seg_len:
                skip -= seg_len
                continue
            take = min(seg_len - skip, length - written)
            if take <= 0:
                break
            target[written : written + take] = segment.memoryview()[
                skip : skip + take
            ]
            written += take
            skip = 0
        DATAPATH.record_copy(written, label="gather")
        return written

    def linearize(self) -> bytes:
        """Materialize the chain as contiguous bytes.

        This is a real data pass (one read of every byte, one write into
        the fresh region); it is recorded on the datapath counters, and
        callers that account cycles must charge a copy for it.
        """
        total = len(self)
        if total == 0:
            return b""
        if len(self._segments) == 1:
            DATAPATH.record_copy(total, label="linearize")
            return self._segments[0].tobytes()
        out = bytearray(total)
        target = memoryview(out)
        written = 0
        for segment in self._segments:
            seg_len = len(segment)
            target[written : written + seg_len] = segment.memoryview()
            written += seg_len
        DATAPATH.record_copy(total, label="linearize")
        return bytes(out)

    def __repr__(self) -> str:
        return f"BufferChain(segments={len(self._segments)}, length={len(self)})"


def as_buffer_chain(payload, label: str = "") -> BufferChain:
    """Coerce any payload into a chain without copying.

    Chains pass through; ``bytes``/``bytearray``/``memoryview`` are
    wrapped zero-copy.
    """
    if isinstance(payload, BufferChain):
        return payload
    return BufferChain.wrap(payload, label=label)
