"""Syntax name-spaces: mapping byte ranges to application elements.

The paper's central complaint about TCP is that its sequence numbers
"have no meaning to the application": when bytes [a, b) are lost, neither
end can say *which application elements* went missing, because the
presentation conversion changed element sizes.

This module closes that gap.  A :class:`SyntaxMap` records, for one
encoded ADU, the byte extent every leaf element occupies in a given
transfer syntax.  With it, a loss expressed as a byte range translates
into a set of element paths — "losses expressed in terms meaningful to
the application" — which is what makes application-level recovery
(recompute, ignore, resend) possible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import PresentationError
from repro.presentation.abstract import Path


@dataclass(frozen=True)
class ElementExtent:
    """The byte range one leaf element occupies in an encoding.

    Attributes:
        path: the element's abstract-syntax path.
        start: first byte of the element's encoding (headers included).
        end: one past the last byte.
    """

    path: Path
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise PresentationError(
                f"invalid extent [{self.start}, {self.end}) for {self.path!r}"
            )

    @property
    def length(self) -> int:
        """Encoded size of the element."""
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        """True when [start, end) intersects this extent (empty ranges
        intersect nothing)."""
        return max(self.start, start) < min(self.end, end)


class SyntaxMap:
    """The element layout of one encoded ADU in one transfer syntax.

    Built by a codec's ``encode_with_layout``; immutable afterwards.
    Extents are expected in encoding order (codecs produce them that
    way), which enables binary-search lookups.
    """

    def __init__(self, syntax_name: str, total_length: int, extents: list[ElementExtent]):
        previous_end = 0
        for extent in extents:
            if extent.start < previous_end:
                raise PresentationError(
                    f"extents out of order or overlapping at {extent.path!r}"
                )
            if extent.end > total_length:
                raise PresentationError(
                    f"extent {extent.path!r} exceeds encoding of {total_length} bytes"
                )
            previous_end = extent.end
        self.syntax_name = syntax_name
        self.total_length = total_length
        self.extents = list(extents)
        self._starts = [extent.start for extent in self.extents]

    def __len__(self) -> int:
        return len(self.extents)

    def elements_in_range(self, start: int, end: int) -> list[ElementExtent]:
        """Leaf elements whose encodings intersect [start, end)."""
        if start < 0 or end < start:
            raise PresentationError(f"invalid range [{start}, {end})")
        # First extent that could overlap: the one before the insertion
        # point of `start` among extent starts.
        index = max(bisect_right(self._starts, start) - 1, 0)
        hits: list[ElementExtent] = []
        for extent in self.extents[index:]:
            if extent.start >= end:
                break
            if extent.overlaps(start, end):
                hits.append(extent)
        return hits

    def paths_in_range(self, start: int, end: int) -> list[Path]:
        """Paths of the elements intersecting [start, end)."""
        return [extent.path for extent in self.elements_in_range(start, end)]
