"""Refcounted, memoryview-backed buffer segments.

The zero-copy datapath keeps a packet's bytes in place from the moment
they land (in a NIC pool buffer or the sender's ADU) until the single
final move into application memory.  What flows through the stack is a
:class:`Segment`: a window onto underlying storage that carries a shared
*reference cell*.  Slicing and sharing never copy — they add references
— and when the last reference is released the cell's ``on_zero`` hook
fires, which is how pool buffers recycle themselves (mbuf clusters and
Beck's exposed buffers work exactly this way).

Discipline: every :class:`Segment` instance owns exactly one reference.
``share``/``subview`` mint new instances (incrementing the cell);
``release`` retires this instance.  Releasing twice, or touching the
data after release, raises — both indicate lifecycle bugs that in a real
kernel would be use-after-free.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BufferError_


class _RefCell:
    """Shared reference count for one underlying buffer region."""

    __slots__ = ("count", "on_zero")

    def __init__(self, on_zero: Callable[[], None] | None = None):
        self.count = 0
        self.on_zero = on_zero


class Segment:
    """A refcounted zero-copy window over any buffer-protocol object.

    Args:
        data: the backing storage (``bytes``, ``bytearray``,
            ``memoryview``, a numpy array...).  Never copied.
        label: name used in errors, traces and pool leak reports.
        cell: internal — the reference cell to join; fresh when omitted.
    """

    __slots__ = ("_mv", "label", "_cell", "_alive")

    def __init__(
        self,
        data,
        label: str = "",
        cell: _RefCell | None = None,
    ):
        mv = data if isinstance(data, memoryview) else memoryview(data)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        self._mv: memoryview | None = mv
        self.label = label or f"seg@{id(self):x}"
        if cell is None:
            cell = _RefCell()
        cell.count += 1
        self._cell = cell
        self._alive = True

    @classmethod
    def wrap(
        cls,
        payload,
        label: str = "",
        on_zero: Callable[[], None] | None = None,
    ) -> "Segment":
        """Zero-copy segment over caller-owned storage.

        ``on_zero`` fires when the last reference is released — pools
        use it to recycle; callers can use it to observe lifetime.
        """
        if on_zero is None:
            return cls(payload, label=label)
        return cls(payload, label=label, cell=_RefCell(on_zero=on_zero))

    # ------------------------------------------------------------------
    # Data access (zero-copy except tobytes)

    def __len__(self) -> int:
        mv = self._mv
        return 0 if mv is None else len(mv)

    def memoryview(self) -> memoryview:
        """The backing window itself (no copy); raises after release."""
        mv = self._mv
        if mv is None:
            raise BufferError_(f"segment {self.label} used after release")
        return mv

    def tobytes(self) -> bytes:
        """Materialize the segment's bytes (a real read of the data)."""
        return bytes(self.memoryview())

    # ------------------------------------------------------------------
    # Reference management

    @property
    def refcount(self) -> int:
        """Live references to the underlying region."""
        return self._cell.count

    @property
    def alive(self) -> bool:
        """Whether this instance still owns its reference."""
        return self._alive

    def share(self) -> "Segment":
        """A new reference to the whole window (refcount + 1, no copy)."""
        return self.subview(0)

    def subview(self, offset: int, length: int | None = None) -> "Segment":
        """A narrower window sharing this segment's reference cell."""
        mv = self.memoryview()
        if length is None:
            length = len(mv) - offset
        if offset < 0 or length < 0 or offset + length > len(mv):
            raise BufferError_(
                f"subview [{offset}, {offset + length}) exceeds segment "
                f"{self.label} of length {len(mv)}"
            )
        return Segment(mv[offset : offset + length], label=self.label, cell=self._cell)

    def release(self) -> None:
        """Retire this reference; fires the recycle hook on the last one.

        Raises :class:`BufferError_` on a second release of the same
        instance — the accounting bug pools exist to surface.
        """
        if not self._alive:
            raise BufferError_(f"segment {self.label} released twice")
        self._alive = False
        self._mv = None
        cell = self._cell
        cell.count -= 1
        if cell.count == 0:
            on_zero = cell.on_zero
            if on_zero is not None:
                on_zero()

    def __repr__(self) -> str:
        state = "alive" if self._alive else "released"
        return (
            f"Segment({self.label!r}, length={len(self)}, "
            f"refcount={self._cell.count}, {state})"
        )
