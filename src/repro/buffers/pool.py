"""Fixed-size buffer pools.

Network interfaces and kernels hold finite buffer memory; flow control
exists precisely because the receiver's pool can be exhausted.  The pool
hands out refcounted :class:`~repro.buffers.segment.Segment` windows over
its fixed-size buffers (:meth:`BufferPool.allocate_segment`,
:meth:`BufferPool.dma_chain`), so the transport simulations get
realistic backpressure.  Each buffer gets one slotted :class:`_PoolCell`
the first time it is handed out: the owner of its storage and the
reference cell of every segment over it, whose ``on_zero`` returns the
buffer to the pool automatically when the last reference anywhere in the
stack is released — mbuf clusters, in miniature.
"""

from __future__ import annotations

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.errors import BufferError_
from repro.machine.accounting import datapath_counters


class _PoolCell:
    """One pool buffer's record: its storage, reference cell and pool state.

    Duck-types :class:`~repro.buffers.segment._RefCell` for every
    segment over the buffer: when the last reference is released,
    ``on_zero`` hands the buffer back.  Made once per buffer, the first
    time the pool hands it out, around the buffer's ``bytearray``:
    ``window``, a memoryview over the whole of it, owns the storage and
    is what segments are sliced from.  ``out`` says the buffer is handed
    out; ``filled`` bounds the bytes its holder could have written, so
    the return scrubs only those.
    """

    __slots__ = ("count", "pool", "label", "window", "out", "filled")

    def __init__(self, pool: "BufferPool", data: bytearray, index: int):
        self.count = 0
        self.pool = pool
        self.label = f"{pool.label}[{index}]"
        self.window = memoryview(data)
        self.out = False
        self.filled = 0
        pool._cells.append(self)

    def on_zero(self) -> None:
        """Return the buffer to its pool, zeroed.

        Rejects a buffer that is already back (double release), since
        that indicates an accounting bug in the caller.
        """
        pool = self.pool
        if not self.out:
            raise BufferError_(
                f"buffer {self.label} was not allocated from "
                f"{pool.label} or was already released"
            )
        self.out = False
        pool.recycled += 1
        filled = self.filled
        if filled:
            # A memoryview store copies once; a bytearray slice store
            # would first copy its source into a temporary.
            self.window[:filled] = pool._zeros[:filled]
        pool._free.append(self)


class BufferPool:
    """Allocator of fixed-size buffers with a hard capacity.

    Every free buffer reads all-zero: a buffer's bytes are scrubbed as
    it comes back, as far as its holder could have written them.

    Args:
        n_buffers: number of buffers in the pool.
        buffer_size: size of each buffer in bytes.
        label: name used in errors and traces.
    """

    def __init__(self, n_buffers: int, buffer_size: int, label: str = "pool"):
        if n_buffers <= 0:
            raise BufferError_(f"n_buffers must be positive, got {n_buffers}")
        if buffer_size <= 0:
            raise BufferError_(f"buffer_size must be positive, got {buffer_size}")
        self.label = label
        self.buffer_size = buffer_size
        self.capacity = n_buffers
        # The free buffers form one stack, popped from the top: the
        # storage of buffers never handed out at the bottom (``_fresh``,
        # buffer ``i`` at index ``i``), the cells of returned ones above
        # them (``_free``).  ``_cells`` lists every cell made so far.
        self._fresh: list[bytearray] = [
            bytearray(buffer_size) for _ in range(n_buffers)
        ]
        self._free: list[_PoolCell] = []
        self._cells: list[_PoolCell] = []
        # Returned buffers are scrubbed from this one zero block.
        self._zeros = memoryview(bytes(buffer_size))
        self.allocation_failures = 0
        self.hits = 0
        self.recycled = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return len(self._free) + len(self._fresh)

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self.capacity - self.available

    def _stock(self, k: int) -> bool:
        """Make the top ``k`` of the free stack cells, giving the
        never-used buffers among them theirs; False when fewer than
        ``k`` buffers are free.  The new cells go below the returned
        ones, where their buffers sat, so buffers leave in the order one
        stack of buffers would hand them out."""
        short = k - len(self._free)
        if short > 0:
            fresh = self._fresh
            if short > len(fresh):
                return False
            first = len(fresh) - short
            cells = [_PoolCell(self, fresh[i], i) for i in range(first, len(fresh))]
            del fresh[first:]
            self._free[:0] = cells
        return True

    def _take(self) -> _PoolCell | None:
        """Hand out one free buffer's cell, or count the failure and
        return None when the pool is empty."""
        if not self._free and not self._stock(1):
            self.allocation_failures += 1
            return None
        cell = self._free.pop()
        cell.out = True
        self.hits += 1
        return cell

    # ------------------------------------------------------------------
    # Segment allocation (the zero-copy receive path)

    def try_allocate_segment(self, length: int | None = None) -> Segment | None:
        """A refcounted window over a pool buffer, or None when exhausted.

        The buffer recycles itself when the segment's last reference is
        released — callers never hand the buffer back explicitly.
        """
        if length is None:
            length = self.buffer_size
        if length < 0 or length > self.buffer_size:
            raise BufferError_(
                f"segment of {length} bytes exceeds {self.label} "
                f"buffer_size={self.buffer_size}"
            )
        cell = self._take()
        if cell is None:
            return None
        cell.filled = length
        return Segment(cell.window[:length], cell.label, cell)

    def allocate_segment(self, length: int | None = None) -> Segment:
        """Like :meth:`try_allocate_segment`, raising when exhausted."""
        segment = self.try_allocate_segment(length)
        if segment is None:
            raise BufferError_(f"{self.label} exhausted ({self.capacity} buffers)")
        return segment

    def dma_chain(self, payload) -> BufferChain | None:
        """Model the NIC writing ``payload`` into pooled receive buffers.

        Fills as many fixed-size segments as the payload needs and chains
        them.  Returns None (a dropped frame) when the pool cannot cover
        the payload — the partial allocation is released first, so drops
        never leak buffers.  The fill is recorded as DMA (bus traffic),
        not as a CPU copy: from the CPU's point of view the data arrives
        in place, which is where the zero-copy path starts.

        ``payload`` may also be a *run*: a list of payloads, such as one
        train's fragments of one ADU.  Each payload fills its own
        segments and records its own DMA write, exactly as separate calls
        would, and the result is one chain over all of them in order.  A
        run lands whole or not at all: when the pool has fewer free
        buffers than it needs, nothing is allocated and no failure is
        counted — the caller falls back to one call per payload.
        """
        chain = BufferChain()
        if isinstance(payload, list):
            size = self.buffer_size
            need = sum([-(-len(piece) // size) for piece in payload])
            free = self._free
            if need > len(free) and not self._stock(need):
                return None
            # The run's k buffers leave the free list in one slice, in
            # the order k single allocations would pop them.
            taken = free[len(free) - need :]
            del free[len(free) - need :]
            taken.reverse()
            self.hits += need
            self._fill(payload, chain, iter(taken).__next__)
            return chain
        if not self._fill((payload,), chain, self._take):
            chain.release()
            return None
        return chain

    def _fill(self, payloads, chain: BufferChain, take) -> bool:
        """DMA each payload into fresh segments appended to ``chain``, one
        DMA write per payload; False when the pool ran dry part-way.
        ``take()`` supplies each buffer's cell (None when dry): the next
        of the buffers a run already took, or a fresh allocation.  The
        segments are non-empty by construction, so they go straight onto
        the chain's segment list."""
        size = self.buffer_size
        record_dma = datapath_counters().record_dma
        append = chain._segments.append
        for payload in payloads:
            total = len(payload)
            if total > size:
                payload = memoryview(payload)
            offset = 0
            while offset < total:
                cell = take()
                if cell is None:
                    return False
                filled = total - offset
                if filled > size:
                    filled = size
                window = cell.window[:filled]
                window[:] = (
                    payload if filled == total else payload[offset : offset + filled]
                )
                cell.out = True
                cell.filled = filled
                append(Segment(window, cell.label, cell))
                offset += filled
            if total:
                record_dma(total)
        return True

    # ------------------------------------------------------------------
    # Introspection

    def leak_report(self) -> list[str]:
        """Labels of buffers allocated but never released (suspected leaks)."""
        return sorted(cell.label for cell in self._cells if cell.out)

    def snapshot(self) -> dict[str, object]:
        """Plain-dict counters for the CLI and benchmark records."""
        return {
            "label": self.label,
            "capacity": self.capacity,
            "buffer_size": self.buffer_size,
            "available": self.available,
            "in_use": self.in_use,
            "hits": self.hits,
            "recycled": self.recycled,
            "allocation_failures": self.allocation_failures,
            "leaked": self.leak_report(),
        }

    def __repr__(self) -> str:
        return (
            f"BufferPool({self.label!r}, {self.available}/{self.capacity} free, "
            f"buffer_size={self.buffer_size})"
        )
