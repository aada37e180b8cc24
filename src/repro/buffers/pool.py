"""Fixed-size buffer pools.

Network interfaces and kernels hold finite buffer memory; flow control
exists precisely because the receiver's pool can be exhausted.  A pool
is one slab of ``n_buffers × buffer_size`` bytes, buffer *i* at offset
*i × buffer_size*, and hands out refcounted
:class:`~repro.buffers.segment.Segment` windows over it
(:meth:`BufferPool.allocate_segment`, :meth:`BufferPool.dma_chain`), so
the transport simulations get realistic backpressure.  A segment's
reference cell hands its buffers back to the pool, scrubbed, when the
last reference anywhere in the stack is released — mbuf clusters, in
miniature.  A buffer gets one slotted :class:`_PoolCell` the first
time it is handed out alone or as a one-buffer run, and keeps it; a
received run's adjacent buffers share one for as long as the run lives.
"""

from __future__ import annotations

import mmap

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.errors import BufferError_
from repro.machine.accounting import DATAPATH


class _PoolCell:
    """The reference cell of an extent of a pool's slab: buffers
    ``first`` up to ``first + need``, and their state.

    Duck-types :class:`~repro.buffers.segment._RefCell` for every
    segment over the extent: when the last reference is released,
    ``on_zero`` hands its buffers back.  A buffer handed out alone, or
    as a one-buffer run, has a one-buffer cell, made the first time and
    kept; a longer run gets a cell over all of its buffers for as long
    as it lives.  ``window`` is the extent's slice of the slab, what
    segments are sliced from.  ``out`` says the extent is handed out;
    ``filled`` bounds the bytes its holder could have written from its
    start, so the return scrubs only those.
    """

    __slots__ = (
        "count", "pool", "first", "need", "label", "window", "out", "filled",
    )

    def __init__(self, pool: "BufferPool", first: int, need: int):
        size = pool.buffer_size
        self.count = 0
        self.pool = pool
        self.first = first
        self.need = need
        self.label = (
            f"{pool.label}[{first}]"
            if need == 1
            else f"{pool.label}[{first}:{first + need}]"
        )
        self.window = pool._slab[first * size : (first + need) * size]
        self.out = False
        self.filled = 0

    def on_zero(self) -> None:
        """Return the extent's buffers to the pool, zeroed, ascending.

        Rejects an extent that is already back (double release), since
        that indicates an accounting bug in the caller.
        """
        pool = self.pool
        if not self.out:
            raise BufferError_(
                f"buffer {self.label} was not allocated from "
                f"{pool.label} or was already released"
            )
        self.out = False
        pool.recycled += self.need
        filled = self.filled
        if filled:
            # A memoryview store copies once; a bytearray slice store
            # would first copy its source into a temporary.
            self.window[:filled] = pool._zeros[:filled]
        first = self.first
        pool._free += range(first, first + self.need)


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
        # The slab is a private anonymous mapping: the kernel hands it
        # out zeroed, and a page costs a fault and memory only when a
        # buffer on it is first written, not when the pool is built.
        self._slab = memoryview(
            mmap.mmap(-1, n_buffers * buffer_size, flags=mmap.MAP_PRIVATE)
        )
        # Returned buffers are scrubbed from this one zero block, as
        # long as the slab.  ``bytes(n)`` is calloc'd: its pages cost
        # memory only once a scrub has read them.
        self._zeros = memoryview(bytes(n_buffers * buffer_size))
        # The free buffers' indices form one stack, popped from the top;
        # a fresh pool hands out buffer n-1 first.
        self._free = list(range(n_buffers))
        self._cells: list[_PoolCell | None] = [None] * n_buffers
        self.allocation_failures = 0
        self.hits = 0
        self.recycled = 0
        self.scattered_runs = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self.capacity - self.available

    def _take(self) -> _PoolCell | None:
        """Hand out one free buffer's cell, or count the failure and
        return None when the pool is empty."""
        free = self._free
        if not free:
            self.allocation_failures += 1
            return None
        index = free.pop()
        cell = self._cells[index]
        if cell is None:
            cell = self._cells[index] = _PoolCell(self, index, 1)
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
        train's fragments of one ADU.  The run takes the buffers
        separate calls would (the top Σ⌈len/buffer_size⌉ of the free
        stack) and, when they are adjacent in the slab, in any stack
        order, lands in them back to back: one segment over the whole
        run, one DMA write recorded per non-empty payload, and one
        reference cell that returns all of them on the last release —
        so a share of any part of the chain keeps the whole run out.  A
        run lands this way or not at all: when the pool has too few free
        buffers, or the ones it would take are not adjacent (counted in
        ``scattered_runs``), nothing is allocated and no failure is
        counted — the caller falls back to one call per payload.
        """
        if isinstance(payload, list):
            size = self.buffer_size
            need = total = writes = 0
            for piece in payload:
                length = len(piece)
                if length:
                    total += length
                    need += -(-length // size)
                    writes += 1
            if not need:
                return BufferChain()
            free = self._free
            if need > len(free):
                return None
            if need == 1:
                # A one-buffer run is that buffer's own kept cell.
                first = free[-1]
                cell = self._cells[first]
                if cell is None:
                    cell = self._cells[first] = _PoolCell(self, first, 1)
            else:
                # The top ``need`` indices are distinct: they are one
                # extent exactly when they span ``need`` buffers.
                taken = free[-need:]
                first = min(taken)
                if max(taken) - first >= need:
                    self.scattered_runs += 1
                    return None
                cell = _PoolCell(self, first, need)
            del free[-need:]
            self.hits += need
            cell.out = True
            cell.filled = total
            extent = cell.window[:total]
            offset = 0
            for piece in payload:
                end = offset + len(piece)
                extent[offset:end] = piece
                offset = end
            DATAPATH.record_dma(total, writes)
            chain = BufferChain()
            chain._segments.append(Segment(extent, cell.label, cell))
            return chain
        chain = BufferChain()
        size = self.buffer_size
        total = len(payload)
        if total > size:
            payload = memoryview(payload)
        # The segments are non-empty by construction, so they go
        # straight onto the chain's segment list.
        append = chain._segments.append
        offset = 0
        while offset < total:
            cell = self._take()
            if cell is None:
                chain.release()
                return None
            filled = total - offset
            if filled > size:
                filled = size
            window = cell.window[:filled]
            window[:] = (
                payload if filled == total else payload[offset : offset + filled]
            )
            cell.filled = filled
            append(Segment(window, cell.label, cell))
            offset += filled
        if total:
            DATAPATH.record_dma(total)
        return chain

    # ------------------------------------------------------------------
    # Introspection

    def leak_report(self) -> list[str]:
        """Labels of buffers allocated but never released (suspected leaks)."""
        free = set(self._free)
        return sorted(
            f"{self.label}[{index}]"
            for index in range(self.capacity)
            if index not in free
        )

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
            "scattered_runs": self.scattered_runs,
            "leaked": self.leak_report(),
        }

    def __repr__(self) -> str:
        return (
            f"BufferPool({self.label!r}, {self.available}/{self.capacity} free, "
            f"buffer_size={self.buffer_size})"
        )
