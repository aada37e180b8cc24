"""Fixed-size buffer pools.

Network interfaces and kernels hold finite buffer memory; flow control
exists precisely because the receiver's pool can be exhausted.  The pool
hands out fixed-size :class:`Buffer` objects and recycles them, so the
transport simulations get realistic backpressure.

For the zero-copy datapath the pool also hands out refcounted
:class:`~repro.buffers.segment.Segment` windows over its buffers
(:meth:`BufferPool.allocate_segment`, :meth:`BufferPool.dma_chain`): the
segment's reference cell is a slotted :class:`_PoolCell` holding
``(pool, buffer)``, whose ``on_zero`` returns the buffer to the pool
automatically when the last reference anywhere in the stack is
released — mbuf clusters, in miniature.
"""

from __future__ import annotations

from repro.buffers.buffer import Buffer
from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.errors import BufferError_
from repro.machine.accounting import datapath_counters


class _PoolCell:
    """The reference cell of one pool buffer's segments.

    Duck-types :class:`~repro.buffers.segment._RefCell`: when the last
    reference to the buffer's segment is released, ``on_zero`` hands the
    buffer back to its pool.  One slotted record per buffer, no closure.
    """

    __slots__ = ("count", "pool", "buffer")

    def __init__(self, pool: "BufferPool", buffer: Buffer):
        self.count = 0
        self.pool = pool
        self.buffer = buffer

    def on_zero(self) -> None:
        pool = self.pool
        pool.recycled += 1
        pool.release(self.buffer)


class BufferPool:
    """Allocator of fixed-size buffers with a hard capacity.

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
        self._free: list[Buffer] = [
            Buffer(buffer_size, label=f"{label}[{i}]") for i in range(n_buffers)
        ]
        # id(buffer) -> label for every buffer handed out and not yet
        # returned: membership is what "outstanding" means.
        self._outstanding: dict[int, str] = {}
        # Released buffers are scrubbed from this one zero block.
        self._zeros = bytes(buffer_size)
        self.allocation_failures = 0
        self.hits = 0
        self.misses = 0
        self.recycled = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self.capacity - len(self._free)

    def try_allocate(self) -> Buffer | None:
        """Take a buffer, or return None (and count the failure) if empty."""
        if not self._free:
            self.allocation_failures += 1
            self.misses += 1
            return None
        buffer = self._free.pop()
        self._outstanding[id(buffer)] = buffer.label
        self.hits += 1
        return buffer

    def allocate(self) -> Buffer:
        """Take a buffer; raises :class:`BufferError_` when exhausted."""
        buffer = self.try_allocate()
        if buffer is None:
            raise BufferError_(f"{self.label} exhausted ({self.capacity} buffers)")
        return buffer

    def release(self, buffer: Buffer) -> None:
        """Return a buffer to the pool.

        Rejects buffers that did not come from this pool or are already
        free (double release), since both indicate accounting bugs in the
        caller.
        """
        if self._outstanding.pop(id(buffer), None) is None:
            raise BufferError_(
                f"buffer {buffer.label} was not allocated from {self.label} "
                "or was already released"
            )
        # A memoryview store copies once; a bytearray slice store would
        # first copy its source into a temporary.
        memoryview(buffer.data)[:] = self._zeros
        self._free.append(buffer)

    # ------------------------------------------------------------------
    # Refcounted segment allocation (the zero-copy receive path)

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
        buffer = self.try_allocate()
        if buffer is None:
            return None
        return Segment(
            memoryview(buffer.data)[:length],
            label=buffer.label,
            cell=_PoolCell(self, buffer),
        )

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
        if isinstance(payload, list):
            size = self.buffer_size
            need = sum(-(-len(piece) // size) for piece in payload)
            free = self._free
            if need > len(free):
                return None
            # The run's k buffers leave the free list in one slice, in
            # the order k single allocations would pop them.
            taken = free[len(free) - need :]
            del free[len(free) - need :]
            taken.reverse()
            outstanding = self._outstanding
            for buffer in taken:
                outstanding[id(buffer)] = buffer.label
            self.hits += need
            segments: list[Segment] = []
            self._fill(payload, segments, iter(taken))
            return BufferChain(segments)
        segments = []
        if not self._fill((payload,), segments):
            for allocated in segments:
                allocated.release()
            return None
        return BufferChain(segments)

    def _fill(self, payloads, segments: list[Segment], buffers=None) -> bool:
        """DMA each payload into fresh segments appended to ``segments``,
        one DMA write per payload; False when the pool ran dry part-way.
        ``buffers`` supplies buffers a run already took; by default each
        is allocated here."""
        size = self.buffer_size
        record_dma = datapath_counters().record_dma
        for payload in payloads:
            total = len(payload)
            if total > size:
                payload = memoryview(payload)
            for offset in range(0, total, size):
                buffer = self.try_allocate() if buffers is None else next(buffers)
                if buffer is None:
                    return False
                piece = payload if total <= size else payload[offset : offset + size]
                window = memoryview(buffer.data)[: len(piece)]
                window[:] = piece
                segments.append(Segment(window, buffer.label, _PoolCell(self, buffer)))
            if total:
                record_dma(total)
        return True

    # ------------------------------------------------------------------
    # Introspection

    def leak_report(self) -> list[str]:
        """Labels of buffers allocated but never released (suspected leaks)."""
        return sorted(self._outstanding.values())

    def snapshot(self) -> dict[str, object]:
        """Plain-dict counters for the CLI and benchmark records."""
        return {
            "label": self.label,
            "capacity": self.capacity,
            "buffer_size": self.buffer_size,
            "available": self.available,
            "in_use": self.in_use,
            "hits": self.hits,
            "misses": self.misses,
            "recycled": self.recycled,
            "allocation_failures": self.allocation_failures,
            "leaked": self.leak_report(),
        }

    def __repr__(self) -> str:
        return (
            f"BufferPool({self.label!r}, {self.available}/{self.capacity} free, "
            f"buffer_size={self.buffer_size})"
        )


_SHARED_RX_POOL: BufferPool | None = None


def shared_rx_pool() -> BufferPool:
    """The process-wide receive pool hosts DMA into by default.

    Sized generously (256 × 8 KiB) so simulations only hit exhaustion
    when they configure their own, smaller pools on purpose.
    """
    global _SHARED_RX_POOL
    if _SHARED_RX_POOL is None:
        _SHARED_RX_POOL = BufferPool(256, 8192, label="rx-pool")
    return _SHARED_RX_POOL
