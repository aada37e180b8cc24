"""Refcounted segments and pool recycling under the zero-copy discipline."""

from __future__ import annotations

import pytest

from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.buffers.segment import Segment
from repro.errors import BufferError_
from repro.machine.accounting import datapath_counters


class TestSegmentLifecycle:
    def test_wrap_is_zero_copy(self):
        payload = bytes(range(64))
        segment = Segment.wrap(payload, label="t")
        assert segment.tobytes() == payload
        # The segment's view aliases the wrapped object's storage.
        assert segment.memoryview().obj is payload

    def test_share_increments_subview_slices(self):
        segment = Segment.wrap(b"abcdefgh", label="t")
        assert segment.refcount == 1
        twin = segment.share()
        assert segment.refcount == 2
        sub = segment.subview(2, 4)
        assert segment.refcount == 3
        assert sub.tobytes() == b"cdef"
        sub.release()
        twin.release()
        segment.release()

    def test_double_release_raises(self):
        segment = Segment.wrap(b"x" * 8, label="t")
        segment.release()
        with pytest.raises(BufferError_):
            segment.release()

    def test_use_after_release_raises(self):
        segment = Segment.wrap(b"x" * 8, label="t")
        segment.release()
        with pytest.raises(BufferError_):
            segment.tobytes()
        with pytest.raises(BufferError_):
            segment.subview(0, 4)

    def test_on_zero_fires_exactly_once_at_last_release(self):
        fired = []
        segment = Segment.wrap(b"y" * 16, label="t", on_zero=lambda: fired.append(1))
        twin = segment.share()
        segment.release()
        assert fired == []
        twin.release()
        assert fired == [1]


class TestPoolRecycling:
    def test_segment_release_recycles_buffer(self):
        pool = BufferPool(2, 64, label="p")
        segment = pool.allocate_segment(48)
        assert pool.in_use == 1
        assert pool.snapshot()["hits"] == 1
        segment.release()
        assert pool.in_use == 0
        assert pool.snapshot()["recycled"] == 1

    def test_recycle_waits_for_every_reference(self):
        pool = BufferPool(1, 64, label="p")
        segment = pool.allocate_segment(64)
        sub = segment.subview(0, 32)
        segment.release()
        assert pool.in_use == 1  # subview still holds the buffer
        sub.release()
        assert pool.in_use == 0

    def test_double_release_of_pooled_segment_raises(self):
        pool = BufferPool(1, 64, label="p")
        segment = pool.allocate_segment(16)
        segment.release()
        with pytest.raises(BufferError_):
            segment.release()
        # The failed second release must not corrupt the free list.
        assert pool.available == 1

    def test_leak_report_names_outstanding_segments(self):
        pool = BufferPool(2, 64, label="p")
        held = pool.allocate_segment(64)
        leaks = pool.leak_report()
        assert len(leaks) == 1 and "p" in leaks[0]
        held.release()
        assert pool.leak_report() == []

    def test_hit_miss_counters(self):
        pool = BufferPool(1, 64, label="p")
        segment = pool.allocate_segment(64)
        assert pool.try_allocate_segment(64) is None
        snap = pool.snapshot()
        assert snap["hits"] == 1 and snap["allocation_failures"] == 1
        assert "misses" not in snap
        segment.release()

    def test_dma_chain_spans_buffers_and_recycles(self):
        pool = BufferPool(4, 16, label="p")
        payload = bytes(range(40))  # needs 3 buffers of 16
        chain = pool.dma_chain(payload)
        assert chain is not None
        assert len(chain.segments) == 3
        assert chain.linearize() == payload
        chain.release()
        assert pool.in_use == 0
        assert pool.snapshot()["recycled"] == 3

    def test_dma_chain_exhaustion_returns_none_without_leaking(self):
        pool = BufferPool(2, 16, label="p")
        assert pool.dma_chain(bytes(48)) is None  # needs 3, only 2 exist
        assert pool.in_use == 0  # partial allocation was rolled back
        assert pool.snapshot()["allocation_failures"] == 1

    def test_dma_chain_run_is_one_segment_over_its_buffers(self):
        pool = BufferPool(8, 16, label="p")
        payloads = [bytes(range(10)), bytes(range(20, 40)), bytes(range(50, 66))]
        dma = datapath_counters()
        writes, written = dma.dma_writes, dma.dma_bytes
        chain = pool.dma_chain(payloads)
        # The payloads land back to back in one segment over the four
        # adjacent buffers separate calls would take (1 + 2 + 1); one
        # DMA write is still recorded per payload.
        (segment,) = chain.segments
        assert segment.label == "p[4:8]"
        assert segment.tobytes() == b"".join(payloads)
        assert dma.dma_writes - writes == 3
        assert dma.dma_bytes - written == 46
        assert pool.in_use == 4
        chain.release()
        assert pool.in_use == 0
        assert pool.recycled == 4

    def test_dma_chain_run_lands_whole_or_not_at_all(self):
        pool = BufferPool(3, 16, label="p")
        assert pool.dma_chain([bytes(16)] * 4) is None
        # Nothing was allocated and no failure counted: the caller
        # falls back to one call per payload.
        snap = pool.snapshot()
        assert snap["in_use"] == 0
        assert snap["hits"] == snap["allocation_failures"] == 0

    def test_recycled_segment_buffers_are_scrubbed(self):
        pool = BufferPool(4, 16, label="p")
        chain = pool.dma_chain([b"\xff" * 16, b"\xee" * 12, b"\xdd" * 16])
        chain.release()
        assert pool.snapshot()["recycled"] == 3
        # The last reference handed every buffer back zeroed, so the
        # next user of the pool never reads an earlier frame.
        segments = [pool.allocate_segment() for _ in range(4)]
        assert all(segment.tobytes() == bytes(16) for segment in segments)
        for segment in segments:
            segment.release()
        assert pool.leak_report() == []


class TestChainReferenceDiscipline:
    def test_split_and_release_balance(self):
        pool = BufferPool(4, 32, label="p")
        chain = pool.dma_chain(bytes(range(100)))
        head, tail = chain.split(37)
        assert head.linearize() == bytes(range(37))
        assert tail.linearize() == bytes(range(37, 100))
        chain.release()
        assert pool.in_use > 0  # head/tail hold their own references
        head.release()
        tail.release()
        assert pool.in_use == 0

    def test_chunks_release_balance(self):
        pool = BufferPool(4, 32, label="p")
        chain = pool.dma_chain(bytes(range(100)))
        pieces = list(chain.chunks(44))
        assert b"".join(p.linearize() for p in pieces) == bytes(range(100))
        chain.release()
        for piece in pieces:
            piece.release()
        assert pool.in_use == 0
        assert pool.leak_report() == []
