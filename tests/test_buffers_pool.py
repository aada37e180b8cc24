"""Buffer pools: finite capacity and correct recycling."""

import pytest

from repro.buffers.pool import BufferPool
from repro.errors import BufferError_


def test_construction_validates():
    with pytest.raises(BufferError_):
        BufferPool(0, 100)
    with pytest.raises(BufferError_):
        BufferPool(4, 0)


def test_allocate_release_cycle():
    pool = BufferPool(2, 64)
    a = pool.allocate_segment()
    assert pool.available == 1
    assert pool.in_use == 1
    a.release()
    assert pool.available == 2


def test_exhaustion_raises():
    pool = BufferPool(1, 64)
    pool.allocate_segment()
    with pytest.raises(BufferError_, match="exhausted"):
        pool.allocate_segment()


def test_try_allocate_counts_failures():
    pool = BufferPool(1, 64)
    assert pool.try_allocate_segment() is not None
    assert pool.try_allocate_segment() is None
    assert pool.allocation_failures == 1


def test_double_release_rejected():
    pool = BufferPool(2, 64)
    segment = pool.allocate_segment()
    cell = segment._cell
    segment.release()
    with pytest.raises(BufferError_):
        segment.release()
    # The buffer itself cannot go back twice either.
    with pytest.raises(BufferError_, match="already released"):
        cell.on_zero()
    assert pool.available == 2


def test_release_zeroes_contents():
    pool = BufferPool(1, 8)
    segment = pool.allocate_segment()
    segment.memoryview()[:] = b"secret!!"
    segment.release()
    again = pool.allocate_segment()
    assert again.tobytes() == b"\x00" * 8


def test_buffers_have_declared_size():
    pool = BufferPool(3, 128)
    assert len(pool.allocate_segment()) == 128


def test_shared_segment_of_a_released_run_keeps_exactly_its_runs_buffers():
    pool = BufferPool(8, 16, label="rx")
    other = pool.allocate_segment()
    # Four payloads in one run take five buffers (one spans two), which
    # it fills back to back as one segment.
    chain = pool.dma_chain([b"a" * 16, b"b" * 4, b"c" * 20, b"d" * 12])
    assert [len(segment) for segment in chain] == [52]
    assert pool.available == 2
    held = chain.segments[0].subview(16, 8)
    chain.release()
    other.release()
    # A share of eight bytes keeps every buffer of its run out, and
    # nothing else.
    assert pool.available == 3
    assert pool.leak_report() == [f"rx[{index}]" for index in range(2, 7)]
    assert held.tobytes() == b"b" * 4 + b"c" * 4
    held.release()
    assert pool.available == 8
    assert pool.leak_report() == []
    assert pool.recycled == pool.hits == 6


def test_run_takes_the_buffers_single_allocations_would():
    # However compactly a run lands, it occupies what one DMA per
    # payload would: sum(ceil(len / buffer_size)) buffers, 1 + 2 + 1.
    pieces = [b"x" * 8, b"y" * 12, b"z" * 3]
    for capacity in (3, 4, 6):
        run_pool = BufferPool(capacity, 8, label="p")
        single_pool = BufferPool(capacity, 8, label="p")
        run = run_pool.dma_chain(pieces)
        singles = [single_pool.dma_chain(piece) for piece in pieces]
        # The same pools run dry: the run lands exactly when every
        # separate call does, and a run that does not takes nothing.
        fits = capacity >= 4
        assert (run is not None) == (None not in singles) == fits
        if not fits:
            assert run_pool.available == capacity
            for chain in singles:
                if chain is not None:
                    chain.release()
            continue
        assert run_pool.available == single_pool.available == capacity - 4
        assert len(run_pool.leak_report()) == len(single_pool.leak_report()) == 4
        assert run_pool.hits == single_pool.hits == 4
        run.release()
        for chain in singles:
            chain.release()
        assert run_pool.available == single_pool.available == capacity
        assert run_pool.recycled == single_pool.recycled == 4
        assert run_pool.leak_report() == single_pool.leak_report() == []


def test_returned_buffers_leave_before_never_used_ones_in_stack_order():
    pool = BufferPool(6, 8, label="p")
    first, second = pool.allocate_segment(), pool.allocate_segment()
    assert (first.label, second.label) == ("p[5]", "p[4]")
    first.release()
    # One stack: the returned p[5] on top, then the never-used p[3], p[2].
    # Those are not adjacent, so a run of three takes nothing and is
    # counted; separate calls take them in stack order.
    pieces = [b"x" * 8, b"y" * 8, b"z" * 8]
    assert pool.dma_chain(pieces) is None
    assert pool.scattered_runs == 1
    assert pool.available == 5 and pool.allocation_failures == 0
    singles = [pool.dma_chain(piece) for piece in pieces]
    assert [s.label for c in singles for s in c] == ["p[5]", "p[3]", "p[2]"]
    for chain in (second, *singles):
        chain.release()
    # Returned in that order, p[3] and p[2] are the top two, adjacent in
    # the slab though not in stack order: a run of two lands on both.
    (extent,) = pool.dma_chain(pieces[:2]).segments
    assert extent.label == "p[2:4]"
    assert pool.scattered_runs == 1
    extent.release()
    assert pool.leak_report() == []
