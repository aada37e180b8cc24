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


def test_shared_segment_of_a_released_run_keeps_exactly_its_buffer():
    pool = BufferPool(8, 16, label="rx")
    # Four payloads in one run: three fit one buffer each, one spans two.
    chain = pool.dma_chain([b"a" * 16, b"b" * 4, b"c" * 20, b"d" * 12])
    assert [len(segment) for segment in chain] == [16, 4, 16, 4, 12]
    assert pool.available == 3
    for index, content in ((1, b"b" * 4), (3, b"c" * 4)):
        held = chain.segments[index].share()
        chain.release()
        # Only the buffer under the held segment stays out of the pool.
        assert pool.available == 7
        assert pool.leak_report() == [held.label]
        assert held.memoryview().tobytes() == content
        held.release()
        assert pool.available == 8
        assert pool.leak_report() == []
        if index == 1:
            chain = pool.dma_chain([b"a" * 16, b"b" * 4, b"c" * 20, b"d" * 12])
    assert pool.recycled == pool.hits == 10


def test_run_takes_the_buffers_single_allocations_would():
    run_pool = BufferPool(6, 8, label="p")
    single_pool = BufferPool(6, 8, label="p")
    pieces = [b"x" * 8, b"y" * 12, b"z" * 3]
    run = run_pool.dma_chain(pieces)
    singles = [single_pool.dma_chain(piece) for piece in pieces]
    assert [s.label for s in run] == [s.label for c in singles for s in c]
    assert run_pool.leak_report() == single_pool.leak_report()
    run.release()
    for chain in singles:
        chain.release()
    assert run_pool.leak_report() == single_pool.leak_report() == []


def test_returned_buffers_leave_before_never_used_ones_in_stack_order():
    run_pool = BufferPool(6, 8, label="p")
    single_pool = BufferPool(6, 8, label="p")
    for pool in (run_pool, single_pool):
        first, second = pool.allocate_segment(), pool.allocate_segment()
        assert (first.label, second.label) == ("p[5]", "p[4]")
        first.release()
    # One stack: the returned p[5] on top, then the never-used p[3], p[2].
    pieces = [b"x" * 8, b"y" * 8, b"z" * 8]
    run = run_pool.dma_chain(pieces)
    singles = [single_pool.dma_chain(piece) for piece in pieces]
    assert [s.label for s in run] == ["p[5]", "p[3]", "p[2]"]
    assert [s.label for c in singles for s in c] == ["p[5]", "p[3]", "p[2]"]
