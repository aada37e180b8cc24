"""Pool buffers and the zero-copy windows over them.

A pool buffer is one slice of its pool's slab; every
:class:`~repro.buffers.segment.Segment` the pool hands out is a window
onto one buffer, or onto a received run's adjacent buffers.  Reading,
narrowing or writing through a window never copies, windows are
bounds-checked, and no two buffers share storage.  Only the DMA fill
(the NIC writing a frame) and ``tobytes`` copy.
"""

import pytest

from repro.buffers.pool import BufferPool
from repro.errors import BufferError_


def window(payload: bytes, size: int = 16):
    """The pool, and a segment over one of its buffers holding
    ``payload`` (DMA'd in)."""
    pool = BufferPool(2, size, label="b")
    (segment,) = pool.dma_chain(payload).segments
    return pool, segment


def test_buffer_basic_rw():
    pool = BufferPool(1, 16, label="b")
    segment = pool.allocate_segment()
    segment.memoryview()[4:8] = b"abcd"
    assert segment.tobytes()[4:8] == b"abcd"
    assert segment.tobytes()[:4] == b"\x00" * 4
    segment.release()
    assert pool.leak_report() == []


def test_from_bytes_copies():
    # The DMA fill copies the frame into the pool buffer: the source
    # can change afterwards without touching what landed.
    src = bytearray(b"hello")
    pool, segment = window(src)
    src[0] = 0
    assert segment.tobytes() == b"hello"
    assert segment.memoryview().obj is not src
    segment.release()


def test_negative_size_rejected():
    with pytest.raises(BufferError_):
        BufferPool(1, -1)
    with pytest.raises(BufferError_):
        BufferPool(1, 8).allocate_segment(-1)


def test_write_out_of_range():
    # A window is exactly as long as asked, so a write through it
    # cannot reach the rest of the buffer.
    pool = BufferPool(1, 8, label="b")
    segment = pool.allocate_segment(4)
    with pytest.raises(ValueError):
        segment.memoryview()[2:] = b"abc"
    segment.release()
    assert pool.allocate_segment().tobytes() == bytes(8)


def test_read_out_of_range():
    pool, segment = window(b"01234567")
    with pytest.raises(BufferError_):
        segment.subview(6, 3)
    with pytest.raises(BufferError_):
        segment.subview(0, -1)
    segment.release()


def test_distinct_buffers_never_alias():
    # Every buffer is its own slice of the pool's one slab: filling a
    # window, a single buffer's or a whole run's, reaches no other.
    pool = BufferPool(4, 16, label="b")
    top = pool.allocate_segment()
    run = pool.dma_chain([b"\xee" * 16, b"\xdd" * 16])
    bottom = pool.allocate_segment()
    assert [top.label, *(s.label for s in run), bottom.label] == [
        "b[3]", "b[1:3]", "b[0]"
    ]
    top.memoryview()[:] = b"\xff" * 16
    bottom.memoryview()[:] = b"\xcc" * 16
    assert run.linearize() == b"\xee" * 16 + b"\xdd" * 16
    (extent,) = run.segments
    extent.memoryview()[:] = bytes(32)
    assert top.tobytes() == b"\xff" * 16
    assert bottom.tobytes() == b"\xcc" * 16
    for handle in (top, run, bottom):
        handle.release()
    assert pool.leak_report() == []


def test_view_tobytes():
    pool, segment = window(b"0123456789")
    view = segment.subview(2, 4)
    assert view.tobytes() == b"2345"
    assert len(view) == 4
    # Same storage, no copy: the window sits inside the buffer.
    assert view.memoryview().obj is segment.memoryview().obj
    # tobytes itself is a copy, unchanged by later writes.
    snapshot = view.tobytes()
    view.memoryview()[0] = ord("x")
    assert snapshot == b"2345"
    view.release()
    segment.release()


def test_view_defaults_to_rest():
    pool, segment = window(b"0123456789")
    rest = segment.subview(6)
    assert rest.tobytes() == b"6789"
    rest.release()
    segment.release()
    # A segment allocated without a length spans the whole buffer.
    assert len(pool.allocate_segment()) == pool.buffer_size


def test_view_bounds_checked():
    pool = BufferPool(1, 8, label="b")
    with pytest.raises(BufferError_):
        pool.allocate_segment(9)
    assert pool.in_use == 0
    assert pool.hits == 0


def test_subview():
    pool, segment = window(b"0123456789")
    view = segment.subview(2, 6)  # "234567"
    sub = view.subview(1, 3)
    assert sub.tobytes() == b"345"
    for held in (sub, view, segment):
        held.release()
    assert pool.leak_report() == []


def test_subview_bounds():
    pool, segment = window(b"0123")
    with pytest.raises(BufferError_):
        segment.subview(2, 5)
    segment.release()


def test_view_store():
    pool = BufferPool(1, 8, label="b")
    segment = pool.allocate_segment()
    view = segment.subview(2, 4)
    view.memoryview()[:2] = b"xy"
    assert segment.tobytes()[2:4] == b"xy"
    view.release()
    segment.release()


def test_view_store_overflow():
    pool = BufferPool(1, 8, label="b")
    segment = pool.allocate_segment()
    view = segment.subview(2, 2)
    with pytest.raises(ValueError):
        view.memoryview()[:] = b"abc"
    assert segment.tobytes() == bytes(8)
    view.release()
    segment.release()


def test_memoryview_is_writable_window():
    pool, segment = window(b"aaaa")
    view = segment.subview(1, 2)
    view.memoryview()[0] = ord("b")
    assert segment.tobytes() == b"abaa"
    view.release()
    segment.release()
