"""Property: a pool returns every buffer clean, whatever its users did.

Hypothesis draws a pool and a program against it — single DMAs and runs
of 1 byte to three buffers each, ``allocate_segment`` windows written
through, whole-buffer segments written anywhere, shares and subviews of
held segments, and fills that run the pool dry part-way — then releases
every handle in a drawn order.  Whatever the order:

* every buffer back on the free list reads all-zero;
* ``leak_report()`` ends empty, and lists every held buffer before that;
* a second release of any segment still raises, and so does touching a
  released segment.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.buffers.segment import Segment
from repro.errors import BufferError_

SIZES = (8, 16, 64)


@st.composite
def programs(draw):
    """A pool's shape and the operations run against it."""
    size = draw(st.sampled_from(SIZES))
    n_buffers = draw(st.integers(1, 12))
    payload = st.binary(min_size=1, max_size=3 * size)
    index = st.integers(0, 10_000)
    op = st.one_of(
        st.tuples(st.just("dma"), payload),
        st.tuples(st.just("run"), st.lists(payload, min_size=1, max_size=4)),
        st.tuples(
            st.just("segment"), st.integers(0, size), st.binary(max_size=size)
        ),
        st.tuples(st.just("buffer"), st.binary(max_size=size), st.integers(0, size)),
        st.tuples(st.just("share"), index),
        st.tuples(st.just("subview"), index, index, index),
    )
    return size, n_buffers, draw(st.lists(op, max_size=24))


def held_segments(handles) -> list[Segment]:
    """Every pooled segment a handle holds, in order."""
    segments = []
    for handle in handles:
        if isinstance(handle, BufferChain):
            segments.extend(handle.segments)
        elif isinstance(handle, Segment):
            segments.append(handle)
    return segments


def run_program(pool: BufferPool, ops) -> list:
    """Execute ``ops``; returns the handles (chains and segments) still
    held, each checked to read what was written into it."""
    handles: list = []
    expected: dict[int, bytes] = {}
    for op in ops:
        kind = op[0]
        if kind in ("dma", "run"):
            payload = op[1]
            free = pool.available
            need = sum(-(-len(piece) // pool.buffer_size)
                       for piece in (payload if kind == "run" else [payload]))
            chain = pool.dma_chain(payload)
            if need > free:
                # A dry pool drops the frame: a run allocates nothing,
                # a single DMA rolls its partial fill back.
                assert chain is None
                assert pool.available == free
                continue
            data = b"".join(payload) if kind == "run" else payload
            assert chain is not None and chain.linearize() == data
            expected[id(chain)] = data
            handles.append(chain)
        elif kind == "segment":
            _, length, data = op
            segment = pool.try_allocate_segment(length)
            if segment is None:
                continue
            data = data[:length]
            segment.memoryview()[: len(data)] = data
            expected[id(segment)] = data + bytes(length - len(data))
            handles.append(segment)
        elif kind == "buffer":
            _, data, offset = op
            segment = pool.try_allocate_segment()
            if segment is None:
                continue
            # A whole-buffer segment's holder may write anywhere in it.
            offset = min(offset, len(segment) - len(data))
            segment.memoryview()[offset : offset + len(data)] = data
            expected[id(segment)] = segment.tobytes()
            handles.append(segment)
        else:
            segments = held_segments(handles)
            if not segments:
                continue
            source = segments[op[1] % len(segments)]
            if kind == "share":
                segment = source.share()
            else:
                start = op[2] % (len(source) + 1)
                length = op[3] % (len(source) - start + 1)
                segment = source.subview(start, length)
            expected[id(segment)] = segment.tobytes()
            handles.append(segment)
    for handle in handles:
        data = (
            handle.linearize() if isinstance(handle, BufferChain)
            else handle.tobytes()
        )
        assert data == expected[id(handle)]
    return handles


@settings(max_examples=200, deadline=None)
@given(program=programs(), data=st.data())
def test_pool_returns_every_buffer_zeroed_in_any_release_order(program, data):
    size, n_buffers, ops = program
    pool = BufferPool(n_buffers, size, label="p")
    handles = run_program(pool, ops)
    labels = {segment.label for segment in held_segments(handles)}
    assert set(pool.leak_report()) == labels
    assert len(pool.leak_report()) == pool.in_use

    order = data.draw(st.permutations(handles), label="release order")
    segments = held_segments(order)
    for handle in order:
        handle.release()
    assert pool.leak_report() == []
    assert pool.available == pool.capacity

    # Double release and use after release still raise, and leave the
    # free list as it was.
    for segment in segments:
        with pytest.raises(BufferError_):
            segment.release()
        with pytest.raises(BufferError_):
            segment.memoryview()
    assert pool.available == pool.capacity

    # Every free buffer reads all-zero.
    everything = [pool.allocate_segment() for _ in range(pool.capacity)]
    assert all(segment.tobytes() == bytes(size) for segment in everything)
    for segment in everything:
        segment.release()
    assert pool.leak_report() == []
