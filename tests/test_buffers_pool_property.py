"""Property: a pool returns every buffer clean, whatever its users did.

Hypothesis draws a pool and a program against it — single DMAs and runs
of 0 bytes to three buffers a payload, ``allocate_segment`` windows
written through, whole-buffer segments written anywhere, shares and
subviews of held segments, releases part-way (so shares outlive what
they were taken from, and the free stack stops being adjacent), and
fills that run the pool dry — then releases every remaining handle in
a drawn order.  Whatever the order:

* a run lands as one segment over adjacent buffers, or takes nothing:
  too few free buffers, or scattered ones (counted, and then DMA'd one
  payload at a time, as the receiver falls back);
* ``leak_report()`` lists exactly the buffers under live references —
  a whole run's for any share of it — and ends empty;
* every buffer handed out reads all-zero except what was written into
  it, and every buffer back on the free list reads all-zero;
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
    payload = st.binary(max_size=3 * size)
    index = st.integers(0, 10_000)
    op = st.one_of(
        st.tuples(st.just("dma"), payload),
        st.tuples(st.just("run"), st.lists(payload, max_size=4)),
        st.tuples(
            st.just("segment"), st.integers(0, size), st.binary(max_size=size)
        ),
        st.tuples(st.just("buffer"), st.binary(max_size=size), st.integers(0, size)),
        st.tuples(st.just("share"), index),
        st.tuples(st.just("subview"), index, index, index),
        st.tuples(st.just("release"), index),
    )
    return size, n_buffers, draw(st.lists(op, max_size=32))


def held_segments(handles) -> list[Segment]:
    """Every pooled segment a handle holds, in order."""
    segments = []
    for handle in handles:
        if isinstance(handle, BufferChain):
            segments.extend(handle.segments)
        elif isinstance(handle, Segment):
            segments.append(handle)
    return segments


def buffers_under(handles) -> list[str]:
    """The labels of the buffers the handles' segments hold out: one
    buffer's (``p[3]``), or every buffer of a run's (``p[3:6]``)."""
    labels = set()
    for segment in held_segments(handles):
        name, _, span = segment.label[:-1].partition("[")
        first, _, end = span.partition(":")
        stop = int(end) if end else int(first) + 1
        for index in range(int(first), stop):
            labels.add(f"{name}[{index}]")
    return sorted(labels)


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
            scattered = pool.scattered_runs
            need = sum(-(-len(piece) // pool.buffer_size)
                       for piece in (payload if kind == "run" else [payload]))
            chain = pool.dma_chain(payload)
            if need > free:
                # A dry pool drops the frame: a run allocates nothing,
                # a single DMA rolls its partial fill back.
                assert chain is None
                assert pool.available == free
                assert pool.scattered_runs == scattered
                continue
            data = b"".join(payload) if kind == "run" else payload
            if kind == "run":
                assert pool.scattered_runs == scattered + (chain is None)
                if chain is None:
                    # Scattered buffers: nothing taken; one DMA per
                    # payload lands the run instead.
                    assert pool.available == free
                    chains = [pool.dma_chain(piece) for piece in payload]
                    assert None not in chains
                    chain = BufferChain()
                    for piece in chains:
                        chain.extend(piece)
                else:
                    assert len(chain.segments) == (1 if data else 0)
            assert pool.available == free - need
            assert chain.linearize() == data
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
            assert segment.tobytes() == bytes(len(segment))
            # A whole-buffer segment's holder may write anywhere in it.
            offset = min(offset, len(segment) - len(data))
            segment.memoryview()[offset : offset + len(data)] = data
            expected[id(segment)] = segment.tobytes()
            handles.append(segment)
        elif kind == "release":
            if handles:
                handles.pop(op[1] % len(handles)).release()
                assert pool.leak_report() == buffers_under(handles)
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
    assert pool.leak_report() == buffers_under(handles)
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
