"""Scatter/gather chains: structural ops are zero-copy and lossless.

Chains are built the two ways the program builds them: ``Segment.wrap``
over caller-owned bytes (the send side) and ``BufferPool.dma_chain``
(the receive side).  After each structural op every chain it produced
is released, and the pool must be back to ``in_use == 0`` with an empty
``leak_report()``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.buffers.chain import BufferChain, as_buffer_chain
from repro.buffers.pool import BufferPool
from repro.buffers.segment import Segment
from repro.errors import BufferError_


def chain_of(*parts: bytes) -> BufferChain:
    """A chain of one wrapped segment per part."""
    chain = BufferChain()
    for part in parts:
        chain.append(Segment.wrap(part))
    return chain


def pooled(*parts: bytes, buffer_size: int = 4) -> tuple[BufferPool, BufferChain]:
    """A pool and one DMA'd chain over ``parts`` (each part spans
    ``len(part) / buffer_size`` buffers, rounded up)."""
    need = sum(-(-len(part) // buffer_size) for part in parts)
    pool = BufferPool(max(need, 1), buffer_size, label="p")
    chain = pool.dma_chain(list(parts))
    assert chain is not None
    return pool, chain


def release_all(pool: BufferPool, *chains: BufferChain) -> None:
    """Release ``chains`` and check the pool got every buffer back."""
    for chain in chains:
        chain.release()
    assert pool.in_use == 0
    assert pool.leak_report() == []


def test_length_and_linearize():
    chain = chain_of(b"hello ", b"world")
    assert len(chain) == 11
    assert chain.linearize() == b"hello world"
    pool, chain = pooled(b"hello ", b"world")
    assert len(chain) == 11
    assert chain.linearize() == b"hello world"
    release_all(pool, chain)


def test_empty_chain():
    chain = BufferChain()
    assert len(chain) == 0
    assert chain.linearize() == b""
    chain.release()


def test_from_bytes():
    assert BufferChain.wrap(b"abc").linearize() == b"abc"
    assert as_buffer_chain(b"abc").linearize() == b"abc"
    assert len(BufferChain.wrap(b"").segments) == 0
    assert as_buffer_chain(b"").linearize() == b""
    chain = BufferChain.wrap(b"abc")
    assert as_buffer_chain(chain) is chain


def test_empty_segments_dropped():
    chain = chain_of(b"", b"x", b"")
    assert len(chain.segments) == 1


def test_split_mid_segment():
    for pool, chain in ((None, chain_of(b"abcdef")), pooled(b"abcdef")):
        head, tail = chain.split(2)
        assert head.linearize() == b"ab"
        assert tail.linearize() == b"cdef"
        if pool is not None:
            release_all(pool, chain, head, tail)


def test_split_on_boundary():
    for pool, chain in ((None, chain_of(b"abc", b"def")), pooled(b"abc", b"def")):
        head, tail = chain.split(3)
        assert head.linearize() == b"abc"
        assert tail.linearize() == b"def"
        if pool is not None:
            release_all(pool, chain, head, tail)


def test_split_bounds():
    pool, chain = pooled(b"ab")
    with pytest.raises(BufferError_):
        chain.split(3)
    with pytest.raises(BufferError_):
        chain.split(-1)
    release_all(pool, chain)


def test_chunks():
    pool, chain = pooled(b"abcdefgh")
    chunks = list(chain.chunks(3))
    assert [c.linearize() for c in chunks] == [b"abc", b"def", b"gh"]
    release_all(pool, chain, *chunks)


def test_chunks_bad_size():
    with pytest.raises(BufferError_):
        list(chain_of(b"ab").chunks(0))


def test_extend():
    a = chain_of(b"ab")
    b = chain_of(b"cd", b"ef")
    a.extend(b)
    assert a.linearize() == b"abcdef"
    # ``extend`` takes over the references it is given, so a chain
    # that stays with its owner goes in as a share.
    pool = BufferPool(3, 4, label="p")
    a = pool.dma_chain(b"ab")
    b = pool.dma_chain([b"cd", b"ef"])
    a.extend(b.share())
    assert a.linearize() == b"abcdef"
    release_all(pool, a, b)


@given(
    st.lists(st.binary(min_size=0, max_size=20), max_size=6),
    st.integers(min_value=0, max_value=120),
)
def test_split_is_lossless(parts, at):
    """Splitting at any valid point preserves the content exactly."""
    pool, chain = pooled(*parts)
    at = min(at, len(chain))
    head, tail = chain.split(at)
    assert head.linearize() + tail.linearize() == chain.linearize()
    assert len(head) == at
    release_all(pool, chain, head, tail)


@given(
    st.lists(st.binary(min_size=1, max_size=20), max_size=6),
    st.integers(min_value=1, max_value=16),
)
def test_chunks_reassemble(parts, size):
    pool, chain = pooled(*parts)
    chunks = list(chain.chunks(size))
    assert b"".join(c.linearize() for c in chunks) == chain.linearize()
    release_all(pool, chain, *chunks)
