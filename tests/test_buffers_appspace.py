"""Application address space and scatter delivery."""

import pytest

from repro.buffers.appspace import ApplicationAddressSpace, Region, ScatterMap
from repro.errors import BufferError_


@pytest.fixture
def space():
    s = ApplicationAddressSpace(label="app")
    s.add_region("file", 100)
    return s


def test_add_and_read_region(space):
    assert space.read_region("file") == b"\x00" * 100


def test_duplicate_region_rejected(space):
    with pytest.raises(BufferError_):
        space.add_region("file", 10)


def test_unknown_region(space):
    with pytest.raises(BufferError_):
        space.region("nope")


def test_region_validation():
    with pytest.raises(BufferError_):
        Region("r", bytearray(10), 5, 10)  # overruns its storage
    with pytest.raises(BufferError_):
        Region("r", bytearray(10), -1, 5)


def test_linear_delivery(space):
    scatter = ScatterMap.linear("file", 10, 5)
    moved = space.deliver(b"hello", scatter)
    assert moved == 5
    assert space.read_region("file")[10:15] == b"hello"
    assert space.bytes_delivered == 5


def test_scattered_delivery(space):
    space.add_region("arg0", 4)
    space.add_region("arg1", 4)
    scatter = ScatterMap()
    scatter.add(0, "arg0", 0, 4)
    scatter.add(4, "arg1", 0, 4)
    space.deliver(b"AAAABBBB", scatter)
    assert space.read_region("arg0") == b"AAAA"
    assert space.read_region("arg1") == b"BBBB"
    assert len(scatter) == 2
    assert scatter.total_bytes == 8


def test_delivery_source_overrun(space):
    scatter = ScatterMap.linear("file", 0, 10)
    with pytest.raises(BufferError_):
        space.deliver(b"short", scatter)


def test_delivery_region_overrun(space):
    scatter = ScatterMap.linear("file", 98, 5)
    with pytest.raises(BufferError_):
        space.deliver(b"hello", scatter)


def test_scatter_negative_fields_rejected():
    scatter = ScatterMap()
    with pytest.raises(BufferError_):
        scatter.add(-1, "r", 0, 4)


def test_out_of_order_placement(space):
    """The ALF property: later file pieces land before earlier ones."""
    space.deliver(b"world", ScatterMap.linear("file", 5, 5))
    space.deliver(b"hello", ScatterMap.linear("file", 0, 5))
    assert space.read_region("file")[:10] == b"helloworld"
