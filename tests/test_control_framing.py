"""Byte-stream reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.framing import StreamReassembler
from repro.errors import FramingError


class TestStreamReassembler:
    def test_in_order(self):
        stream = StreamReassembler()
        stream.insert(0, b"ab")
        stream.insert(2, b"cd")
        assert stream.take_ready() == b"abcd"
        assert stream.next_offset == 4

    def test_hole_blocks(self):
        stream = StreamReassembler()
        stream.insert(2, b"cd")
        assert stream.take_ready() == b""
        assert stream.blocked_bytes == 2
        assert stream.has_holes

    def test_fill_releases(self):
        stream = StreamReassembler()
        stream.insert(2, b"cd")
        stream.insert(0, b"ab")
        assert stream.take_ready() == b"abcd"
        assert not stream.has_holes

    def test_duplicates_ignored(self):
        stream = StreamReassembler()
        stream.insert(0, b"ab")
        stream.take_ready()
        stream.insert(0, b"ab")
        assert stream.take_ready() == b""

    def test_overlap_trimmed(self):
        stream = StreamReassembler()
        stream.insert(0, b"abcd")
        stream.take_ready()
        stream.insert(2, b"cdEF")  # overlaps already-delivered data
        assert stream.take_ready() == b"EF"

    def test_empty_insert(self):
        stream = StreamReassembler()
        stream.insert(0, b"")
        assert stream.take_ready() == b""

    def test_negative_offset(self):
        with pytest.raises(FramingError):
            StreamReassembler().insert(-1, b"x")

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(12))))
    def test_any_order_reassembles_exactly(self, order):
        data = bytes(range(120))
        stream = StreamReassembler()
        out = bytearray()
        for index in order:
            stream.insert(index * 10, data[index * 10 : index * 10 + 10])
            out += stream.take_ready()
        assert bytes(out) == data

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_delivery_is_prefix_of_ground_truth(self, segments):
        """Whatever overlapping mess arrives, delivered bytes are always
        the correct contiguous prefix of the true stream."""
        truth = bytes(i % 256 for i in range(100))
        stream = StreamReassembler()
        delivered = bytearray()
        for offset, length in segments:
            stream.insert(offset, truth[offset : offset + length])
            delivered += stream.take_ready()
        assert bytes(delivered) == truth[: len(delivered)]
        assert stream.next_offset == len(delivered)
