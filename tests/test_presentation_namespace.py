"""Syntax maps: translating transfer-syntax bytes to application terms."""

import pytest

from repro.errors import PresentationError
from repro.presentation.abstract import ArrayOf, Field, Int32, Struct, Utf8String
from repro.presentation.ber import BerCodec
from repro.presentation.namespace import ElementExtent, SyntaxMap
from repro.presentation.xdr import XdrCodec


def build_map():
    schema = Struct(
        (Field("id", Int32()), Field("names", ArrayOf(Utf8String())))
    )
    value = {"id": 3, "names": ["ab", "cdef"]}
    return XdrCodec().syntax_map(value, schema)


def test_extent_validation():
    with pytest.raises(PresentationError):
        ElementExtent(("x",), -1, 4)
    with pytest.raises(PresentationError):
        ElementExtent(("x",), 4, 2)


def test_extent_length_and_overlap():
    extent = ElementExtent(("x",), 4, 8)
    assert extent.length == 4
    assert extent.overlaps(0, 5)
    assert extent.overlaps(7, 20)
    assert not extent.overlaps(0, 4)
    assert not extent.overlaps(8, 9)


def test_map_rejects_disorder():
    extents = [ElementExtent(("a",), 4, 8), ElementExtent(("b",), 0, 4)]
    with pytest.raises(PresentationError, match="out of order"):
        SyntaxMap("x", 8, extents)


def test_map_rejects_overrun():
    with pytest.raises(PresentationError, match="exceeds"):
        SyntaxMap("x", 4, [ElementExtent(("a",), 0, 8)])


def test_elements_in_range_exact():
    syntax_map = build_map()
    # XDR layout: id [0,4), names[0] [8,16), names[1] [16,24).
    assert syntax_map.paths_in_range(0, 4) == [("id",)]
    assert syntax_map.paths_in_range(9, 10) == [("names", 0)]
    assert syntax_map.paths_in_range(0, 24) == [
        ("id",),
        ("names", 0),
        ("names", 1),
    ]


def test_range_in_container_header_hits_nothing():
    syntax_map = build_map()
    # [4, 8) is the array count word: attributed to no leaf.
    assert syntax_map.paths_in_range(4, 8) == []


def test_empty_range():
    syntax_map = build_map()
    assert syntax_map.paths_in_range(3, 3) == []


def test_invalid_range():
    syntax_map = build_map()
    with pytest.raises(PresentationError):
        syntax_map.paths_in_range(5, 2)


def test_tcp_cannot_ber_can():
    """The paper's complaint made concrete: the same byte loss is opaque
    in a raw stream but names elements under a syntax map."""
    schema = ArrayOf(Int32())
    value = [10, 20, 30, 40]
    syntax_map = BerCodec().syntax_map(value, schema)
    lost = syntax_map.paths_in_range(5, 9)
    assert lost  # we know exactly which integers died
    assert all(isinstance(path[0], int) for path in lost)
