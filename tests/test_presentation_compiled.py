"""Schema-compiled codecs: compiled vs interpreted, byte for byte.

The compiler must be a pure optimization: for every codec and every
valid (schema, value), the compiled encoder emits exactly the bytes the
interpreted walk emits, and the compiled decoder — contiguous or
streaming off a multi-segment chain — recovers exactly the same value.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.presentation.abstract import (
    ArrayOf,
    Boolean,
    Field,
    Float64,
    Int32,
    Int64,
    OctetString,
    Struct,
    UInt32,
    Utf8String,
)
from repro.presentation.ber import BerCodec
from repro.presentation.compiler import (
    CodecCache,
    conversion_permutation,
    presentation_counters,
    schema_fingerprint,
)
from repro.presentation.lwts import LwtsCodec
from repro.presentation.xdr import XdrCodec

CODECS = [BerCodec(), XdrCodec(), LwtsCodec("little"), LwtsCodec("big")]


# --- (schema, value) strategy — mirrors test_presentation_property ------

def _scalar_schemas():
    return st.sampled_from(
        [Boolean(), Int32(), UInt32(), Int64(), Float64(), OctetString(),
         Utf8String(), OctetString(fixed_length=6)]
    )


def _schemas(depth: int = 2):
    if depth == 0:
        return _scalar_schemas()
    inner = _schemas(depth - 1)
    return st.one_of(
        _scalar_schemas(),
        st.builds(ArrayOf, inner),
        st.builds(lambda e: ArrayOf(e, fixed_count=3), inner),
        st.builds(
            lambda types: Struct(
                tuple(Field(f"f{i}", t) for i, t in enumerate(types))
            ),
            st.lists(inner, min_size=1, max_size=3),
        ),
    )


def _value_for(schema) -> st.SearchStrategy:
    if isinstance(schema, Boolean):
        return st.booleans()
    if isinstance(schema, Int32):
        return st.integers(min_value=-(2**31), max_value=2**31 - 1)
    if isinstance(schema, UInt32):
        return st.integers(min_value=0, max_value=2**32 - 1)
    if isinstance(schema, Int64):
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if isinstance(schema, Float64):
        return st.floats(allow_nan=False)
    if isinstance(schema, OctetString):
        if schema.fixed_length is not None:
            return st.binary(
                min_size=schema.fixed_length, max_size=schema.fixed_length
            )
        return st.binary(max_size=12)
    if isinstance(schema, Utf8String):
        return st.text(max_size=8)
    if isinstance(schema, ArrayOf):
        if schema.fixed_count is not None:
            return st.lists(
                _value_for(schema.element),
                min_size=schema.fixed_count,
                max_size=schema.fixed_count,
            )
        return st.lists(_value_for(schema.element), max_size=4)
    if isinstance(schema, Struct):
        return st.fixed_dictionaries(
            {field.name: _value_for(field.type) for field in schema.fields}
        )
    raise AssertionError(schema)


schema_and_value = _schemas().flatmap(
    lambda schema: st.tuples(st.just(schema), _value_for(schema))
)


def chunked_chain(data: bytes, cut_points: list[int]) -> BufferChain:
    """A multi-segment chain over ``data``, split at ``cut_points``."""
    bounds = sorted({min(c, len(data)) for c in cut_points} | {0, len(data)})
    segments = [
        Segment.wrap(data[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    return BufferChain(segments)


# --- compiled == interpreted, all codecs --------------------------------

@settings(max_examples=60, deadline=None)
@given(schema_and_value)
def test_compiled_encode_matches_interpreted(pair):
    schema, value = pair
    cache = CodecCache()
    for codec in CODECS:
        compiled = cache.get_or_compile(schema, codec)
        assert compiled.encode(value) == codec.encode(value, schema), codec.name


@settings(max_examples=60, deadline=None)
@given(schema_and_value)
def test_compiled_decode_matches_interpreted(pair):
    schema, value = pair
    cache = CodecCache()
    for codec in CODECS:
        compiled = cache.get_or_compile(schema, codec)
        wire = codec.encode(value, schema)
        assert compiled.decode(wire) == codec.decode(wire, schema), codec.name


@settings(max_examples=60, deadline=None)
@given(schema_and_value, st.lists(st.integers(0, 64), max_size=4))
def test_decode_chain_matches_contiguous(pair, cuts):
    """Streaming decode off an arbitrarily segmented chain — including
    empty, partial-word, and many-segment splits — equals the contiguous
    decode."""
    schema, value = pair
    cache = CodecCache()
    for codec in CODECS:
        compiled = cache.get_or_compile(schema, codec)
        wire = codec.encode(value, schema)
        chain = chunked_chain(wire, cuts)
        assert compiled.decode_chain(chain) == compiled.decode(wire), codec.name


@settings(max_examples=30, deadline=None)
@given(st.lists(schema_and_value, min_size=1, max_size=4))
def test_batch_paths_match_singles(pairs):
    schema, _ = pairs[0]
    values = [v for s, v in pairs if schema_fingerprint(s) ==
              schema_fingerprint(schema)] or [pairs[0][1]]
    cache = CodecCache()
    for codec in CODECS:
        compiled = cache.get_or_compile(schema, codec)
        singles = [compiled.encode(v) for v in values]
        assert compiled.encode_batch(values) == singles, codec.name
        assert compiled.decode_batch(singles) == [
            compiled.decode(data) for data in singles
        ], codec.name


# --- conversion: permutation kernel == decode+encode --------------------

@settings(max_examples=60, deadline=None)
@given(schema_and_value)
def test_conversion_permutation_matches_reencode(pair):
    schema, value = pair
    cache = CodecCache()
    src = cache.get_or_compile(schema, LwtsCodec("little"))
    dst = cache.get_or_compile(schema, LwtsCodec("big"))
    perm = conversion_permutation(src, dst)
    wire = src.encode(value)
    expected = dst.encode(src.decode(wire))
    if perm is not None:
        import numpy as np

        raw = np.frombuffer(wire, dtype=np.uint8)
        assert raw[perm].tobytes() == expected
    else:
        # Variable layout: no pure permutation can exist.
        assert src.fixed_size is None


def test_empty_values_roundtrip():
    cache = CodecCache()
    cases = [
        (ArrayOf(Int32()), []),
        (OctetString(), b""),
        (Utf8String(), ""),
    ]
    for schema, value in cases:
        for codec in CODECS:
            compiled = cache.get_or_compile(schema, codec)
            wire = compiled.encode(value)
            assert wire == codec.encode(value, schema)
            assert compiled.decode(wire) == value
            assert compiled.decode_chain(chunked_chain(wire, [1, 2])) == value


# --- cache behaviour ----------------------------------------------------

def test_codec_cache_counts_hits_misses_and_evicts():
    cache = CodecCache(capacity=2)
    a, b, c = ArrayOf(Int32()), OctetString(), Struct((Field("x", Int32()),))
    codec = LwtsCodec("little")
    first = cache.get_or_compile(a, codec)
    assert cache.get_or_compile(a, codec) is first
    cache.get_or_compile(b, codec)
    cache.get_or_compile(c, codec)  # evicts the LRU entry
    snap = cache.snapshot()
    assert snap["hits"] == 1
    assert snap["misses"] == 3
    assert snap["evictions"] == 1
    assert snap["entries"] == 2


def test_cache_key_includes_transfer_syntax():
    cache = CodecCache()
    schema = ArrayOf(Int32(), fixed_count=2)
    le = cache.get_or_compile(schema, LwtsCodec("little"))
    be = cache.get_or_compile(schema, LwtsCodec("big"))
    assert le is not be
    assert cache.snapshot()["misses"] == 2


def test_counters_record_compiled_work():
    counters = presentation_counters()
    counters.reset()
    cache = CodecCache()
    compiled = cache.get_or_compile(ArrayOf(Int32(), fixed_count=2), LwtsCodec())
    wire = compiled.encode([1, 2])
    compiled.decode(wire)
    compiled.decode_chain(chunked_chain(wire, [3]))
    snap = counters.snapshot()
    counters.reset()
    assert snap["compiled_encodes"] == 1
    assert snap["compiled_decodes"] == 2
    assert snap["chain_decodes"] == 1
    assert snap["bytes_encoded"] == len(wire)


def test_fingerprint_distinguishes_structurally_different_schemas():
    assert schema_fingerprint(ArrayOf(Int32())) != schema_fingerprint(
        ArrayOf(UInt32())
    )
    assert schema_fingerprint(ArrayOf(Int32(), fixed_count=2)) != (
        schema_fingerprint(ArrayOf(Int32(), fixed_count=3))
    )
    assert schema_fingerprint(ArrayOf(Int32())) == schema_fingerprint(
        ArrayOf(Int32())
    )


# --- loss-to-element translation from the compiled layout ---------------

FIXED_SCHEMA = Struct(
    (
        Field("id", Int32()),
        Field("tag", OctetString(fixed_length=5)),
        Field("samples", ArrayOf(Float64(), fixed_count=2)),
    )
)
FIXED_VALUE = {"id": 7, "tag": b"hello", "samples": [1.5, -2.5]}


class TestSyntaxMapFromLayout:
    def test_matches_interpreted_map_per_codec(self):
        cache = CodecCache()
        for codec in (LwtsCodec("little"), LwtsCodec("big"), XdrCodec()):
            compiled = cache.get_or_compile(FIXED_SCHEMA, codec)
            derived = compiled.syntax_map()
            interpreted = codec.syntax_map(FIXED_VALUE, FIXED_SCHEMA)
            assert derived is not None
            assert derived.total_length == interpreted.total_length
            assert [
                (e.path, e.start, e.end) for e in derived.extents
            ] == [(e.path, e.start, e.end) for e in interpreted.extents]

    def test_lost_byte_ranges_name_the_elements(self):
        compiled = CodecCache().get_or_compile(FIXED_SCHEMA, LwtsCodec("little"))
        syntax_map = compiled.syntax_map()
        # id 4B @0, tag 5B @4, samples 8B each @9 and @17.
        assert syntax_map.paths_in_range(0, 4) == [("id",)]
        assert syntax_map.paths_in_range(2, 10) == [
            ("id",), ("tag",), ("samples", 0),
        ]
        assert syntax_map.paths_in_range(17, 25) == [("samples", 1)]
        # A whole-ADU loss names everything; an empty range nothing.
        assert len(syntax_map.paths_in_range(0, syntax_map.total_length)) == 4
        assert syntax_map.paths_in_range(4, 4) == []

    def test_xdr_pad_bytes_charged_to_the_padded_element(self):
        compiled = CodecCache().get_or_compile(FIXED_SCHEMA, XdrCodec())
        (extent,) = [e for e in compiled.syntax_map().extents if e.path == ("tag",)]
        # 5 content bytes + 3 pad bytes: losing the pad loses the element.
        assert extent.length == 8

    def test_variable_layouts_have_no_static_map(self):
        cache = CodecCache()
        variable = Struct((Field("s", Utf8String()),))
        assert cache.get_or_compile(variable, XdrCodec()).syntax_map() is None
        # TLV extents are data-dependent even for fixed schemas.
        assert cache.get_or_compile(FIXED_SCHEMA, BerCodec()).syntax_map() is None

    def test_map_is_computed_once_and_cached(self):
        compiled = CodecCache().get_or_compile(FIXED_SCHEMA, LwtsCodec("big"))
        assert compiled.syntax_map() is compiled.syntax_map()

    @settings(max_examples=40, deadline=None)
    @given(schema_and_value)
    def test_derived_map_matches_interpreted_when_fixed(self, pair):
        schema, value = pair
        for codec in (LwtsCodec("little"), XdrCodec()):
            compiled = CodecCache().get_or_compile(schema, codec)
            derived = compiled.syntax_map()
            if derived is None:
                continue  # variable layout: no static map exists
            interpreted = codec.syntax_map(value, schema)
            assert derived.total_length == interpreted.total_length
            assert [
                (e.path, e.start, e.end) for e in derived.extents
            ] == [(e.path, e.start, e.end) for e in interpreted.extents]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
