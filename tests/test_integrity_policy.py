"""Property tests for selective-integrity coverage checksums.

The definitional identity (RFC 1071 masked form): the covered checksum
of ``data`` equals the full Internet checksum of ``data`` with every
*uncovered* byte zeroed.  Every compiled form — the reference function,
the fused word kernel inside a wire plan (single-ADU and batched rows),
and the zero-copy multi-segment chain fold — is pinned to that identity
across randomized policies, payload lengths (including odd tails and
partial final words) and segment boundaries.  ``for_elements`` coverage
is pinned to the compiled codec's own layout extents.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.errors import StageError
from repro.ilp.compiler import PlanCache
from repro.ilp.kernels import coverage_checksum_chain
from repro.integrity import (
    IntegrityPolicy,
    coverage_masks,
    integrity_token,
)
from repro.machine.profile import MIPS_R2000
from repro.presentation.abstract import (
    ArrayOf,
    Field,
    Float64,
    Int32,
    Int64,
    OctetString,
    Struct,
    UInt32,
)
from repro.presentation.compiler import CodecCache
from repro.presentation.lwts import LwtsCodec
from repro.stages.checksum import (
    coverage_internet_checksum,
    internet_checksum,
)
from repro.transport.alf.wire import WIRE_CHECKSUM, wire_pipeline

_PLANS = PlanCache(capacity=512)


def compiled_plan(policy: IntegrityPolicy):
    return _PLANS.get_or_compile(
        wire_pipeline(None, integrity=policy), MIPS_R2000
    )


def zeroed_reference(data: bytes, policy: IntegrityPolicy) -> int:
    """The definition: full checksum with uncovered bytes zeroed."""
    masked = bytearray(len(data))
    for lo, hi in policy.clipped(len(data)):
        masked[lo:hi] = data[lo:hi]
    return internet_checksum(bytes(masked))


# --- strategies --------------------------------------------------------

def spans():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=480),
            st.integers(min_value=1, max_value=96),
        ).map(lambda t: (t[0], t[0] + t[1])),
        min_size=1,
        max_size=4,
    )


def policies():
    return st.one_of(
        st.just(IntegrityPolicy.full()),
        st.just(IntegrityPolicy.none()),
        st.integers(min_value=1, max_value=96).map(
            IntegrityPolicy.headers_only
        ),
        spans().map(IntegrityPolicy.of_spans),
    )


payloads = st.binary(min_size=0, max_size=600)


# --- the identity, every compiled form ---------------------------------

class TestCoverageIdentity:
    @given(payloads, policies())
    def test_reference_matches_definition(self, data, policy):
        assert coverage_internet_checksum(data, policy) == zeroed_reference(
            data, policy
        )

    @given(payloads)
    def test_full_policy_is_the_classic_checksum(self, data):
        policy = IntegrityPolicy.full()
        assert coverage_internet_checksum(data, policy) == internet_checksum(
            data
        )

    @given(payloads)
    def test_none_policy_is_the_empty_checksum(self, data):
        policy = IntegrityPolicy.none()
        assert coverage_internet_checksum(data, policy) == 0xFFFF

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=600), policies())
    def test_compiled_plan_matches_reference(self, data, policy):
        plan = compiled_plan(policy)
        out, observations = plan.run(data)
        assert out == data
        assert observations[WIRE_CHECKSUM] == zeroed_reference(data, policy)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=5),
        policies(),
    )
    def test_batched_rows_match_reference(self, rows, policy):
        plan = compiled_plan(policy)
        result = plan.run_batch(list(rows))
        assert result.outputs == list(rows)
        assert result.observations[WIRE_CHECKSUM] == [
            zeroed_reference(row, policy) for row in rows
        ]

    @given(
        st.binary(min_size=1, max_size=600),
        st.lists(st.integers(min_value=0, max_value=599), max_size=3),
        policies(),
    )
    def test_multi_segment_chain_matches_reference(self, data, cuts, policy):
        # Arbitrary (odd-length) segment boundaries must not change the
        # covered fold: bytes are weighted by *global* offset parity.
        points = sorted({cut % len(data) for cut in cuts} | {0, len(data)})
        chain = BufferChain(
            [
                Segment.wrap(data[lo:hi])
                for lo, hi in zip(points, points[1:])
            ]
        )
        assert coverage_checksum_chain(chain, policy) == zeroed_reference(
            data, policy
        )

    @given(payloads, spans())
    def test_uncovered_bytes_never_change_the_sum(self, data, ranges):
        # Rewriting every uncovered byte leaves the covered checksum
        # untouched — the fold provably never reads them.
        policy = IntegrityPolicy.of_spans(ranges)
        before = coverage_internet_checksum(data, policy)
        mutated = bytearray(data)
        covered = np.zeros(len(data), dtype=bool)
        for lo, hi in policy.clipped(len(data)):
            covered[lo:hi] = True
        for index in range(len(data)):
            if not covered[index]:
                mutated[index] ^= 0xA5
        assert coverage_internet_checksum(bytes(mutated), policy) == before


# --- coverage masks ----------------------------------------------------

class TestCoverageMasks:
    @given(policies(), st.integers(min_value=1, max_value=64))
    def test_masks_select_exactly_the_covered_lanes(self, policy, width):
        indices, masks, full = coverage_masks(policy, width)
        expected = np.zeros(width * 4, dtype=np.uint8)
        for lo, hi in policy.clipped(width * 4):
            expected[lo:hi] = 0xFF
        # Native word images: mask word i's bytes are the byte lanes
        # 4i..4i+3 of the payload, whatever the host byte order.
        dense = expected.view(np.uint32)
        assert np.array_equal(full, dense)
        assert np.array_equal(indices, np.nonzero(dense)[0])
        assert np.array_equal(masks, dense[indices])


# --- policy algebra ----------------------------------------------------

class TestPolicyAlgebra:
    @given(spans())
    def test_normalization_is_idempotent(self, ranges):
        once = IntegrityPolicy.of_spans(ranges)
        assert IntegrityPolicy.of_spans(once.spans) == once
        assert IntegrityPolicy.of_spans(ranges + ranges) == once

    @given(spans())
    def test_spans_are_sorted_and_disjoint(self, ranges):
        policy = IntegrityPolicy.of_spans(ranges)
        for (_, hi), (lo, _) in zip(policy.spans, policy.spans[1:]):
            assert hi < lo  # strictly disjoint — adjacency merged

    @given(spans(), st.integers(min_value=0, max_value=700))
    def test_covered_bytes_matches_per_byte_count(self, ranges, length):
        policy = IntegrityPolicy.of_spans(ranges)
        brute = sum(
            1
            for index in range(length)
            if policy.covers(index, index + 1)
        )
        assert policy.covered_bytes(length) == brute

    @given(spans(), spans())
    def test_fingerprint_identity_iff_same_coverage(self, a_spans, b_spans):
        a = IntegrityPolicy.of_spans(a_spans)
        b = IntegrityPolicy.of_spans(b_spans)
        assert (a.fingerprint == b.fingerprint) == (a.spans == b.spans)

    def test_default_policy_token_is_full(self):
        assert integrity_token(None) == "full"
        assert integrity_token(IntegrityPolicy.full()) == "full"

    def test_invalid_policies_rejected(self):
        with pytest.raises(StageError):
            IntegrityPolicy.of_spans([(-1, 4)])
        with pytest.raises(StageError):
            IntegrityPolicy.of_spans([(8, 4)])
        with pytest.raises(StageError):
            IntegrityPolicy.headers_only(0)
        with pytest.raises(StageError):
            IntegrityPolicy("spans")
        with pytest.raises(StageError):
            IntegrityPolicy("bogus")


# --- element-derived coverage ------------------------------------------

FIXED_SCALARS = [Int32(), UInt32(), Int64(), Float64(), OctetString(fixed_length=6)]


def _fixed_schemas(depth: int = 2):
    if depth == 0:
        return st.sampled_from(FIXED_SCALARS)
    inner = _fixed_schemas(depth - 1)
    return st.one_of(
        st.sampled_from(FIXED_SCALARS),
        st.builds(lambda e: ArrayOf(e, fixed_count=2), inner),
        st.builds(
            lambda types: Struct(
                tuple(Field(f"f{i}", t) for i, t in enumerate(types))
            ),
            st.lists(inner, min_size=1, max_size=3),
        ),
    )


class TestForElements:
    @settings(max_examples=40, deadline=None)
    @given(_fixed_schemas(), st.data())
    def test_element_coverage_matches_layout_extents(self, schema, data):
        compiled = CodecCache().get_or_compile(schema, LwtsCodec("little"))
        syntax_map = compiled.syntax_map()
        assert syntax_map is not None  # fixed layout by construction
        extents = syntax_map.extents
        picked = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(extents) - 1),
                min_size=1,
                max_size=len(extents),
                unique=True,
            )
        )
        paths = [tuple(extents[i].path) for i in picked]
        policy = IntegrityPolicy.for_elements(compiled, paths)
        # Every named element's extent is wholly covered...
        for i in picked:
            extent = extents[i]
            if extent.end > extent.start:
                assert policy.covered_bytes(extent.end) - policy.covered_bytes(
                    extent.start
                ) == extent.end - extent.start
        # ...and nothing outside the union of named extents is.
        chosen = [(extents[i].start, extents[i].end) for i in picked]
        total = syntax_map.total_length
        covered = np.zeros(total, dtype=bool)
        for lo, hi in chosen:
            covered[lo:hi] = True
        for index in range(total):
            assert policy.covers(index, index + 1) == bool(covered[index])

    def test_prefix_path_covers_whole_struct(self):
        schema = Struct(
            (
                Field(
                    "header",
                    Struct(
                        (Field("seq", Int32()), Field("stamp", Int64()))
                    ),
                ),
                Field("pixels", ArrayOf(Int32(), fixed_count=8)),
            )
        )
        compiled = CodecCache().get_or_compile(schema, LwtsCodec("little"))
        policy = IntegrityPolicy.for_elements(compiled, [("header",)])
        assert policy.spans == ((0, 12),)
        assert not policy.covers(12, compiled.syntax_map().total_length)

    def test_unmatched_paths_rejected(self):
        compiled = CodecCache().get_or_compile(
            Struct((Field("x", Int32()),)), LwtsCodec("little")
        )
        with pytest.raises(StageError):
            IntegrityPolicy.for_elements(compiled, [("nope",)])
