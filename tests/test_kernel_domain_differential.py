"""Every lowered word kernel against a byte-level reference.

The kernels run on the payload's native byte image: packing views it in
place, the checksum sums native words and swaps its folded result, the
XOR cipher uses its key's native image, coverage masks are native lane
images, and only the presentation conversion reorders bytes.  None of
that may be visible.  For each kernel and each executor entry point —
``run`` on ``bytes``, ``run_chain`` on a chain cut at arbitrary offsets,
``run_batch`` on an even batch and on a ragged one, rows mixing
``bytes`` and chains — outputs and observations must equal references
computed byte by byte, with no word arrays at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.ilp.compiler import CompiledPlan, PipelineCompiler
from repro.ilp.pipeline import Pipeline
from repro.integrity import IntegrityPolicy
from repro.machine.profile import MIPS_R2000
from repro.presentation.abstract import ArrayOf, Int32, Int64
from repro.presentation.compiler import conversion_permutation, shared_codec_cache
from repro.presentation.lwts import LwtsCodec
from repro.stages.checksum import ChecksumComputeStage, internet_checksum
from repro.stages.encrypt import WordXorStage
from repro.stages.presentation import ByteswapStage, PresentationConvertStage

KEY = 0xA5C3F00D
LITTLE, BIG = LwtsCodec(byte_order="little"), LwtsCodec(byte_order="big")
SPANS = IntegrityPolicy.of_spans([(1, 7), (13, 14), (30, 61)])
BULK = 16 * 1024


# --- byte-level references ----------------------------------------------

def ref_xor(data: bytes) -> bytes:
    key = KEY.to_bytes(4, "big")
    return bytes(byte ^ key[i % 4] for i, byte in enumerate(data))


def ref_byteswap(data: bytes) -> bytes:
    padded = data + bytes(-len(data) % 4)
    swapped = b"".join(padded[i : i + 4][::-1] for i in range(0, len(padded), 4))
    return swapped[: len(data)]


def ref_covered(policy: IntegrityPolicy) -> Callable[[bytes], int]:
    def checksum(data: bytes) -> int:
        kept = bytearray(len(data))
        for lo, hi in policy.clipped(len(data)):
            kept[lo:hi] = data[lo:hi]
        return internet_checksum(bytes(kept))

    return checksum


@lru_cache(maxsize=None)
def lwts_codecs(width: int, count: int, receive: bool):
    schema = ArrayOf(Int32() if width == 4 else Int64(), fixed_count=count)
    cache = shared_codec_cache()
    src, dst = (BIG, LITTLE) if receive else (LITTLE, BIG)
    return schema, cache.get_or_compile(schema, src), cache.get_or_compile(schema, dst)


def ref_convert(width: int, receive: bool) -> Callable[[bytes], bytes]:
    def convert(data: bytes) -> bytes:
        _, src, dst = lwts_codecs(width, len(data) // width, receive)
        perm = conversion_permutation(src, dst)
        return bytes(data[i] for i in perm)

    return convert


# --- plan shapes ----------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """One lowered kernel in a plan of its own (plus a trailing checksum
    for the conversions, so their plans observe the converted bytes).

    ``width`` is the schema scalar size of a conversion, whose plans
    accept only multiples of it (None: any length).
    """

    make: Callable[[int], Pipeline]
    output: Callable[[bytes], bytes] | None = None
    checksum: Callable[[bytes], int] | None = None
    width: int | None = None


def single(stage) -> Callable[[int], Pipeline]:
    return lambda length: Pipeline([stage], name="kernel")


def converting(width: int, receive: bool) -> Callable[[int], Pipeline]:
    def make(length: int) -> Pipeline:
        schema, _, _ = lwts_codecs(width, length // width, receive)
        src, dst = (BIG, LITTLE) if receive else (LITTLE, BIG)
        return Pipeline(
            [PresentationConvertStage(schema, src, dst), ChecksumComputeStage()],
            name="convert",
        )

    return make


KERNELS = {
    "checksum": Kernel(single(ChecksumComputeStage()), checksum=internet_checksum),
    "checksum-headers-only": Kernel(
        single(ChecksumComputeStage(coverage=IntegrityPolicy.headers_only(6))),
        checksum=ref_covered(IntegrityPolicy.headers_only(6)),
    ),
    "checksum-spans": Kernel(
        single(ChecksumComputeStage(coverage=SPANS)), checksum=ref_covered(SPANS)
    ),
    "xor": Kernel(single(WordXorStage(KEY)), output=ref_xor),
    "byteswap": Kernel(single(ByteswapStage()), output=ref_byteswap),
    "convert-int32-send": Kernel(converting(4, False), ref_convert(4, False), width=4),
    "convert-int32-receive": Kernel(converting(4, True), ref_convert(4, True), width=4),
    "convert-int64-send": Kernel(converting(8, False), ref_convert(8, False), width=8),
    "convert-int64-receive": Kernel(converting(8, True), ref_convert(8, True), width=8),
}

_PLANS: dict[tuple[str, int], CompiledPlan] = {}


def plan_for(name: str, length: int) -> CompiledPlan:
    kernel = KERNELS[name]
    key = (name, length if kernel.width else 0)
    if key not in _PLANS:
        _PLANS[key] = PipelineCompiler(MIPS_R2000).compile(kernel.make(length))
    return _PLANS[key]


def check(name: str, data: bytes, output, observations: dict[str, int]) -> None:
    kernel = KERNELS[name]
    expected = data
    if kernel.output is not None:
        expected = kernel.output(data)
    assert bytes(output) == expected, name
    if kernel.width is not None:
        # The conversion plans' checksum observes the converted bytes.
        assert observations == {"checksum-internet": internet_checksum(expected)}
    elif kernel.checksum is not None:
        assert observations == {"checksum-internet": kernel.checksum(data)}
    else:
        assert observations == {}


def chain_of(data: bytes, cuts: list[int]) -> BufferChain:
    chain = BufferChain()
    prev = 0
    for cut in sorted(c for c in set(cuts) if 0 < c < len(data)) + [len(data)]:
        chain.append(Segment.wrap(data[prev:cut]))
        prev = cut
    return chain


def as_output(out, source: BufferChain) -> bytes:
    """The chain path's output as bytes, releasing a chain it made."""
    if isinstance(out, BufferChain):
        data = out.linearize()
        if out is not source:
            out.release()
        return data
    return bytes(out)


# --- strategies -----------------------------------------------------------

def lengths_for(name: str) -> st.SearchStrategy[int]:
    width = KERNELS[name].width
    if width is None:
        return st.one_of(st.integers(0, 70), st.just(BULK))
    return st.one_of(st.integers(0, 70 // width).map(lambda n: n * width), st.just(BULK))


@st.composite
def payload(draw, name: str, length: int | None = None) -> bytes:
    if length is None:
        length = draw(lengths_for(name))
    if length == BULK:
        seed = draw(st.integers(0, 2**32 - 1))
        return seed.to_bytes(4, "little") * (BULK // 4)
    return draw(st.binary(min_size=length, max_size=length))


@st.composite
def row(draw, name: str, length: int | None = None):
    """A payload, and how it reaches the executor: ``bytes`` or a chain
    cut at arbitrary (odd, word-straddling) offsets."""
    data = draw(payload(name, length))
    cuts = draw(st.lists(st.integers(0, max(len(data), 1)), max_size=4))
    return data, draw(st.booleans()), cuts


NAMES = st.sampled_from(sorted(KERNELS))
SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(st.data())
def test_run_matches_byte_reference(data):
    name = data.draw(NAMES)
    raw = data.draw(payload(name))
    out, observations = plan_for(name, len(raw)).run(raw)
    check(name, raw, out, observations)


@SETTINGS
@given(st.data())
def test_run_chain_matches_byte_reference(data):
    name = data.draw(NAMES)
    raw, _, cuts = data.draw(row(name))
    chain = chain_of(raw, cuts)
    out, observations = plan_for(name, len(raw)).run_chain(chain)
    check(name, raw, as_output(out, chain), observations)
    assert chain.linearize() == raw


def run_batch_rows(name: str, rows) -> None:
    adus = [chain_of(raw, cuts) if as_chain else raw for raw, as_chain, cuts in rows]
    batch = plan_for(name, len(rows[0][0])).run_batch(adus)
    for index, (raw, _, _) in enumerate(rows):
        observations = {key: values[index] for key, values in batch.observations.items()}
        check(name, raw, batch.outputs[index], observations)
    for adu, (raw, _, _) in zip(adus, rows):
        if isinstance(adu, BufferChain):
            assert adu.linearize() == raw


@SETTINGS
@given(st.data())
def test_run_batch_even_matches_byte_reference(data):
    name = data.draw(NAMES)
    length = data.draw(lengths_for(name))
    count = data.draw(st.integers(1, 4) if length == BULK else st.integers(1, 6))
    run_batch_rows(name, [data.draw(row(name, length)) for _ in range(count)])


@SETTINGS
@given(st.data())
def test_run_batch_ragged_matches_byte_reference(data):
    # A conversion plan accepts one schema size, so a ragged batch is
    # drawn for the kernels that accept any length.
    name = data.draw(st.sampled_from(sorted(n for n, k in KERNELS.items() if not k.width)))
    lengths = data.draw(st.lists(lengths_for(name), min_size=2, max_size=5))
    run_batch_rows(name, [data.draw(row(name, length)) for length in lengths])


@pytest.mark.parametrize("name", ["checksum", "checksum-headers-only", "checksum-spans"])
@pytest.mark.parametrize(
    "raw",
    [b"", bytes(9), b"\xff" * 8, b"\xff" * 62, b"\xff\xfe\x00\x01\x00\x00\x07", bytes(5) + b"\xff" * 57],
    ids=["empty", "zeros", "ones-8", "ones-62", "pair-to-ffff", "zero-head"],
)
def test_covered_sum_of_zero_and_congruent_to_zero(name, raw):
    # An all-zero covered sum folds to 0 (checksum 0xFFFF); a nonzero one
    # congruent to 0 modulo 0xFFFF folds to 0xFFFF (checksum 0).
    plan = plan_for(name, len(raw))
    check(name, raw, *plan.run(raw))
    batch = plan.run_batch([raw])
    check(name, raw, batch.outputs[0], {key: values[0] for key, values in batch.observations.items()})
