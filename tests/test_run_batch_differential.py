"""``CompiledPlan.run_batch`` against per-row ``run()``, and its lazy report.

The batch executor packs every row into one word array, builds its pad
masks only when some row is not exactly the batch width, and prices its
execution report only when asked.  None of that may be visible: for any
mix of ``bytes`` rows and chains cut at arbitrary offsets, outputs and
observations equal running each row alone, input chains keep their
references, and the report's cycles equal the per-ADU reports' sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.ilp.compiler import CompiledPlan, PipelineCompiler
from repro.ilp.pipeline import Pipeline
from repro.ilp.report import ExecutionReport, StageExecution
from repro.integrity import IntegrityPolicy
from repro.machine.profile import MIPS_R2000
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32, Int64
from repro.presentation.lwts import LwtsCodec
from repro.stages.base import Facts
from repro.stages.checksum import ChecksumComputeStage
from repro.stages.encrypt import WordXorStage
from repro.stages.presentation import ByteswapStage, PresentationBinding
from repro.transport.alf import AlfReceiver
from repro.transport.alf.wire import wire_pipeline
from repro.transport.drain import SharedDrainEngine
from repro.units import bytes_to_words as words_covering

from tests.test_transport_drain import KEY, adu_payload, encrypted_packets, make_env

LITTLE, BIG = LwtsCodec(byte_order="little"), LwtsCodec(byte_order="big")


class ConvertedByteswapStage(ByteswapStage):
    """A byteswap gated on a fact the first byteswap provides: forces a
    second integrated loop that permutes the bytes the first loop left
    in each row's final partial word."""

    requires = frozenset({Facts.CONVERTED})


@dataclass(frozen=True)
class Case:
    """One plan shape.

    ``size`` fixes every row's length when even the kernel form only
    accepts ADUs of one schema size.  ``stage_size`` is the one length
    the stage path (``execute``, which prices per-ADU reports) accepts,
    or None for any length.
    """

    pipeline: Pipeline
    size: int | None = None
    stage_size: int | None = None


def _lwts(schema, receive: bool) -> Pipeline:
    binding = PresentationBinding(schema, LITTLE, BIG)
    if receive:
        return wire_pipeline(
            binding.receiver_stage(),
            convert_after=True,
            encrypt=WordXorStage(KEY, name="decrypt"),
        )
    return wire_pipeline(
        binding.sender_stage(), encrypt=WordXorStage(KEY, name="encrypt")
    )


INT32S = ArrayOf(Int32(), fixed_count=8)
INT64S = ArrayOf(Int64(), fixed_count=3)

CASES = {
    "checksum": Case(wire_pipeline()),
    "headers-only": Case(wire_pipeline(integrity=IntegrityPolicy.headers_only(6))),
    "xor+checksum": Case(wire_pipeline(encrypt=WordXorStage(KEY))),
    # The bulk_secure shape: LWTS int32 little -> big, cipher, checksum.
    # Its kernel is a per-word byteswap, which accepts any length.
    "lwts-int32-send": Case(_lwts(INT32S, receive=False), stage_size=32),
    "lwts-int32-receive": Case(_lwts(INT32S, receive=True), stage_size=32),
    # 8-byte scalars: a byte gather across words, fixed to the schema size.
    "lwts-int64-send": Case(_lwts(INT64S, receive=False), 24, 24),
    "lwts-int64-receive": Case(_lwts(INT64S, receive=True), 24, 24),
    "two-loop": Case(
        Pipeline(
            [
                ChecksumComputeStage(),
                WordXorStage(0x0F0F0F0F),
                ByteswapStage(),
                ConvertedByteswapStage(name="post-convert-swap"),
            ],
            name="two-loop",
        )
    ),
}

PLANS = {
    name: PipelineCompiler(MIPS_R2000).compile(case.pipeline)
    for name, case in CASES.items()
}


def test_cases_cover_both_batch_paths_and_two_loops():
    assert PLANS["headers-only"]._observer_limit == 6
    assert PLANS["two-loop"].n_loops == 2
    assert all(plan.fully_lowered for plan in PLANS.values())


def chain_of(data: bytes, cuts: list[int]) -> BufferChain:
    chain = BufferChain()
    prev = 0
    for cut in sorted(c for c in cuts if 0 < c < len(data)) + [len(data)]:
        if cut > prev:
            chain.append(Segment.wrap(data[prev:cut]))
        prev = cut
    return chain


@st.composite
def batches(draw, size: int | None):
    """Rows as ``bytes`` or chains.  Half the batches are all-equal word
    multiples (the mask-free path); the rest draw any length, empty rows
    and partial final words included."""
    n = draw(st.integers(min_value=1, max_value=6))
    if size is not None:
        lengths = [size] * n
    elif draw(st.booleans()):
        lengths = [4 * draw(st.integers(min_value=1, max_value=12))] * n
    else:
        lengths = draw(
            st.lists(st.integers(min_value=0, max_value=48), min_size=n, max_size=n)
        )
    rows = []
    for length in lengths:
        data = draw(st.binary(min_size=length, max_size=length))
        if draw(st.booleans()):
            cuts = draw(st.lists(st.integers(min_value=1, max_value=47), max_size=5))
            rows.append(chain_of(data, cuts))
        else:
            rows.append(data)
    return rows


def linear(row) -> bytes:
    return row.linearize() if isinstance(row, BufferChain) else row


def refcounts(rows) -> list[list[int]]:
    return [
        [segment.refcount for segment in row]
        for row in rows
        if isinstance(row, BufferChain)
    ]


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_batch_matches_per_row_run(name, data):
    case, plan = CASES[name], PLANS[name]
    rows = data.draw(batches(case.size))
    before = refcounts(rows)
    batch = plan.run_batch(rows)
    assert refcounts(rows) == before
    singles = [plan.run(linear(row)) for row in rows]
    assert batch.outputs == [out for out, _ in singles]
    assert batch.observations == {
        key: [observations[key] for _, observations in singles]
        for key in singles[0][1]
    }
    if case.stage_size is None or all(len(row) == case.stage_size for row in rows):
        per_adu = sum(
            plan.execute(case.pipeline, linear(row))[1].total_cycles for row in rows
        )
        assert batch.report.total_cycles == pytest.approx(per_adu)
    for row in rows:
        if isinstance(row, BufferChain):
            row.release()


# ----------------------------------------------------------------------
# The report is priced only when read


def eager_report(plan: CompiledPlan, lengths: list[int]) -> ExecutionReport:
    """The batch report as every batch used to price it up front."""
    words = sum(words_covering(length) for length in lengths)
    return ExecutionReport(
        pipeline_name=plan.pipeline_name,
        mode="integrated-batch",
        profile=plan.profile,
        payload_bytes=sum(lengths),
        executions=[
            StageExecution(
                label=group.label,
                category=group.category,
                n_bytes=sum(lengths),
                cycles=words * group.cycles_per_word
                + len(lengths) * group.cycles_per_invocation,
                memory_pass=group.memory_pass,
            )
            for group in plan.groups
        ],
        speculative_facts=set(plan.speculative_facts),
    )


@pytest.mark.parametrize("name", ["xor+checksum", "headers-only"])
def test_report_on_first_access_equals_eager_value(name):
    plan = PLANS[name]
    rows = [random.Random(n).randbytes(n) for n in (0, 3, 8, 61, 64)]
    batch = plan.run_batch(rows)
    assert batch.report == eager_report(plan, [len(row) for row in rows])
    assert batch.report is batch.report


@pytest.fixture
def count_reports(monkeypatch):
    calls = []
    price = CompiledPlan._batch_report

    def counted(self, lengths):
        calls.append(len(lengths))
        return price(self, lengths)

    monkeypatch.setattr(CompiledPlan, "_batch_report", counted)
    return calls


def test_shared_drain_engine_never_prices_a_report(count_reports):
    path, engine, receivers, delivered = make_env(n_flows=3)
    for receiver in receivers:
        for packet in encrypted_packets(
            receiver.flow_id, [adu_payload(receiver.flow_id + i) for i in range(4)]
        ):
            path.b.receive(packet)
    assert engine.flush() == 12
    assert engine.counters.dispatches == 1
    assert count_reports == []


def test_receiver_run_batch_never_prices_a_report(count_reports):
    """One flow's rows, drained through its engine's run_batch."""
    path = two_hosts(seed=2)
    delivered = []
    engine = SharedDrainEngine(path.loop)
    AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: delivered.append(bytes(d.payload)),
        zero_copy=False, encryption=KEY, drain_engine=engine,
    )
    payloads = [adu_payload(i) for i in range(5)]
    for packet in encrypted_packets(1, payloads):
        path.b.receive(packet)
    assert engine.flush() == 5
    assert engine.counters.dispatches == 1
    assert delivered == payloads
    assert count_reports == []
