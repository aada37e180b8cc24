"""Full §6 secure pipeline — wall-clock, pass counts, batched drain.

Two engineerings of the complete sender/receiver manipulation set
(presentation conversion + encryption + checksum), measured on real
time:

* **layered** — the interpreted recursive codec walk, then a separate
  cipher pass, then a separate checksum pass: three full traversals of
  every ADU outbound, and three more (verify, decrypt, convert back)
  inbound.
* **compiled-fused** — the sender compiles ``[convert, encrypt,
  checksum]`` and the receiver ``[checksum, decrypt, convert]``; each
  direction is one integrated read pass (the checksum covers the
  ciphertext, so the receiver verifies before decrypting).

Wire bytes, checksums and the decrypted round trip are asserted
byte-identical between the two.  The one-read-pass claim is verified per
direction against :func:`repro.machine.accounting.datapath_counters` —
measured, not asserted.  A second section drains a 64-ADU reassembly
queue through a :class:`~repro.transport.drain.SharedDrainEngine` (one
vectorized ``run_batch`` plan dispatch) against verifying each ADU on
arrival.  Emits a machine-readable
JSON record (``SECURE_PIPELINE_JSON`` line and
``benchmarks/out/bench_secure_pipeline.json``) for the CI artifact.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.workloads import integer_array
from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.core.adu import Adu, fragment_adu
from repro.ilp.compiler import PlanCache
from repro.machine.accounting import datapath_counters
from repro.machine.profile import MIPS_R2000
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.compiler import CodecCache
from repro.presentation.lwts import LwtsCodec
from repro.stages.checksum import internet_checksum
from repro.stages.encrypt import WordXorStage
from repro.stages.presentation import PresentationConvertStage
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.receiver import PROTOCOL
from repro.transport.alf.wire import wire_pipeline
from repro.transport.drain import SharedDrainEngine

N_INTEGERS = 1024
N_ADUS = 64
KEY = 0x5A5AC3D2
SCHEMA = ArrayOf(Int32(), fixed_count=N_INTEGERS)
LOCAL = LwtsCodec(byte_order="little")
WIRE = LwtsCodec(byte_order="big")

OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="module")
def payloads():
    values = [integer_array(N_INTEGERS, seed=90 + i) for i in range(N_ADUS)]
    return [LOCAL.encode(value, SCHEMA) for value in values]


# ----------------------------------------------------------------------
# Engineering 1: layered — walk, cipher pass, checksum pass, and back.


def run_layered_send(payloads: list[bytes]) -> tuple[list[bytes], list[int]]:
    cipher = WordXorStage(KEY)
    wire = []
    checksums = []
    for payload in payloads:
        value = LOCAL.decode(payload, SCHEMA)
        converted = WIRE.encode(value, SCHEMA)
        ciphertext = cipher.apply(converted)
        wire.append(ciphertext)
        checksums.append(internet_checksum(ciphertext))
    return wire, checksums


def run_layered_receive(
    wire: list[bytes], checksums: list[int]
) -> list[bytes]:
    cipher = WordXorStage(KEY)
    back = []
    for ciphertext, checksum in zip(wire, checksums):
        assert internet_checksum(ciphertext) == checksum
        converted = cipher.apply(ciphertext)
        value = WIRE.decode(converted, SCHEMA)
        back.append(LOCAL.encode(value, SCHEMA))
    return back


# ----------------------------------------------------------------------
# Engineering 2: compiled-fused — one plan per direction.


def make_plans(plan_cache: PlanCache, codec_cache: CodecCache):
    sender = plan_cache.get_or_compile(
        wire_pipeline(
            PresentationConvertStage(
                SCHEMA, LOCAL, WIRE, codec_cache=codec_cache
            ),
            encrypt=WordXorStage(KEY, name="encrypt"),
        ),
        MIPS_R2000,
    )
    receiver = plan_cache.get_or_compile(
        wire_pipeline(
            PresentationConvertStage(
                SCHEMA, WIRE, LOCAL, codec_cache=codec_cache
            ),
            convert_after=True,
            encrypt=WordXorStage(KEY, name="decrypt"),
        ),
        MIPS_R2000,
    )
    return sender, receiver


def run_fused_send(plan, payloads: list[bytes]) -> tuple[list[bytes], list[int]]:
    wire = []
    checksums = []
    for payload in payloads:
        output, observations = plan.run(payload)
        wire.append(output)
        checksums.append(observations["checksum-internet"])
    return wire, checksums


def run_fused_receive(plan, wire: list[bytes], checksums: list[int]) -> list[bytes]:
    back = []
    for ciphertext, checksum in zip(wire, checksums):
        output, observations = plan.run(ciphertext)
        assert observations["checksum-internet"] == checksum
        back.append(output)
    return back


def best_of(fn, repeats: int = 5) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


# ----------------------------------------------------------------------
# Receive-side drain: run_batch vs per-ADU verification.

DRAIN_MTU = 1024


def make_fragment_packets(payloads: list[bytes]) -> list[Packet]:
    """The arrival stream a reassembling receiver sees: every fragment
    of every ADU, ciphertext on the wire, checksummed over the
    ciphertext (what an encrypting ``AlfSender`` emits)."""
    cipher = WordXorStage(KEY)
    packets = []
    for sequence, payload in enumerate(payloads):
        ciphertext = cipher.apply(payload)
        checksum = internet_checksum(ciphertext)
        adu = Adu(sequence=sequence, payload=ciphertext, name={"i": sequence})
        for fragment in fragment_adu(adu, DRAIN_MTU, checksum=checksum):
            packets.append(
                Packet(
                    src="a",
                    dst="b",
                    protocol=PROTOCOL,
                    flow_id=1,
                    header=AlfSender._header(
                        fragment.adu_sequence, fragment.index, fragment.total,
                        fragment.adu_length, fragment.adu_checksum, fragment.name,
                    ),
                    payload=fragment.payload,
                )
            )
    return packets


def make_receiver(drained: bool):
    """A receiver fed synthetically, verifying on arrival or through a
    drain engine (the loop is never run, so the engine's zero-delay
    flush stays queued and ``flush`` is explicit)."""
    path = two_hosts(seed=5)
    delivered: dict[int, bytes] = {}
    receiver = AlfReceiver(
        path.loop,
        path.b,
        "a",
        1,
        deliver=lambda d: delivered.__setitem__(d.sequence, d.payload),
        zero_copy=False,
        encryption=KEY,
        drain_engine=SharedDrainEngine(path.loop) if drained else None,
    )
    return receiver, delivered


def drain_per_adu(packets: list[Packet]) -> dict[int, bytes]:
    receiver, delivered = make_receiver(drained=False)
    for packet in packets:
        receiver._on_fragment(packet)
    return delivered


def drain_batched(packets: list[Packet]) -> dict[int, bytes]:
    receiver, delivered = make_receiver(drained=True)
    for packet in packets:
        receiver._on_fragment(packet)
    engine = receiver.drain_engine
    drained = engine.flush()
    assert drained == len(delivered) == N_ADUS
    assert engine.counters.dispatches == 1
    return delivered


@pytest.fixture(scope="module")
def record(payloads):
    total_bytes = sum(len(p) for p in payloads)
    plan_cache = PlanCache(capacity=8)
    codec_cache = CodecCache()
    sender_plan, receiver_plan = make_plans(plan_cache, codec_cache)
    assert len(sender_plan.groups) == 1, "sender stages did not fuse"
    assert len(receiver_plan.groups) == 1, "receiver stages did not fuse"

    layered_s, (layered_wire, layered_sums) = best_of(
        lambda: run_layered_send(payloads)
    )
    layered_rx_s, layered_back = best_of(
        lambda: run_layered_receive(layered_wire, layered_sums)
    )
    fused_s, (fused_wire, fused_sums) = best_of(
        lambda: run_fused_send(sender_plan, payloads)
    )
    fused_rx_s, fused_back = best_of(
        lambda: run_fused_receive(receiver_plan, fused_wire, fused_sums)
    )
    assert fused_wire == layered_wire, "fused wire bytes diverged"
    assert fused_sums == layered_sums, "fused checksum diverged"
    assert layered_back == payloads and fused_back == payloads

    # One-read-pass verification, per direction: feed multi-segment
    # arrival chains and count gather traversals on the counters.
    counters = datapath_counters()

    def chain_passes(plan, units: list[bytes]) -> float:
        counters.reset()
        for unit in units:
            half = (len(unit) // 2) & ~3
            chain = BufferChain(
                [Segment.wrap(unit[:half]), Segment.wrap(unit[half:])]
            )
            output, _ = plan.run_chain(chain)
            if isinstance(output, BufferChain):
                output.release()
        snap = counters.snapshot()
        counters.reset()
        gathered = snap["copies_by_label"].get("gather-words", 0)
        return gathered / sum(len(unit) for unit in units)

    send_passes = chain_passes(sender_plan, payloads)
    recv_passes = chain_passes(receiver_plan, layered_wire)

    # Receive-side drain: one engine-drained run_batch over the 64-ADU
    # queue against verifying each ADU on arrival.
    packets = make_fragment_packets(payloads)
    per_adu_s, per_adu_out = best_of(lambda: drain_per_adu(packets))
    batch_s, batch_out = best_of(lambda: drain_batched(packets))
    expected = dict(enumerate(payloads))
    assert per_adu_out == expected, "per-ADU drain diverged"
    assert batch_out == expected, "batched drain diverged"

    round_trip_layered = layered_s + layered_rx_s
    round_trip_fused = fused_s + fused_rx_s
    return {
        "n_adus": N_ADUS,
        "adu_bytes": 4 * N_INTEGERS,
        "total_bytes": total_bytes,
        "layered": {
            "send_wall_s": layered_s,
            "receive_wall_s": layered_rx_s,
            "round_trip_wall_s": round_trip_layered,
            "mb_per_s": 2 * total_bytes / round_trip_layered / 1e6,
        },
        "compiled_fused": {
            "send_wall_s": fused_s,
            "receive_wall_s": fused_rx_s,
            "round_trip_wall_s": round_trip_fused,
            "mb_per_s": 2 * total_bytes / round_trip_fused / 1e6,
        },
        "speedup": round_trip_layered / round_trip_fused,
        "send_read_passes_per_adu": send_passes,
        "receive_read_passes_per_adu": recv_passes,
        "batch_drain": {
            "mtu": DRAIN_MTU,
            "per_adu_wall_s": per_adu_s,
            "batch_wall_s": batch_s,
            "speedup": per_adu_s / batch_s,
        },
    }


def test_bench_fused_secure(benchmark, record, payloads):
    plan_cache = PlanCache(capacity=8)
    codec_cache = CodecCache()
    sender_plan, receiver_plan = make_plans(plan_cache, codec_cache)

    def round_trip():
        wire, sums = run_fused_send(sender_plan, payloads)
        return run_fused_receive(receiver_plan, wire, sums)

    benchmark(round_trip)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_secure_pipeline.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("SECURE_PIPELINE_JSON " + json.dumps(record, sort_keys=True))


def test_bench_layered_secure(benchmark, payloads):
    def round_trip():
        wire, sums = run_layered_send(payloads)
        return run_layered_receive(wire, sums)

    benchmark(round_trip)


def test_bench_batched_drain(benchmark, payloads):
    packets = make_fragment_packets(payloads)
    benchmark(lambda: drain_batched(packets))


def test_acceptance_secure_pipeline(record):
    # Headline criterion: the fused secure round trip moves the same
    # ADU stream at least 3x faster than the layered walk.
    assert record["speedup"] >= 3.0, record["speedup"]
    # Each direction reads its input exactly once.
    assert record["send_read_passes_per_adu"] == pytest.approx(1.0, abs=1e-9)
    assert record["receive_read_passes_per_adu"] == pytest.approx(1.0, abs=1e-9)
    # One vectorized run_batch beats per-ADU verification on the same
    # 64-ADU drain.
    assert record["batch_drain"]["speedup"] > 1.0, record["batch_drain"]
