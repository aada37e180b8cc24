"""Selective integrity — coverage-span checksums through the drain path.

Three measurements, one story: the §5 ALF argument that integrity is an
application-layer *policy*, compiled into the wire plan instead of
hard-coded into the transport.

**Throughput A/B.**  32 single-fragment flows send 4 large ADUs each
across one simulated link into a 4-shard
:class:`~repro.net.shard.ShardedHost`, once per policy:

* **FULL** — every payload word is folded on both ends (the classic
  checksum, expressed as an explicit policy so the coverage kernel's
  read-pass accounting applies);
* **SPANS** — only the covered spans fold; uncovered words are masked
  out of the vectorized sum, so checksum work scales with covered
  bytes, not payload bytes;
* **HEADERS_ONLY** — coverage is a short prefix, which additionally
  lets the batch drain gather only each row's covered head: the
  payload body is never packed, read or unpacked at all.

Delivery is asserted byte-identical and exactly-once for every policy.
Headline gates, exact per ADU on the DatapathCounters ledger: each
policy makes one full-payload copy in the drain (FULL's batch unpack,
the others' delivery linearize), and its checksum reads exactly its
covered bytes (the whole payload, the span, the 64-byte head).  A
HEADERS_ONLY drain that packs or folds its body breaks either count.
HEADERS_ONLY's speedup over FULL is reported, not gated: both pay the
same copy and the same DMA, delivery and event path, and differ only in
the bytes they read.

**Corrupt tolerance.**  A lossy path pins bit flips inside, then
outside, a SPANS policy's coverage.  Uncovered damage must deliver
100% of ADUs flagged with the damaged ranges (the paper's ALF "ignore"
recovery mode) and byte-identical outside the flags; covered damage
must still be caught and repaired every time, with zero corrupt rows
accepted.  Emits a machine-readable JSON record
(``SELECTIVE_INTEGRITY_JSON`` line and ``benchmarks/out/
bench_selective_integrity.json``) for the CI gate and artifact.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core.adu import Adu
from repro.ilp.compiler import PlanCache
from repro.integrity import IntegrityPolicy
from repro.machine.accounting import datapath_counters, integrity_counters
from repro.machine.profile import MIPS_R2000
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost, shard_index
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf.receiver import AlfReceiver
from repro.transport.alf.sender import AlfSender
from repro.transport.alf.wire import WIRE_CHECKSUM, wire_pipeline
from repro.transport.drain import SharedDrainEngine

N_FLOWS = 32
N_ADUS = 4
PAYLOAD = 128 * 1024
N_SHARDS = 4
HEADER_BYTES = 64
SPAN_BYTES = 4096

# Corrupt-tolerance scenario (small ADUs; correctness, not throughput).
TOL_ADUS = 32
TOL_PAYLOAD = 4096
TOL_SPANS = ((0, 256),)

OUT_DIR = Path(__file__).resolve().parent / "out"

POLICIES = {
    "full": IntegrityPolicy.full(),
    "spans": IntegrityPolicy.of_spans([(0, SPAN_BYTES)]),
    "headers_only": IntegrityPolicy.headers_only(HEADER_BYTES),
}

#: Per ADU in the drain: (payload bytes copied by label, bytes read).
EXPECTED_PER_ADU = {
    "full": ({"batch-unpack": PAYLOAD}, PAYLOAD),
    "spans": ({"linearize": PAYLOAD}, SPAN_BYTES),
    "headers_only": ({"linearize": PAYLOAD}, HEADER_BYTES),
}

_BODY = bytes(range(256)) * (PAYLOAD // 256)


def payload_for(flow_id: int, seq: int) -> bytes:
    prefix = bytes(((flow_id * 131 + seq * 17 + k) & 0xFF) for k in range(64))
    return prefix + _BODY[64:]


def data_packet(plan, flow_id: int, seq: int) -> Packet:
    payload = payload_for(flow_id, seq)
    _, observations = plan.run(payload)
    return Packet(
        src="a",
        dst="b",
        protocol="alf",
        flow_id=flow_id,
        header={
            "adu_seq": seq,
            "frag": 0,
            "nfrags": 1,
            "adu_len": PAYLOAD,
            "adu_csum": observations[WIRE_CHECKSUM],
            "name": {"seq": seq},
        },
        payload=payload,
    )


def build_scenario(policy: IntegrityPolicy):
    """Sender host, one forward link, and a 4-shard receiving host with
    one receiver per flow, all running ``policy``."""
    loop = EventLoop()
    front = Host(loop, "b")
    sender = Host(loop, "a")
    link = Link(
        loop,
        RngStreams(3).stream("fwd"),
        bandwidth_bps=1e12,
        propagation_delay=1e-4,
        name="a->b",
    )
    sender.add_link("b", link)
    sharded = ShardedHost(
        front,
        N_SHARDS,
        rng=RngStreams(5),
        pool_buffers=N_FLOWS * 2,
        buffer_size=PAYLOAD,
        max_rows=1 << 16,
    )
    sharded.attach_link(link)
    ack_rng = RngStreams(9)
    for shard in sharded.shards:
        sink = Host(shard.loop, "a")
        ack = Link(
            shard.loop,
            ack_rng.stream(f"ack-{shard.index}"),
            propagation_delay=1e-4,
            name=f"b->a/{shard.index}",
        )
        ack.connect(sink.receive)
        shard.host.add_link("a", ack)
    cache = PlanCache(capacity=8)
    delivered: dict[int, list[bytes]] = {}
    by_shard: dict[int, list[int]] = {}
    for flow_id in range(N_FLOWS):
        by_shard.setdefault(shard_index("alf", flow_id, N_SHARDS), []).append(
            flow_id
        )
    for index in sorted(by_shard):
        shard = sharded.shards[index]
        for flow_id in by_shard[index]:
            AlfReceiver(
                shard.loop,
                shard.host,
                "a",
                flow_id,
                deliver=lambda adu, fid=flow_id: delivered.setdefault(
                    fid, []
                ).append(bytes(adu.payload)),
                ack_interval=0,
                plan_cache=cache,
                zero_copy=True,
                drain_engine=shard.engine,
                integrity=policy,
            )
    return loop, sender, sharded, delivered, cache


def run_once(policy: IntegrityPolicy) -> dict[str, object]:
    """One full run; returns send-to-drain wall time plus correctness
    evidence and the policy's coverage accounting."""
    loop, sender, sharded, delivered, cache = build_scenario(policy)
    plan = cache.get_or_compile(
        wire_pipeline(None, integrity=policy), MIPS_R2000
    )
    packets = [
        data_packet(plan, flow_id, seq)
        for flow_id in range(N_FLOWS)
        for seq in range(N_ADUS)
    ]
    gc.collect()
    datapath_counters().reset()
    integrity_counters().reset()
    start = time.perf_counter()
    for packet in packets:
        sender.send(packet)
    loop.run()
    sharded.drain()
    elapsed = time.perf_counter() - start
    datapath = datapath_counters().snapshot()
    integrity = integrity_counters().snapshot()
    delivered_total = sharded.delivered_total
    leaks = sharded.shutdown()
    return {
        "wall_s": elapsed,
        "delivered": delivered,
        "delivered_total": delivered_total,
        "bytes_read": datapath["bytes_read"],
        "copies_by_label": datapath["copies_by_label"],
        "integrity": integrity,
        "leaks": leaks,
    }


def check_delivery(result: dict[str, object]) -> None:
    """Byte-identical, exactly-once, in order, and leak-free."""
    delivered = result["delivered"]
    assert result["delivered_total"] == N_FLOWS * N_ADUS, result[
        "delivered_total"
    ]
    for flow_id in range(N_FLOWS):
        expected = [payload_for(flow_id, seq) for seq in range(N_ADUS)]
        assert delivered.get(flow_id) == expected, f"flow {flow_id} diverged"
    for index, report in result["leaks"].items():
        assert report == [], f"shard {index} leaked: {report}"


def run_tolerant(corrupt_span: tuple[int, int], corrupt_rate: float) -> dict:
    """One serial flow under a SPANS policy with pinned damage."""
    policy = IntegrityPolicy.of_spans(TOL_SPANS)
    integrity_counters().reset()
    path = two_hosts(
        seed=7,
        bandwidth_bps=1e9,
        corrupt_rate=corrupt_rate,
        corrupt_span=corrupt_span,
    )
    delivered: list = []
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1, delivered.append,
        ack_interval=0.01, expected_adus=TOL_ADUS,
        integrity=policy, drain_engine=SharedDrainEngine(path.loop),
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=TOL_PAYLOAD, integrity=policy
    )
    payloads = [
        bytes(((i * 37 + k) & 0xFF) for k in range(TOL_PAYLOAD))
        for i in range(TOL_ADUS)
    ]
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(i, payload, {"i": i}))
    path.loop.run(until=10.0)
    intact = 0
    covered_hits_accepted = 0
    for adu in delivered:
        reference = bytearray(payloads[adu.sequence])
        for lo, hi in adu.corrupt_spans:
            if policy.covers(lo, hi):
                covered_hits_accepted += 1
            reference[lo:hi] = adu.payload[lo:hi]
        if bytes(reference) == adu.payload:
            intact += 1
    return {
        "delivered": len(delivered),
        "flagged": sum(1 for adu in delivered if adu.corrupt_spans),
        "intact_outside_flags": intact,
        "covered_hits_accepted": covered_hits_accepted,
        "checksum_failures": receiver.stats.checksum_failures,
        "retransmissions": sender.stats.retransmissions,
        "tolerant_deliveries": integrity_counters().snapshot()[
            "tolerant_deliveries"
        ],
    }


def best_of(fn, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        candidate = fn()
        if best is None or candidate["wall_s"] < best:
            best, result = candidate["wall_s"], candidate
    return result


@pytest.fixture(scope="module")
def record():
    results = {
        key: best_of(lambda policy=policy: run_once(policy))
        for key, policy in POLICIES.items()
    }
    for result in results.values():
        check_delivery(result)

    total = N_FLOWS * N_ADUS
    uncovered = run_tolerant(corrupt_span=(1024, 3072), corrupt_rate=1.0)
    covered = run_tolerant(corrupt_span=(0, 128), corrupt_rate=0.5)

    spans_fraction = SPAN_BYTES / PAYLOAD
    return {
        "n_flows": N_FLOWS,
        "adus_per_flow": N_ADUS,
        "payload_bytes": PAYLOAD,
        "n_shards": N_SHARDS,
        "policies": {
            key: {
                "fingerprint": POLICIES[key].fingerprint,
                "wall_s": result["wall_s"],
                "adus_per_s": total / result["wall_s"],
                "bytes_read": result["bytes_read"],
                "bytes_read_per_adu": result["bytes_read"] / total,
                "copies_by_label_per_adu": {
                    label: copied / total
                    for label, copied in result["copies_by_label"].items()
                },
                "covered_bytes": result["integrity"]["covered_bytes"],
                "skipped_bytes": result["integrity"]["skipped_bytes"],
                "skip_fraction": result["integrity"]["skip_fraction"],
                "policy_hits": result["integrity"]["policy_hits"],
            }
            for key, result in results.items()
        },
        "speedup_headers_vs_full": results["full"]["wall_s"]
        / results["headers_only"]["wall_s"],
        "spans_coverage_fraction": spans_fraction,
        "spans_read_ratio": results["spans"]["bytes_read"]
        / max(results["full"]["bytes_read"], 1),
        "tolerant": {
            "adus": TOL_ADUS,
            "payload_bytes": TOL_PAYLOAD,
            "covered_spans": [list(span) for span in TOL_SPANS],
            "uncovered_damage": uncovered,
            "covered_damage": covered,
        },
    }


def test_bench_selective_integrity(benchmark, record):
    benchmark(lambda: run_once(POLICIES["headers_only"]))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_selective_integrity.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("SELECTIVE_INTEGRITY_JSON " + json.dumps(record, sort_keys=True))


def test_bench_full_coverage(benchmark):
    benchmark(lambda: run_once(POLICIES["full"]))


def test_acceptance_selective_integrity(record):
    # Headline gate: exact per-ADU copies and reads.  Every policy
    # copies each payload once in the drain; the checksum reads only
    # the covered bytes — HEADERS_ONLY gathers just its 64-byte heads.
    for key, (copies, read) in EXPECTED_PER_ADU.items():
        policy = record["policies"][key]
        assert policy["copies_by_label_per_adu"] == copies, (key, record)
        assert policy["bytes_read_per_adu"] == read, (key, record)
    # The mechanism is the one claimed: the SPANS run's checksum read
    # passes are proportional to its covered fraction, not payload
    # size.  (Allow generous slack for the odd non-checksum read pass.)
    fraction = record["spans_coverage_fraction"]
    assert record["spans_read_ratio"] <= fraction * 1.5 + 0.01, record
    assert record["spans_read_ratio"] >= fraction * 0.5, record
    # HEADERS_ONLY skipped essentially the whole payload body.
    headers = record["policies"]["headers_only"]
    assert headers["skip_fraction"] >= 0.95, record

    tolerant = record["tolerant"]
    # Uncovered damage: 100% delivered, every ADU flagged, payloads
    # byte-identical outside the flagged ranges, zero repair traffic.
    uncovered = tolerant["uncovered_damage"]
    assert uncovered["delivered"] == TOL_ADUS, record
    assert uncovered["flagged"] == TOL_ADUS, record
    assert uncovered["intact_outside_flags"] == TOL_ADUS, record
    assert uncovered["checksum_failures"] == 0, record
    assert uncovered["tolerant_deliveries"] == TOL_ADUS, record
    # Covered damage: still caught and repaired every time — no corrupt
    # row accepted, no false flags.
    covered = tolerant["covered_damage"]
    assert covered["delivered"] == TOL_ADUS, record
    assert covered["checksum_failures"] > 0, record
    assert covered["flagged"] == 0, record
    assert covered["covered_hits_accepted"] == 0, record
    assert covered["intact_outside_flags"] == TOL_ADUS, record
