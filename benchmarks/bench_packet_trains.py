"""End-to-end packet trains — burst delivery, ring handoff, adaptive epochs.

Two measurements, one story: §4's "burst" observation (per-*train*
control cost instead of per-packet) carried through every layer of the
receive path.

**Ingest A/B.**  64 ALF flows send 64 ADUs each across one simulated
link into a 4-shard :class:`~repro.net.shard.ShardedHost`:

* **per-packet** — the PR-6 baseline: the link upcalls once per packet,
  the demux probes the steering table once per packet, each worker is
  poked once per packet.
* **trains of 32** — the link coalesces back-to-back deliveries into
  one ``receive_burst`` upcall; the demux walks the train in one pass
  (one placement probe per flow-run), pushes one burst descriptor per shard
  per train, and pokes each worker once per train.

Both engineerings run the identical packets; delivery is asserted
byte-identical and exactly-once, and every shard tears down to a clean
``leak_report``.  Headline gates: drained ADUs/sec with trains ≥ 2x the
per-packet baseline, and demux placement probes cut ≥ 4x.

**Adaptive epochs.**  A host-wide drain engine serves 16 flows through
two regimes — a lone idle ADU, then 32 waves of 16 rows arriving every
half-epoch — with ``adaptive`` off and on.  The adaptive engine must
flush the idle ADU immediately (zero simulated latency vs. the fixed
engine's full ``max_delay``), batch *deeper* than the fixed engine
under sustained backlog, and settle back to immediate flushes after
the storm.  Emits a machine-readable JSON record
(``PACKET_TRAINS_JSON`` line and ``benchmarks/out/
bench_packet_trains.json``) for the CI gate and artifact.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.ilp.compiler import PlanCache
from repro.machine.accounting import DrainCounters, ShardCounters
from repro.machine.profile import MIPS_R2000
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost, shard_index
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf.receiver import AlfReceiver
from repro.transport.alf.wire import WIRE_CHECKSUM, wire_pipeline
from repro.transport.drain import SharedDrainEngine

N_FLOWS = 64
N_ADUS = 64
PAYLOAD = 64
TRAIN = 32
TRAIN_WINDOW = 1e-3
N_SHARDS = 4
SPEEDUP_GATE = 2.0
PROBE_GATE = 4.0

# Adaptive-epoch scenario.
EPOCH = 0.005
WAVE_FLOWS = 16
WAVES = 32
RAMP_ROWS = 8  # a ~one-wave EWMA already means "sustained backlog"

OUT_DIR = Path(__file__).resolve().parent / "out"


def payload_for(flow_id: int, seq: int) -> bytes:
    return bytes(
        (flow_id * 131 + seq * 17 + offset) & 0xFF for offset in range(PAYLOAD)
    )


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


def build_scenario(max_train: int):
    """Sender host, one forward link (train mode per ``max_train``),
    and a 4-shard receiving host with one receiver per flow."""
    loop = EventLoop()
    front = Host(loop, "b")
    sender = Host(loop, "a")
    link = Link(
        loop,
        RngStreams(3).stream("fwd"),
        bandwidth_bps=1e9,
        propagation_delay=1e-4,
        max_train=max_train,
        train_window=TRAIN_WINDOW if max_train > 1 else 0.0,
        name="a->b",
    )
    sender.add_link("b", link)
    demux = ShardCounters()
    sharded = ShardedHost(
        front,
        N_SHARDS,
        rng=RngStreams(5),
        pool_buffers=N_FLOWS * 2,
        buffer_size=256,
        max_rows=1 << 16,
        counters=demux,
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
            )
    return loop, sender, link, sharded, demux, delivered, cache


def build_packets(cache: PlanCache) -> list[Packet]:
    """Fresh data packets, flow-major: each flow's ADUs are
    back-to-back on the wire, so runs (and trains) are long."""
    plan = cache.get_or_compile(wire_pipeline(None), MIPS_R2000)
    return [
        data_packet(plan, flow_id, seq)
        for flow_id in range(N_FLOWS)
        for seq in range(N_ADUS)
    ]


def run_once(max_train: int) -> dict[str, object]:
    """One full run; returns the wall time of send-to-drain plus
    correctness evidence (payload map, counters, leak reports)."""
    loop, sender, link, sharded, demux, delivered, cache = build_scenario(
        max_train
    )
    packets = build_packets(cache)
    gc.collect()
    start = time.perf_counter()
    for packet in packets:
        sender.send(packet)
    loop.run()
    sharded.drain()
    elapsed = time.perf_counter() - start
    delivered_total = sharded.delivered_total
    leaks = sharded.shutdown()
    return {
        "wall_s": elapsed,
        "delivered": delivered,
        "delivered_total": delivered_total,
        "demux": demux.snapshot(),
        "trains": link.stats.trains,
        "train_packets": link.stats.train_packets,
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


def run_adaptive(adaptive: bool) -> dict[str, object]:
    """Idle probe, backlog storm, settle probe — all simulated time."""
    loop = EventLoop()
    host = Host(loop, "b")
    sink = Host(loop, "a")
    ack = Link(loop, RngStreams(1).stream("ack"), propagation_delay=1e-4)
    ack.connect(sink.receive)
    host.add_link("a", ack)
    counters = DrainCounters()
    engine = SharedDrainEngine(
        loop,
        max_rows=1 << 16,
        max_delay=EPOCH,
        adaptive=adaptive,
        ramp_rows=RAMP_ROWS,
        counters=counters,
    )
    cache = PlanCache(capacity=8)
    plan = cache.get_or_compile(wire_pipeline(None), MIPS_R2000)
    delivered_at: dict[int, list[float]] = {}
    for flow_id in range(WAVE_FLOWS):
        AlfReceiver(
            loop,
            host,
            "a",
            flow_id,
            deliver=lambda adu, fid=flow_id: delivered_at.setdefault(
                fid, []
            ).append(loop.now),
            ack_interval=0,
            plan_cache=cache,
            drain_engine=engine,
        )
    # Idle regime: one lone ADU; its delivery time IS its flush latency.
    host.receive(data_packet(plan, 0, 0))
    loop.run()
    idle_latency = delivered_at[0][0]
    # Backlogged regime: waves of WAVE_FLOWS rows every half-epoch.
    base = loop.now
    dispatches_before = counters.dispatches

    def wave(k: int) -> None:
        for flow_id in range(WAVE_FLOWS):
            host.receive(data_packet(plan, flow_id, k + 1))

    for k in range(WAVES):
        loop.schedule_at(base + k * EPOCH / 2, wave, k)
    loop.run()
    engine.flush()
    burst_dispatches = counters.dispatches - dispatches_before
    # Silence decays the pressure; the next lone ADU should flush
    # immediately again.
    loop.run(until=loop.now + 30 * EPOCH)
    probe_sent = loop.now
    host.receive(data_packet(plan, 0, WAVES + 5))
    loop.run()
    settle_latency = delivered_at[0][-1] - probe_sent
    assert all(
        len(delivered_at[fid]) == WAVES for fid in range(1, WAVE_FLOWS)
    ), "storm rows lost"
    return {
        "idle_latency_s": idle_latency,
        "burst_dispatches": burst_dispatches,
        "rows_per_dispatch": WAVES * WAVE_FLOWS / burst_dispatches,
        "settle_latency_s": settle_latency,
        "engine": engine.snapshot(),
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
    per_packet = best_of(lambda: run_once(1))
    trains = best_of(lambda: run_once(TRAIN))
    for result in (per_packet, trains):
        check_delivery(result)
    fixed = run_adaptive(adaptive=False)
    adaptive = run_adaptive(adaptive=True)

    total = N_FLOWS * N_ADUS
    return {
        "n_flows": N_FLOWS,
        "adus_per_flow": N_ADUS,
        "payload_bytes": PAYLOAD,
        "n_shards": N_SHARDS,
        "max_train": TRAIN,
        "per_packet": {
            "wall_s": per_packet["wall_s"],
            "adus_per_s": total / per_packet["wall_s"],
            "demux_runs": per_packet["demux"]["demux_runs"],
            "worker_services": per_packet["demux"]["worker_services"],
        },
        "trains": {
            "wall_s": trains["wall_s"],
            "adus_per_s": total / trains["wall_s"],
            "demux_runs": trains["demux"]["demux_runs"],
            "probes_saved": trains["demux"]["probes_saved"],
            "worker_services": trains["demux"]["worker_services"],
            "link_trains": trains["trains"],
            "link_train_packets": trains["train_packets"],
            "packets_per_train": trains["train_packets"]
            / max(trains["trains"], 1),
            "train_len_hist": {
                str(k): v
                for k, v in trains["demux"]["train_len_hist"].items()
            },
        },
        "speedup": per_packet["wall_s"] / trains["wall_s"],
        "probe_reduction": per_packet["demux"]["demux_runs"]
        / max(trains["demux"]["demux_runs"], 1),
        "adaptive_epochs": {
            "epoch_s": EPOCH,
            "waves": WAVES,
            "wave_rows": WAVE_FLOWS,
            "ramp_rows": RAMP_ROWS,
            "fixed": fixed,
            "adaptive": adaptive,
            "depth_gain": adaptive["rows_per_dispatch"]
            / fixed["rows_per_dispatch"],
        },
    }


def test_bench_packet_trains(benchmark, record):
    benchmark(lambda: run_once(TRAIN))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_packet_trains.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("PACKET_TRAINS_JSON " + json.dumps(record, sort_keys=True))


def test_bench_per_packet(benchmark):
    benchmark(lambda: run_once(1))


def test_acceptance_packet_trains(record):
    # Headline gate: end-to-end drained ADUs/sec with trains of 32 is
    # at least 2x the per-packet baseline.
    assert record["speedup"] >= SPEEDUP_GATE, record
    # The mechanism is the one claimed: flow-run demux probes the
    # steering table once per run, not once per packet.
    assert record["probe_reduction"] >= PROBE_GATE, record
    # The link really formed near-full trains (flow-major send order,
    # window far wider than the serialization gap).
    assert record["trains"]["packets_per_train"] >= TRAIN * 0.9, record
    # Per-train worker pokes: far fewer services than packets.
    assert (
        record["trains"]["worker_services"]
        < record["per_packet"]["worker_services"]
    ), record

    adaptive = record["adaptive_epochs"]
    # Idle regime: the adaptive engine flushes a lone ADU immediately;
    # the fixed engine holds it for the full epoch.
    assert adaptive["adaptive"]["idle_latency_s"] == 0.0, adaptive
    assert adaptive["fixed"]["idle_latency_s"] >= EPOCH * 0.9, adaptive
    # Backlogged regime: sustained pressure deepens the adaptive
    # engine's epochs past the fixed engine's.
    assert adaptive["depth_gain"] >= 1.25, adaptive
    # Settled regime: silence decays the pressure back to immediate.
    assert adaptive["adaptive"]["settle_latency_s"] == 0.0, adaptive
