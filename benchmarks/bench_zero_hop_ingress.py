"""Zero-hop sharded ingress — link-steered trains vs the front-end hop.

Two claims from the zero-hop tentpole, measured separately:

**Ingest throughput.**  ``N_FLOWS`` flows send ``WAVES`` trains of
``TRAIN`` single-fragment ADUs each; every train is single-flow, so a
steering link would deliver it straight onto the owning shard.  The
timed region is the *host-side* ingest path — what the receiving
machine executes per train:

* **front-end hop** — :meth:`ShardedHost.receive_burst`: the front end
  walks the train, resolves each flow-run with one steering-table
  lookup, splits per shard and hands off.  Every packet pays a second demux
  walk on its shard host.
* **zero-hop** — :meth:`ShardedHost.steer_burst`: the placement the
  link already resolved while coalescing (one table lookup per run,
  off the timed path in both configurations) lands the train
  directly; the only per-packet walk left is the shard host's own.

Payload bytes are folded into per-flow CRCs so the two paths are
asserted byte-identical, and the steered run's demux counters prove
the hot path really is zero-probe (no front-end packets, no demux
runs — every front-end placement probe is a demux run).  Headline gate:
the work per ADU, as an exact count — the calls (Python functions and
the builtins they call) the program makes while an ingest entry point
is on the stack.  The steered path must stay under a ceiling less than
one call above its count today, and below the front-end hop's count;
a steered train that took the front-end hop would pay the placement
walk again and fail both.  Counts repeat to the call, so the gate
cannot flake; the wall-clock speedup is still reported, ungated.

**Skew rebalancing.**  An end-to-end run through a real train-mode
link: 90 % of the flows hash onto one shard, real ALF receivers and
drain engines on every shard, and a :class:`RebalancePolicy` watching
per-shard arrival EWMAs at train boundaries.  The gate: after the
policy's migrations commit, the max/mean per-shard arrival ratio over
the tail of the run is ≤ 1.5 (from ≈ 3.6 at the start), while every
ADU still delivers byte-identical exactly-once and every shard tears
down to a clean ``leak_report``.

Emits a machine-readable JSON record (``ZERO_HOP_INGRESS_JSON`` line
and ``benchmarks/out/bench_zero_hop_ingress.json``) for the CI gate
and artifact.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import zlib
from pathlib import Path

import pytest

import repro
from repro.machine.accounting import ShardCounters
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.shard import RebalancePolicy, ShardedHost, shard_index
from repro.net.topology import sharded_ingress
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf.receiver import PROTOCOL, AlfReceiver
from repro.transport.alf.sender import AlfSender
from repro.core.adu import Adu, fragment_adu
from repro.stages.checksum import internet_checksum

N_SHARDS = 4
N_FLOWS = 64
TRAIN = 16
WAVES = 24
PAYLOAD = 64

#: Ceiling on the steered path's calls per ADU (see
#: :func:`ingest_calls_per_adu`): today's 3.38 rounded up by less than
#: one call, so one more call per ADU fails the gate (the front-end hop
#: makes 5.31).  Lower it when the path gets cheaper.
STEERED_CALLS_PER_ADU_MAX = 3.5

SKEW_FLOWS = 30  # 27 on the hot shard, 1 on each of the others
SKEW_ADUS = 40
SKEW_RATIO_GATE = 1.5

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Source directory of the program's own code.
_PROGRAM = str(Path(repro.__file__).parent)


# ----------------------------------------------------------------------
# Part 1: steered vs front-end-hop ingest throughput


def build_trains() -> list[tuple[int, list[Packet]]]:
    """WAVES single-flow trains per flow, pre-coalesced as a link would."""
    trains = []
    for wave in range(WAVES):
        for flow_id in range(N_FLOWS):
            index = shard_index(PROTOCOL, flow_id, N_SHARDS)
            packets = [
                Packet(
                    src="a", dst="b", protocol=PROTOCOL, flow_id=flow_id,
                    header={"i": wave * TRAIN + i},
                    payload=bytes(
                        (flow_id * 131 + wave * 17 + offset) & 0xFF
                        for offset in range(PAYLOAD)
                    ),
                )
                for i in range(TRAIN)
            ]
            trains.append((index, packets))
    return trains


def build_ingest_host() -> tuple[ShardedHost, list[int], list[int]]:
    """A sharded host with one cheap CRC-sink handler per flow."""
    front = Host(EventLoop(), "b")
    sharded = ShardedHost(
        front, N_SHARDS, rng=RngStreams(5), protocols=(),
        counters=ShardCounters(),
    )
    counts = [0] * N_FLOWS
    crcs = [0] * N_FLOWS
    for flow_id in range(N_FLOWS):
        shard = sharded.shard_for(PROTOCOL, flow_id)

        def sink(packet, fid=flow_id):
            counts[fid] += 1
            crcs[fid] = zlib.crc32(packet.payload, crcs[fid])

        shard.host.bind(PROTOCOL, flow_id, sink)
    return sharded, counts, crcs


def run_ingest(steered: bool) -> dict[str, object]:
    """One timed pass over every train through one ingest path."""
    sharded, counts, crcs = build_ingest_host()
    trains = build_trains()
    table = sharded.steering
    if steered:
        # Resolve placements the way the coalescing link does — off the
        # timed region, like the link's boarding work itself (identical
        # in both configurations).
        steered_trains = [
            (table.steer(PROTOCOL, train[0].flow_id), train)
            for _index, train in trains
        ]
    gc.collect()
    start = time.perf_counter()
    if steered:
        steer_burst = sharded.steer_burst
        for (index, _bucket), train in steered_trains:
            steer_burst(index, train)
    else:
        receive_burst = sharded.receive_burst
        for _index, train in trains:
            receive_burst(train)
    sharded.drain()
    elapsed = time.perf_counter() - start
    n_packets = len(trains) * TRAIN
    demux = sharded.counters.snapshot()
    leaks = sharded.shutdown()
    assert all(report == [] for report in leaks.values())
    return {
        "wall_s": elapsed,
        "adus": n_packets,
        "adus_per_s": n_packets / elapsed,
        "counts": counts,
        "crcs": crcs,
        "demux": demux,
    }


def ingest_calls_per_adu(steered: bool) -> float:
    """Calls the program makes per ADU on one ingest path.

    Counts every call, to a Python function or a builtin, that the
    program's own code makes while the path's entry point is on the
    stack — :meth:`ShardedHost.steer_burst` when steered,
    :meth:`ShardedHost.receive_burst` for the front-end hop — over the
    same trains :func:`run_ingest` times (placements resolved first, as
    there).  Calls made inside the benchmark's sink, the standard
    library or numpy are left out, so the count depends on this
    program's code alone.
    """
    sharded, counts, _ = build_ingest_host()
    trains = build_trains()
    table = sharded.steering
    entry = (
        ShardedHost.steer_burst.__code__ if steered
        else ShardedHost.receive_burst.__code__
    )
    placed = [
        (table.steer(PROTOCOL, train[0].flow_id) if steered else None, train)
        for _index, train in trains
    ]
    depth = calls = 0

    def ours(frame) -> bool:
        return frame.f_code.co_filename.startswith(_PROGRAM)

    def profile(frame, event, arg) -> None:
        nonlocal depth, calls
        if event == "call":
            if depth:
                depth += 1
                calls += ours(frame.f_back)
            elif frame.f_code is entry:
                depth = 1
        elif event == "c_call":
            calls += depth > 0 and ours(frame)
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for placement, train in placed:
            if steered:
                sharded.steer_burst(placement[0], train)
            else:
                sharded.receive_burst(train)
    finally:
        sys.setprofile(previous)
    sharded.drain()
    assert sum(counts) == len(trains) * TRAIN
    sharded.shutdown()
    return calls / (len(trains) * TRAIN)


def best_of(fn, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        candidate = fn()
        if best is None or candidate["wall_s"] < best:
            best, result = candidate["wall_s"], candidate
    return result


# ----------------------------------------------------------------------
# Part 2: skew-aware rebalancing end to end


def skew_flow_ids() -> list[int]:
    """27 flows homing on shard 0's hash, one each on shards 1..3."""
    hot = [fid for fid in range(1, 4096)
           if shard_index(PROTOCOL, fid, N_SHARDS) == 0][:27]
    cold = []
    for shard in (1, 2, 3):
        cold.append(next(
            fid for fid in range(1, 4096)
            if shard_index(PROTOCOL, fid, N_SHARDS) == shard
        ))
    return hot + cold


def adu_stream(flow_id: int) -> tuple[list[Packet], list[bytes]]:
    payloads = [
        bytes((flow_id * 31 + seq * 7 + i) & 0xFF for i in range(PAYLOAD))
        for seq in range(SKEW_ADUS)
    ]
    packets = []
    for seq, payload in enumerate(payloads):
        adu = Adu(sequence=seq, payload=payload, name={"i": seq})
        for fragment in fragment_adu(
            adu, 2048, checksum=internet_checksum(payload)
        ):
            packets.append(
                Packet(
                    src="a", dst="b", protocol=PROTOCOL, flow_id=flow_id,
                    header=AlfSender._header(
                        fragment.adu_sequence, fragment.index, fragment.total,
                        fragment.adu_length, fragment.adu_checksum, fragment.name,
                    ),
                    payload=fragment.payload,
                )
            )
    return packets, payloads


def run_skew() -> dict[str, object]:
    """90 % skew, live receivers, policy-driven rebalance mid-run."""
    policy = RebalancePolicy(
        threshold=1.5, goal=1.15, half_life=0.05, min_packets=128,
        max_moves=8,
    )
    ing = sharded_ingress(
        shards=N_SHARDS, steer=True, max_train=8, train_window=1e-3,
        rebalance=policy, buckets_per_shard=8,
        counters=ShardCounters(),
    )
    flows = skew_flow_ids()
    delivered: dict[int, list[bytes]] = {}
    expected: dict[int, list[bytes]] = {}
    streams: dict[int, list[Packet]] = {}
    for flow_id in flows:
        shard = ing.sharded.shard_for(PROTOCOL, flow_id)
        receiver = AlfReceiver(
            shard.loop, shard.host, "a", flow_id,
            deliver=lambda adu, fid=flow_id: delivered.setdefault(
                fid, []
            ).append(bytes(adu.payload)),
            ack_interval=0,
            drain_engine=shard.engine,
        )
        ing.sharded.register_flow(PROTOCOL, flow_id, receiver)
        streams[flow_id], expected[flow_id] = adu_stream(flow_id)
    # Pace the waves through simulated time so the policy's EWMAs see a
    # sustained skew rather than one instantaneous burst.
    dt = 2e-3
    for seq in range(SKEW_ADUS):
        for flow_id in flows:
            ing.loop.schedule_at(
                seq * dt,
                ing.a.send,
                streams[flow_id][seq],
            )
    # Two-thirds in, capture the arrival ledger: the gate is judged on
    # the *tail* of the run, after the migrations have had time to
    # commit — rebalancing claims convergence, not time travel.
    capture: dict[str, list[int]] = {}
    ing.loop.schedule_at(
        SKEW_ADUS * dt * 2 / 3,
        lambda: capture.setdefault(
            "at_two_thirds", list(ing.sharded.steering.shard_packets)
        ),
    )
    start_ratio_sample: dict[str, float] = {}
    ing.loop.schedule_at(
        SKEW_ADUS * dt / 8,
        lambda: start_ratio_sample.setdefault(
            "early", _arrival_ratio(ing.sharded.steering.shard_packets)
        ),
    )
    ing.loop.run()
    ing.sharded.drain()
    snap = ing.sharded.snapshot()
    final = list(ing.sharded.steering.shard_packets)
    tail = [
        final[i] - capture["at_two_thirds"][i] for i in range(N_SHARDS)
    ]
    leaks = ing.sharded.shutdown()
    exactly_once = all(
        sorted(delivered.get(fid, [])) == sorted(expected[fid])
        for fid in flows
    )
    return {
        "flows": len(flows),
        "adus_per_flow": SKEW_ADUS,
        "early_ratio": start_ratio_sample.get("early", 0.0),
        "tail_arrivals": tail,
        "tail_ratio": _arrival_ratio(tail),
        "migrations": snap["demux"]["migrations"],
        "migrated_flows": snap["demux"]["migrated_flows"],
        "remaps": snap["steering"]["remaps"],
        "rebalance": snap["rebalance"],
        "exactly_once": exactly_once,
        "leaks_clean": all(report == [] for report in leaks.values()),
    }


def _arrival_ratio(arrivals) -> float:
    mean = sum(arrivals) / len(arrivals)
    if mean <= 0.0:
        return 1.0
    return max(arrivals) / mean


# ----------------------------------------------------------------------
# Record + gates


@pytest.fixture(scope="module")
def record():
    front_hop = best_of(lambda: run_ingest(steered=False))
    zero_hop = best_of(lambda: run_ingest(steered=True))
    # Byte-identical delivery on both ingest paths.
    assert zero_hop["counts"] == front_hop["counts"]
    assert zero_hop["crcs"] == front_hop["crcs"]
    assert all(count == WAVES * TRAIN for count in zero_hop["counts"])
    skew = run_skew()
    # Counted after the timed runs, so every process-wide cache is warm.
    steered_calls = ingest_calls_per_adu(steered=True)
    front_calls = ingest_calls_per_adu(steered=False)
    return {
        "n_shards": N_SHARDS,
        "n_flows": N_FLOWS,
        "train": TRAIN,
        "waves": WAVES,
        "front_hop": {
            "wall_s": front_hop["wall_s"],
            "adus_per_s": front_hop["adus_per_s"],
            "calls_per_adu": front_calls,
            "demux": front_hop["demux"],
        },
        "zero_hop": {
            "wall_s": zero_hop["wall_s"],
            "adus_per_s": zero_hop["adus_per_s"],
            "calls_per_adu": steered_calls,
            "calls_per_adu_repeat": ingest_calls_per_adu(steered=True),
            "demux": zero_hop["demux"],
        },
        "speedup": zero_hop["adus_per_s"] / front_hop["adus_per_s"],
        "skew": skew,
    }


def test_bench_zero_hop_ingress(benchmark, record):
    benchmark(lambda: run_ingest(steered=True))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_zero_hop_ingress.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("ZERO_HOP_INGRESS_JSON " + json.dumps(record, sort_keys=True))


def test_bench_front_hop(benchmark):
    benchmark(lambda: run_ingest(steered=False))


def test_acceptance_zero_hop_ingress(record):
    # Headline gate: the steered path's work per ADU, counted exactly —
    # it repeats to the call, stays under its ceiling, and stays below
    # the front-end hop's (a steered train taking the hop pays both).
    steered = record["zero_hop"]["calls_per_adu"]
    assert steered == record["zero_hop"]["calls_per_adu_repeat"], record
    assert steered <= STEERED_CALLS_PER_ADU_MAX, record
    assert steered < record["front_hop"]["calls_per_adu"], record

    # The steered hot path really is zero-hop: no front-end per-packet
    # demux, no front-end train walks, no placement probes (each walk
    # probe is a demux run).
    demux = record["zero_hop"]["demux"]
    assert demux["packets"] == 0, demux
    assert demux["demux_runs"] == 0, demux
    assert demux["steered_packets"] == N_FLOWS * WAVES * TRAIN, demux
    assert demux["fallback_trains"] == 0, demux
    # The baseline, by contrast, walked every packet through the front.
    base = record["front_hop"]["demux"]
    assert base["train_packets"] == N_FLOWS * WAVES * TRAIN, base


def test_acceptance_skew_rebalance(record):
    skew = record["skew"]
    # The run started pathological (≈ 3.6 = 27 hot flows / 7.5 mean)...
    assert skew["early_ratio"] >= 2.5, skew
    # ...the policy committed real migrations...
    assert skew["migrations"] >= 1, skew
    assert skew["remaps"] >= 1, skew
    # ...and the tail of the run is balanced within the gate.
    assert skew["tail_ratio"] <= SKEW_RATIO_GATE, skew
    # Delivery semantics survived the rebalance.
    assert skew["exactly_once"], skew
    assert skew["leaks_clean"], skew
