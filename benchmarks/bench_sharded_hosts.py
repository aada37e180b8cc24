"""Sharded hosts — per-shard receive stacks vs one receive stack.

One machine serves ``N_FLOWS`` concurrent ALF flows, one ADU each, all
sharing one wire-plan shape.  Two engineerings:

* **1 shard** — every flow registers with one host-wide
  :class:`~repro.transport.drain.SharedDrainEngine`.  The engine's
  backlog bookkeeping is linear: a completion touches only its own flow
  (a running pending count) and a drain window examines only the
  backlogged flows, so the host does O(flows) shared-structure work.
* **4 shards** — a :class:`~repro.net.shard.ShardedHost` demuxes flows
  by stable hash to four shards, each with its own host, engine and rx
  pool on the one event loop.  The bookkeeping per ADU is the same;
  what sharding adds is isolation (private pools and counters) and a
  front-end demux.

Both engineerings run the identical packets through the identical
demux/reassembly/verify/deliver path (zero-copy, per-shard DMA pools);
delivery is asserted byte-identical and exactly-once, and every shard
tears down to a clean ``leak_report``.  The gates are honest about what
sharding buys on one core: the scan stays O(1) per ADU (1-shard backlog
visits per ADU ≤ 2 — one notification plus one window visit), and the
4-shard side's work is an exact count, not wall-clock: the calls the
program makes per ADU from the burst's arrival through its drain (see
:func:`calls_per_adu`).  Counts repeat to the call, so the gate cannot
flake.  ``scaling`` (1-shard over 4-shard wall time) stays in the
record, ungated: at best of 3 runs of 0.1–0.2 s it moves by a third
from run to run.  Emits a machine-readable JSON record
(``SHARDED_HOSTS_JSON`` line and ``benchmarks/out/bench_sharded_hosts.json``)
for the CI gate and artifact.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.ilp.compiler import PlanCache
from repro.machine.accounting import ShardCounters
from repro.machine.profile import MIPS_R2000
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost, shard_index
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf.receiver import AlfReceiver
from repro.transport.alf.wire import WIRE_CHECKSUM, wire_pipeline

N_FLOWS = 4096
PAYLOAD = 64
MAX_ROWS = 16384  # one coalesced dispatch per shard per drain epoch
BUFFER = 256  # per-shard rx pool buffer size (one segment per packet)
N_SHARDS = 4
SCAN_GATE = 2.0  # backlog visits per ADU, 1 shard

#: Ceiling on the 4-shard side's calls per ADU (see
#: :func:`calls_per_adu`): today's 84.08 rounded up by less than one
#: call, so one more call per ADU fails the gate.  Lower it when the
#: path gets cheaper.
SHARDED_CALLS_PER_ADU_MAX = 84.5

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Source directory of the program's own code.
_PROGRAM = str(Path(repro.__file__).parent)

PAYLOADS = [
    bytes((flow_id * 131 + offset) & 0xFF for offset in range(PAYLOAD))
    for flow_id in range(N_FLOWS)
]


def build_scenario(n_shards: int):
    """A front host, N shards, and one receiver per flow."""
    front = Host(EventLoop(), "b")
    demux = ShardCounters()
    sharded = ShardedHost(
        front,
        n_shards,
        rng=RngStreams(5),
        pool_buffers=N_FLOWS // n_shards + 64,
        buffer_size=BUFFER,
        max_rows=MAX_ROWS,
        protocols=(),
        counters=demux,
    )
    ack_rng = RngStreams(9)
    for shard in sharded.shards:
        # ACK egress rides a shard-local link, not the front's uplink.
        sink = Host(shard.loop, "a")
        link = Link(
            shard.loop,
            ack_rng.stream(f"ack-{shard.index}"),
            propagation_delay=1e-4,
            name=f"b->a/{shard.index}",
        )
        link.connect(sink.receive)
        shard.host.add_link("a", link)
    cache = PlanCache(capacity=8)
    delivered: dict[int, list[bytes]] = {}
    # Construct receivers grouped by home shard so each shard's flow
    # state is contiguous in the heap — the same placement a real
    # sharded host gets for free by allocating flow state on the owning
    # shard.
    by_shard: dict[int, list[int]] = {}
    for flow_id in range(N_FLOWS):
        index = shard_index("alf", flow_id, n_shards)
        by_shard.setdefault(index, []).append(flow_id)
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
    return sharded, demux, delivered, cache


def build_packets(cache: PlanCache) -> list[Packet]:
    """Fresh single-fragment data packets (payloads mutate into chains
    on pooled receive, so every run needs its own)."""
    plan = cache.get_or_compile(wire_pipeline(None), MIPS_R2000)
    packets = []
    for flow_id in range(N_FLOWS):
        payload = PAYLOADS[flow_id]
        _, observations = plan.run(payload)
        packets.append(
            Packet(
                src="a",
                dst="b",
                protocol="alf",
                flow_id=flow_id,
                header={
                    "adu_seq": 0,
                    "frag": 0,
                    "nfrags": 1,
                    "adu_len": PAYLOAD,
                    "adu_csum": observations[WIRE_CHECKSUM],
                    "name": {"seq": 0},
                },
                payload=payload,
            )
        )
    return packets


def run_once(n_shards: int) -> dict[str, object]:
    """One full run; returns the wall time of the demux+drain hot path
    plus correctness evidence (payload map, counters, leak reports)."""
    sharded, demux, delivered, cache = build_scenario(n_shards)
    packets = build_packets(cache)
    gc.collect()
    start = time.perf_counter()
    sharded.receive_burst(packets)
    sharded.drain()
    elapsed = time.perf_counter() - start
    scan_visits = sum(s.counters.scan_visits for s in sharded.shards)
    dispatches = sum(s.counters.dispatches for s in sharded.shards)
    delivered_total = sharded.delivered_total
    leaks = sharded.shutdown()
    return {
        "wall_s": elapsed,
        "delivered": delivered,
        "delivered_total": delivered_total,
        "scan_visits": scan_visits,
        "dispatches": dispatches,
        "demux": demux.snapshot(),
        "leaks": leaks,
    }


def calls_per_adu(n_shards: int) -> float:
    """Calls the program makes per ADU, from the burst's arrival to the
    end of its drain.

    Counts every call, to a Python function or a builtin, that the
    program's own code makes during :meth:`ShardedHost.receive_burst`
    and :meth:`ShardedHost.drain` of one full run: the demux, DMA,
    reassembly, batch verify, delivery, ACKs and the event loop.  Calls
    made inside the benchmark's delivery callback, the standard library
    or numpy are left out, so the count depends on this program's code
    alone.
    """
    sharded, _, delivered, cache = build_scenario(n_shards)
    packets = build_packets(cache)
    calls = 0

    def ours(frame) -> bool:
        return frame is not None and frame.f_code.co_filename.startswith(_PROGRAM)

    def profile(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += ours(frame.f_back)
        elif event == "c_call":
            calls += ours(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sharded.receive_burst(packets)
        sharded.drain()
    finally:
        sys.setprofile(previous)
    assert sum(len(rows) for rows in delivered.values()) == N_FLOWS
    sharded.shutdown()
    return calls / N_FLOWS


def check_delivery(result: dict[str, object]) -> None:
    """Byte-identical, exactly-once, and leak-free."""
    delivered = result["delivered"]
    assert result["delivered_total"] == N_FLOWS, result["delivered_total"]
    assert len(delivered) == N_FLOWS, len(delivered)
    for flow_id in range(N_FLOWS):
        rows = delivered[flow_id]
        assert len(rows) == 1, f"flow {flow_id}: {len(rows)} deliveries"
        assert rows[0] == PAYLOADS[flow_id], f"flow {flow_id} diverged"
    for index, report in result["leaks"].items():
        assert report == [], f"shard {index} leaked: {report}"


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
    single = best_of(lambda: run_once(1))
    sharded = best_of(lambda: run_once(N_SHARDS))
    for result in (single, sharded):
        check_delivery(result)

    scaling = single["wall_s"] / sharded["wall_s"]
    return {
        "n_flows": N_FLOWS,
        "payload_bytes": PAYLOAD,
        "n_shards": N_SHARDS,
        "single": {
            "wall_s": single["wall_s"],
            "adus_per_s": N_FLOWS / single["wall_s"],
            "scan_visits": single["scan_visits"],
            "scan_visits_per_adu": single["scan_visits"] / N_FLOWS,
            "dispatches": single["dispatches"],
        },
        "sharded": {
            "wall_s": sharded["wall_s"],
            "adus_per_s": N_FLOWS / sharded["wall_s"],
            "scan_visits": sharded["scan_visits"],
            "scan_visits_per_adu": sharded["scan_visits"] / N_FLOWS,
            "dispatches": sharded["dispatches"],
            "demux": sharded["demux"],
            "calls_per_adu": calls_per_adu(N_SHARDS),
            "calls_per_adu_repeat": calls_per_adu(N_SHARDS),
        },
        "scaling": scaling,
    }


def test_bench_sharded_hosts(benchmark, record):
    benchmark(lambda: run_once(N_SHARDS))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_sharded_hosts.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("SHARDED_HOSTS_JSON " + json.dumps(record, sort_keys=True))


def test_bench_single_shard(benchmark):
    benchmark(lambda: run_once(1))


def test_acceptance_sharded_hosts(record):
    # The drain bookkeeping is O(1) per ADU: one notification visit
    # plus one window visit per backlogged flow, however many flows
    # share the engine.
    assert record["single"]["scan_visits_per_adu"] <= SCAN_GATE, record
    assert record["sharded"]["scan_visits_per_adu"] <= SCAN_GATE, record
    # Exact: a second counted run makes the same calls.
    calls = record["sharded"]["calls_per_adu"]
    assert calls == record["sharded"]["calls_per_adu_repeat"], record
    assert calls <= SHARDED_CALLS_PER_ADU_MAX, record
    # One coalesced dispatch per shard (max_rows covers the backlog).
    assert record["sharded"]["dispatches"] == N_SHARDS, record
    assert record["single"]["dispatches"] == 1, record
