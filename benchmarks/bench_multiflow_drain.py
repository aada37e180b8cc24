"""Host-level shared drain engine — dispatch amortization across flows.

Two engineerings of the receive-side drain for a host serving 64
concurrent secure associations that share one wire-plan shape
([checksum, decrypt, convert]):

* **on-arrival** — the baseline: every flow verifies each completed ADU
  as it arrives, one wire-plan dispatch per ADU.
* **shared** — every accepted flow registers with one host-wide
  :class:`~repro.transport.drain.SharedDrainEngine`; completions across
  flows coalesce per drain epoch into a single ``run_batch`` over every
  flow's rows, collected round-robin.

Both engineerings run the identical simulated workload (same seeds, same
interleaved send order); delivery is asserted byte-identical and
exactly-once.  The headline criteria: the shared engine issues at least
2x fewer plan dispatches and does no more work per ADU.  Work is an exact
count, not wall-clock: the calls (Python functions and the builtins they
call) made from the moment an ADU completes until it is delivered, per
ADU.  Counts repeat to the call, so the gate cannot flake.
Emits a machine-readable JSON record (``MULTIFLOW_DRAIN_JSON`` line and
``benchmarks/out/bench_multiflow_drain.json``) for the CI gate and
artifact.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench.workloads import integer_array
from repro.core.adu import Adu
from repro.ilp.compiler import PlanCache
from repro.machine.accounting import DrainCounters
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.lwts import LwtsCodec
from repro.presentation.negotiate import LocalSyntax
from repro.transport.alf.receiver import AlfReceiver
from repro.transport.drain import SharedDrainEngine
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)

N_FLOWS = 64
N_ADUS = 4
N_INTEGERS = 64
KEY = 0x6B8B4567
EPOCH = 0.005
SCHEMAS = {"ints": ArrayOf(Int32())}
LOCAL = LwtsCodec(byte_order="big")  # the initiators' syntax
DELIVERED_AS = LwtsCodec(byte_order="little")  # the listener's syntax

#: Ceiling on the shared route's calls per ADU (see
#: :func:`receive_calls_per_adu`): today's 91.48 rounded up by less than
#: one call, so one more call per dispatched row fails the gate.  Lower
#: it when the route gets cheaper.
SHARED_CALLS_PER_ADU_MAX = 92.0

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Where an ADU's receive work starts (it just completed) and where a
#: shared epoch verifies and delivers the rows it collected.
_RECEIVE_PATH = (AlfReceiver._finish_adu.__code__, SharedDrainEngine.flush.__code__)
#: Source directory of the program's own code.
_PROGRAM = str(Path(repro.__file__).parent)


def run_scenario(shared: bool, adaptive: bool = False) -> dict[str, object]:
    """One full simulated run; returns dispatch counts and payloads."""
    path = two_hosts(seed=7)
    plan_cache = PlanCache(capacity=32)
    counters = DrainCounters()
    engine = (
        SharedDrainEngine(
            path.loop,
            max_delay=EPOCH,
            adaptive=adaptive,
            ramp_rows=8,
            counters=counters,
        )
        if shared
        else None
    )
    deliver_times: dict[int, list[float]] = {}
    delivered: dict[int, list[bytes]] = {}
    listener = SessionListener(
        path.loop,
        path.b,
        SCHEMAS,
        deliver=lambda fid, adu: (
            delivered.setdefault(fid, []).append(bytes(adu.payload)),
            deliver_times.setdefault(fid, []).append(path.loop.now),
        ),
        plan_cache=plan_cache,
        presentation=True,
        encryption=KEY,
        drain_engine=engine,
    )
    initiators = [
        SessionInitiator(
            path.loop,
            path.a,
            "b",
            SessionConfig(
                schema_name="ints",
                local_syntax=LocalSyntax(f"init-{index}", "big"),
            ),
            SCHEMAS,
            plan_cache=plan_cache,
            presentation=True,
            encryption=KEY,
        )
        for index in range(N_FLOWS)
    ]
    path.loop.run(until=5)
    assert all(initiator.established for initiator in initiators)

    schema = SCHEMAS["ints"]
    # Idle-regime probe: one lone ADU on an otherwise quiet host.  A
    # fixed epoch holds it for the full ``max_delay``; an adaptive
    # epoch flushes it immediately.  (The probe is flow 0's seq 0 —
    # skipped below so every flow still delivers each seq exactly once.)
    probe_sent = path.loop.now
    initiators[0].session.sender.send_adu(
        Adu(0, LOCAL.encode(integer_array(N_INTEGERS, seed=0), schema))
    )
    path.loop.run(until=probe_sent + 4 * EPOCH)
    probe_times = deliver_times.get(initiators[0].flow_id, [])
    idle_latency = probe_times[0] - probe_sent if probe_times else None
    for seq in range(N_ADUS):
        for index, initiator in enumerate(initiators):
            if index == 0 and seq == 0:
                continue
            value = integer_array(N_INTEGERS, seed=31 * index + seq)
            initiator.session.sender.send_adu(
                Adu(seq, LOCAL.encode(value, schema))
            )
    path.loop.run(until=120)
    if engine is not None:
        engine.flush()

    receivers = [
        listener.sessions[initiator.flow_id].receiver
        for initiator in initiators
    ]
    payloads = [delivered.get(initiator.flow_id, []) for initiator in initiators]
    # On arrival, every completed ADU is one plan dispatch: delivered
    # or failed, and nothing else completes.
    dispatches = (
        counters.dispatches
        if shared
        else sum(
            receiver.delivered_count + receiver.stats.checksum_failures
            for receiver in receivers
        )
    )
    return {
        "dispatches": dispatches,
        "payloads": payloads,
        "snapshot": counters.snapshot() if shared else None,
        "groups": engine.group_count if engine is not None else None,
        "idle_latency_s": idle_latency,
    }


def receive_calls_per_adu(shared: bool) -> float:
    """Calls the program makes in the receive path per delivered ADU.

    Counts every call, to a Python function or a builtin, that the
    program's own code makes while an :data:`_RECEIVE_PATH` function is
    on the stack: on arrival, the verify and delivery under
    ``_finish_adu``; shared, the queueing under ``_finish_adu`` plus
    each epoch's batch verify and delivery under ``flush``.  Calls made
    inside the standard library or numpy are left out, so the count
    depends on this program's code, not on the interpreter's.
    """
    depth = calls = 0

    def ours(frame) -> bool:
        return frame.f_code.co_filename.startswith(_PROGRAM)

    def profile(frame, event, arg) -> None:
        nonlocal depth, calls
        if event == "call":
            if depth:
                depth += 1
                calls += ours(frame.f_back)
            elif frame.f_code in _RECEIVE_PATH:
                depth = 1
        elif event == "c_call":
            calls += depth > 0 and ours(frame)
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_scenario(shared=shared)
    finally:
        sys.setprofile(previous)
    delivered = sum(len(payloads) for payloads in result["payloads"])
    return calls / delivered


def best_of(fn, repeats: int = 3) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.fixture(scope="module")
def record():
    on_arrival_s, on_arrival = best_of(lambda: run_scenario(shared=False))
    shared_s, shared = best_of(lambda: run_scenario(shared=True))
    adaptive = run_scenario(shared=True, adaptive=True)

    # Byte-identical, exactly-once delivery under all engineerings.
    schema = SCHEMAS["ints"]
    for index in range(N_FLOWS):
        expected = [
            DELIVERED_AS.encode(
                integer_array(N_INTEGERS, seed=31 * index + seq), schema
            )
            for seq in range(N_ADUS)
        ]
        assert on_arrival["payloads"][index] == expected, f"on-arrival diverged ({index})"
        assert shared["payloads"][index] == expected, f"shared diverged ({index})"
        assert adaptive["payloads"][index] == expected, f"adaptive diverged ({index})"

    assert shared["groups"] == 1, "flows did not share one plan shape"
    snapshot = shared["snapshot"]
    # Counted after the timed runs, so every process-wide cache is warm.
    on_arrival_calls = receive_calls_per_adu(shared=False)
    shared_calls = receive_calls_per_adu(shared=True)
    return {
        "n_flows": N_FLOWS,
        "adus_per_flow": N_ADUS,
        "adu_bytes": 4 * N_INTEGERS,
        "drain_epoch_s": EPOCH,
        "on_arrival": {
            "dispatches": on_arrival["dispatches"],
            "calls_per_adu": on_arrival_calls,
            "wall_s": on_arrival_s,
        },
        "shared": {
            "dispatches": shared["dispatches"],
            "calls_per_adu": shared_calls,
            "wall_s": shared_s,
            "rows_per_dispatch": snapshot["rows_per_dispatch"],
            "cross_flow_batches": snapshot["cross_flow_batches"],
            "fairness_stalls": snapshot["fairness_stalls"],
            "epochs": snapshot["epochs"],
            "plan_groups": shared["groups"],
            "idle_latency_s": shared["idle_latency_s"],
        },
        # The adaptive knob's two regimes on the same workload: a lone
        # idle ADU flushes immediately (vs. waiting out the fixed
        # epoch), while the backlogged bulk still batches cross-flow.
        "adaptive": {
            "dispatches": adaptive["dispatches"],
            "rows_per_dispatch": adaptive["snapshot"]["rows_per_dispatch"],
            "idle_latency_s": adaptive["idle_latency_s"],
        },
        "dispatch_amortization": on_arrival["dispatches"]
        / max(shared["dispatches"], 1),
        "wall_clock_ratio": shared_s / on_arrival_s,
    }


def test_bench_shared_drain(benchmark, record):
    benchmark(lambda: run_scenario(shared=True))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_multiflow_drain.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("MULTIFLOW_DRAIN_JSON " + json.dumps(record, sort_keys=True))


def test_bench_on_arrival_verify(benchmark):
    benchmark(lambda: run_scenario(shared=False))


def test_acceptance_multiflow_drain(record):
    # Headline criterion: coalescing 64 flows' completions into shared
    # epochs cuts plan dispatches at least in half.
    assert record["dispatch_amortization"] >= 2.0, record
    # And the amortization is not bought with work: per ADU, the shared
    # engine's receive path makes no more calls than verifying on
    # arrival, and no more than the ceiling its trajectory set.
    shared_calls = record["shared"]["calls_per_adu"]
    assert shared_calls <= record["on_arrival"]["calls_per_adu"], record
    assert shared_calls <= SHARED_CALLS_PER_ADU_MAX, record
    # The rows really were cross-flow batches, fairly collected.
    assert record["shared"]["cross_flow_batches"] >= 1
    assert record["shared"]["rows_per_dispatch"] > 1.0
    # Adaptive epochs: the idle probe flushes a full fixed epoch sooner
    # than under the fixed knob, and backlog still batches cross-flow.
    assert (
        record["shared"]["idle_latency_s"] - record["adaptive"]["idle_latency_s"]
        >= EPOCH * 0.9
    ), record
    assert record["adaptive"]["rows_per_dispatch"] > 1.0, record
