"""Measure one workload inside a fresh interpreter.

``run.py`` starts this script once per workload with ``PYTHONHASHSEED=0``,
so process-global state — the session flow-id counter, the shared plan
and codec caches, the ``machine.accounting`` singletons — starts clean.
It runs one untimed warm-up pass at 1/8 scale, then either TIMED_PASSES
timed passes (each building a fresh topology, and each preceded by
EXTRA_BUILDS unrun builds that add set-up samples) under a
:class:`speed.SpeedProbe`, or, with ``--trace 1``, one untraced pass
followed by one traced pass.  The last line on stdout is the JSON record
``run.py`` aggregates; an oracle failure exits 1 without one.

    python3 benchmarks/e2e/child.py WORKLOAD SEED TRACE QUICK
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: A fixed amount of work per run, so every commit is measured on the
#: same number of passes and builds.
TIMED_PASSES = 4
#: Unrun builds before each pass.  A build is much shorter than a pass,
#: so set-up time gets more samples for its median, spread over the run.
EXTRA_BUILDS = 1
QUICK_SCALE = 1 / 16
WARMUP_SCALE = 1 / 8
SPAN_DIR = HERE.parent / "out" / "e2e"


def _import_program():
    """Put this checkout's ``src`` first on the path (never an installed
    copy) and import the benchmark modules that need it."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spans
    import speed
    import workloads

    return workloads, spans, speed


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(result, recorder, untraced_wall_s: float):
    """Every per-layer metric of one traced pass, plus the raw layer
    times they came from."""
    times = recorder.layer_times()
    wall = times["wall_s"]
    metrics: dict[str, float] = {}
    for layer, entry in times["layers"].items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.self_share"] = _ratio(entry["self_s"], wall)
    register = times["entry_points"]["ShardedHost.register_flow"]
    metrics["net.shard.register_flow.calls"] = register["calls"]
    metrics["net.shard.register_flow.self_s"] = register["self_s"]
    c, delivered = result.counters, result.delivered
    metrics.update({
        "transport.drain.scan_visits_per_adu": _ratio(c["scan_visits"], delivered),
        "transport.drain.rows_per_dispatch": _ratio(c["rows_dispatched"], c["dispatches"]),
        "net.shard.steered_fraction": _ratio(
            c["steered_packets"], c["steered_packets"] + c["front_packets"]
        ),
        "net.host.demux_memo_hit_rate": _ratio(c["host_memo_hits"], c["host_received"]),
        "ilp.compiler.rows_per_batch": _ratio(recorder.batch_rows, recorder.batch_calls),
        "buffers.copies_per_adu": _ratio(c["copies"], delivered),
        "buffers.bytes_read_per_adu": _ratio(c["bytes_touched"], delivered),
        "net.switch.queue_drops": c["queue_drops"],
        "transport.alf.sender.retransmissions_per_adu": _ratio(
            c["retransmissions"], result.offered
        ),
        "transport.pacing.credit_stalls": c["credit_stalls"],
        "transport.pacing.backoffs": c["backoffs"],
        "sim.eventloop.events_per_adu": _ratio(c["events"], delivered),
        "net.link.packets_per_train": _ratio(c["link_train_packets"], c["link_trains"]),
        "trace.overhead_ratio": _ratio(wall, untraced_wall_s),
        "trace.unattributed_s": times["unattributed_s"],
    })
    metrics.update(result.depth_p99)
    return metrics, times


def measure(workloads, spans, speed, name: str, seed: int, traced: bool,
            quick: bool) -> dict[str, object]:
    workload = workloads.WORKLOADS[name]
    scale = QUICK_SCALE if quick else 1.0
    warmup = workload.make_inputs(scale * WARMUP_SCALE, seed)
    workloads.run_pass(workload, warmup, seed)
    del warmup
    inputs = workload.make_inputs(scale, seed)
    record: dict[str, object] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "offered_per_pass": len(inputs.adus),
        "fragments_per_pass": inputs.fragments,
    }
    if traced:
        untraced = workloads.run_pass(workload, inputs, seed)
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            result = workloads.run_pass(workload, inputs, seed, traced=recorder)
        finally:
            recorder.uninstall()
        metrics, times = per_layer(result, recorder, untraced.wall_s)
        spans_path = SPAN_DIR / f"spans-{name}-seed{seed}.json"
        recorder.write(spans_path, workload=name, seed=seed)
        record.update({
            "passes": [_pass_record(untraced, "untraced"), _pass_record(result, "traced")],
            "per_layer": metrics,
            "entry_points": times["entry_points"],
            "spans_file": str(spans_path.relative_to(HERE.parent.parent)),
        })
        _check_deterministic(record["passes"])
        return record

    results, builds = [], []
    with speed.SpeedProbe() as probe:
        for _ in range(1 if quick else TIMED_PASSES):
            builds += [
                workloads.setup_time(workload, inputs, seed)
                for _ in range(0 if quick else EXTRA_BUILDS)
            ]
            results.append(workloads.run_pass(workload, inputs, seed))
            builds.append(results[-1].setup_span)
    record["passes"] = [
        _pass_record(result, "timed", probe.reference_s(*result.timed_span))
        for result in results
    ]
    _check_deterministic(record["passes"])
    record["setup_samples"] = [probe.reference_s(*span) for span in builds]
    record["setup_wall_samples"] = [end - start for start, end in builds]
    record["machine_speed"] = probe.speed()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def _pass_record(result, kind: str, reference_s: float | None = None) -> dict[str, object]:
    """One pass.  Given ``reference_s``, the timed region's length at the
    reference speed, ``adus_per_s`` is per reference second; otherwise
    per wall second."""
    entry = {
        "kind": kind,
        "setup_s": result.setup_s,
        "wall_s": result.wall_s,
        "offered": result.offered,
        "delivered": result.delivered,
        "adus_per_s": result.delivered / (reference_s or result.wall_s),
        "sim": result.sim,
        "counters": result.counters,
    }
    if reference_s is not None:
        entry["reference_s"] = reference_s
    return entry


def _check_deterministic(passes: list[dict]) -> None:
    """Sim-time results must repeat bit for bit across passes."""
    first = passes[0]["sim"]
    for other in passes[1:]:
        if other["sim"] != first:
            raise SystemExit(
                f"sim-time metrics differ between passes: {first} vs {other['sim']}"
            )


def main(argv: list[str]) -> int:
    name, seed, traced, quick = argv
    workloads, spans, speed = _import_program()
    try:
        record = measure(
            workloads, spans, speed, name, int(seed), traced == "1", quick == "1"
        )
    except workloads.OracleFailure as error:
        print(f"oracle failure: {error}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
