"""End-to-end protocol benchmark: four workloads, wall and sim-time metrics.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out FILE]

Runs each workload (default: all four) in its own interpreter with
``PYTHONHASHSEED=0`` (see ``child.py``), checks every delivered ADU
against the generated payloads, and prints every metric by name with its
unit and sample count.  The last stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics of 4 untraced
timed passes per workload; ``--trace 1`` (or bare ``--trace``) reports the
per-layer split of one traced pass instead, plus the tracing overhead.
Wall-clock metrics are given at a reference machine speed (see
``speed.py``), so a shared host's slow minutes do not read as a change.
``--quick`` runs 1/16 scale, one pass.  ``--out`` writes the full record
(per-pass samples included) for ``compare.py``.  ``--seconds`` is
accepted and ignored: a run always does the same work, so its length
never depends on the speed of the code it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("manyflow", "bulk_secure", "incast", "session_churn")
CHILD_TIMEOUT_S = 170

#: End-to-end metrics, in report order: name -> unit.
END_TO_END = {
    "adus_per_s": "ADU/s",
    "sim_goodput_mbps": "Mb/s",
    "adu_latency_p50_ms": "ms",
    "adu_latency_p99_ms": "ms",
    "wire_amplification": "ratio",
    "delivered_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = (
    "sim.eventloop", "net.link", "net.switch", "net.shard", "net.host",
    "transport.alf.sender", "transport.alf.receiver", "transport.drain",
    "transport.pacing", "transport.session", "ilp.compiler", "buffers",
)
#: Layers only some workloads exercise.  Their self time is reported only
#: as a share: as a time it would read exactly 0.0 s on every run of the
#: other workloads, and a result with a constant time metric is refused.
PARTIAL_LAYERS = ("net.switch", "transport.pacing", "transport.session")


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer not in PARTIAL_LAYERS:
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "fraction"
    units.update({
        "net.shard.register_flow.calls": "count",
        "transport.drain.scan_visits_per_adu": "visits/ADU",
        "transport.drain.rows_per_dispatch": "rows",
        "transport.drain.pending_rows_p99": "rows",
        "net.shard.steered_fraction": "fraction",
        "net.host.demux_memo_hit_rate": "fraction",
        "net.link.packets_per_train": "packets",
        "net.switch.queue_drops": "count",
        "net.switch.queue_depth_p99": "packets",
        "transport.alf.sender.retransmissions_per_adu": "count/ADU",
        "transport.pacing.credit_stalls": "count",
        "transport.pacing.backoffs": "count",
        "transport.pacing.queued_packets_p99": "packets",
        "sim.eventloop.events_per_adu": "events/ADU",
        "ilp.compiler.rows_per_batch": "rows",
        "buffers.copies_per_adu": "copies/ADU",
        "buffers.bytes_read_per_adu": "B/ADU",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


class ChildFailed(Exception):
    """A workload's interpreter exited non-zero or printed no record."""


def run_child(name: str, seed: int, traced: bool, quick: bool) -> dict:
    """Measure one workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        name,
        str(seed),
        "1" if traced else "0",
        "1" if quick else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{name}: no result within {CHILD_TIMEOUT_S} s") from error
    if done.returncode != 0:
        raise ChildFailed(f"{name}: exit {done.returncode}\n{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{name}: printed no record\n{done.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(record: dict) -> dict[str, dict[str, object]]:
    """Per-metric samples and median for one workload's timed passes."""
    passes = record["passes"]
    samples = {
        "adus_per_s": [p["adus_per_s"] for p in passes],
        "setup_s": record["setup_samples"],
        "peak_rss_mb": [record["peak_rss_mb"]],
    }
    for metric in END_TO_END:
        if metric not in samples:
            samples[metric] = [p["sim"][metric] for p in passes]
    return {
        metric: {
            "value": statistics.median(samples[metric]),
            "unit": unit,
            "samples": samples[metric],
        }
        for metric, unit in END_TO_END.items()
    }


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def print_end_to_end(name: str, record: dict, metrics: dict) -> None:
    offered = record["offered_per_pass"]
    delivered = record["passes"][0]["delivered"]
    passes = len(record["passes"])
    builds = len(metrics["setup_s"]["samples"])
    print(f"\n{name}: {offered} ADUs offered per pass, {passes} timed "
          f"pass(es), seed {record['seed']}, scale {record['scale']:g}")
    print(f"  {'metric':22} {'value':>14}  {'unit':9} samples")
    beyond_p99 = delivered - -(-99 * delivered // 100)
    wall_rate = statistics.median(p["delivered"] / p["wall_s"] for p in record["passes"])
    wall_setup = statistics.median(record["setup_wall_samples"])
    print(f"  machine speed {record['machine_speed']:.3f} of reference "
          f"(wall clock: {wall_rate:.6g} ADU/s, set-up {wall_setup:.6g} s)")
    counts = {
        "adus_per_s": f"{passes} passes, spread {spread(metrics['adus_per_s']['samples']):.1%}",
        "setup_s": f"{builds} builds, spread {spread(metrics['setup_s']['samples']):.1%}",
        "peak_rss_mb": "1 process",
        "sim_goodput_mbps": f"{delivered} ADUs",
        "adu_latency_p50_ms": f"{delivered} ADUs",
        "adu_latency_p99_ms": f"{delivered} ADUs, {beyond_p99} beyond p99",
        "wire_amplification": f"{record['fragments_per_pass']} fragments offered",
    }
    for metric, entry in metrics.items():
        print(f"  {metric:22} {entry['value']:>14.6g}  {entry['unit']:9} "
              f"{counts.get(metric, f'{offered} ADUs offered')}")


def print_per_layer(name: str, record: dict) -> None:
    metrics = record["per_layer"]
    untraced, traced = record["passes"]
    wall = traced["wall_s"]
    print(f"\n{name}: traced pass {wall:.3f} s, untraced {untraced['wall_s']:.3f} s "
          f"(overhead x{metrics['trace.overhead_ratio']:.2f}), seed {record['seed']}, "
          f"spans in {record['spans_file']}")
    print(f"  {'layer':24} {'calls':>9} {'self_s':>10} {'share':>7}")
    for layer in LAYERS:
        print(f"  {layer:24} {metrics[f'{layer}.calls']:>9} "
              f"{metrics[f'{layer}.self_s']:>10.4f} "
              f"{metrics[f'{layer}.self_share']:>7.1%}")
    unattributed = metrics["trace.unattributed_s"]
    print(f"  {'(outside any span)':24} {'':>9} {unattributed:>10.4f} "
          f"{unattributed / wall:>7.1%}")
    for metric, unit in PER_LAYER.items():
        if not metric.endswith((".calls", ".self_s", ".self_share")):
            print(f"  {metric:46} {metrics[metric]:>12.6g}  {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: every run does the same work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1/16 scale, one pass")
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    traced = bool(args.trace)

    records, reported = {}, {}
    attempted = failed = 0
    for name in names:
        try:
            record = run_child(name, args.seed, traced, args.quick)
        except ChildFailed as error:
            print(f"benchmark failed: {error}", file=sys.stderr)
            return 1
        records[name] = record
        for entry in record["passes"]:
            attempted += entry["offered"]
            failed += entry["offered"] - entry["delivered"]
        if traced:
            print_per_layer(name, record)
            metrics = {
                metric: {"value": record["per_layer"][metric], "unit": unit}
                for metric, unit in PER_LAYER.items()
            }
        else:
            metrics = end_to_end(record)
            print_end_to_end(name, record, metrics)
            record["metrics"] = metrics
            metrics = {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in metrics.items()
            }
        prefix = "" if len(names) == 1 else f"{name}."
        reported.update({prefix + metric: entry for metric, entry in metrics.items()})

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "trace": traced, "workloads": records}, indent=1
        ))
    # Oracle failures already ended the run; an undelivered ADU (abandoned
    # or past the sim budget) leaves the result standing but not correct.
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
