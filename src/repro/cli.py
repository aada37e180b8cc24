"""Command-line interface: ``python -m repro``.

Commands:

* ``list`` — the experiment catalogue (id, title).
* ``run T1 E1 ...`` — run selected experiments and print their tables
  (``run --all`` for the full battery).
* ``report [PATH]`` — regenerate EXPERIMENTS.md.
* ``calibration`` — show the machine profiles and their derivation
  check against Table 1.
* ``verify`` — run the headline regression guards (exit 1 on drift).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench.harness import ExperimentResult
from repro.bench import experiments
from repro.machine.costs import CHECKSUM_COST, COPY_COST
from repro.machine.profile import PROFILES

#: The experiment catalogue: id → (title, zero-argument runner).
CATALOG: dict[str, tuple[str, Callable[[], ExperimentResult]]] = {
    "T1": ("Table 1: manipulation speeds", experiments.table1),
    "E1": ("Separate vs integrated copy+checksum", experiments.ilp_copy_checksum),
    "E2": ("Presentation conversion vs copy", experiments.presentation_cost),
    "E3": ("Full-stack overhead (toolkit BER)", experiments.stack_overhead),
    "E4": ("Conversion fused with checksum", experiments.ilp_presentation_checksum),
    "E5": ("Control vs manipulation cost", experiments.control_vs_manipulation),
    "E6": ("Functional word-level fusion", experiments.word_fusion),
    "E7": ("End-to-end layered vs integrated", experiments.ilp_end_to_end),
    "F1": ("Goodput vs loss, app-bottleneck", experiments.alf_pipeline),
    "F2": ("ADU survival vs size (ATM loss)", experiments.adu_size_survival),
    "F3": ("ILP speedup vs fused depth", experiments.ilp_scaling),
    "F4": ("Striped parallel delivery", experiments.parallel_dispatch),
    "F5": ("ADU survival with FEC", experiments.fec_survival),
    "F6": ("Sync-unit control overhead", experiments.sync_unit_overhead),
    "F7": ("Media deadline repair (FEC)", experiments.media_deadline_repair),
    "A1": ("Ordering constraints & speculation", experiments.ordering_constraints),
    "A2": ("Negotiated sender-side conversion", experiments.negotiated_conversion),
    "A3": ("Outboard processor analysis", experiments.outboard_analysis),
    "A4": ("Layered vs shared header", experiments.header_overhead),
    "A5": ("Cache depletion across passes", experiments.cache_depletion),
    "A6": ("Out-of-band rate control", experiments.rate_control),
    "P1": ("Compile-once plan cache fast path", experiments.plan_cache_fast_path),
    "P2": ("Zero-copy datapath vs copy-per-layer", experiments.zero_copy_datapath),
    "P3": ("Compiled presentation fused in loop", experiments.compiled_presentation),
    "P4": ("Full §6 single-pass secure pipeline", experiments.secure_pipeline),
    "P5": ("Shared-plan cross-flow drain engine", experiments.multiflow_drain),
    "P6": ("Sharded hosts: per-shard drain workers", experiments.sharded_hosts),
    "P7": ("Selective integrity: coverage-span checksums", experiments.selective_integrity),
    "P8": ("Rate-paced train shaping with drain-pressure backpressure", experiments.rate_paced_trains),
}


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(eid) for eid in CATALOG)
    for eid, (title, _runner) in CATALOG.items():
        print(f"{eid:<{width}}  {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(CATALOG) if args.all else [eid.upper() for eid in args.ids]
    if not ids:
        print("nothing to run; give experiment ids or --all", file=sys.stderr)
        return 2
    unknown = [eid for eid in ids if eid not in CATALOG]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(CATALOG)}", file=sys.stderr)
        return 2
    for eid in ids:
        _, runner = CATALOG[eid]
        print(runner().format())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import main as report_main

    return report_main([args.path] if args.path else [])


def _cmd_calibration(_: argparse.Namespace) -> int:
    print("Machine profiles (calibrated against the paper's Table 1):\n")
    for key, profile in PROFILES.items():
        print(f"  {key}: {profile.name} @ {profile.clock_hz / 1e6:.2f} MHz")
        print(
            f"    read {profile.read_cycles:.3f}  write {profile.write_cycles:.3f}"
            f"  alu {profile.alu_cycles:.3f}  call {profile.call_cycles:.1f}"
            f"  CPI {profile.cycles_per_instruction:.1f}"
        )
        copy = profile.mbps_for_cost(COPY_COST)
        checksum = profile.mbps_for_cost(CHECKSUM_COST)
        fused = profile.mbps_for_cost(CHECKSUM_COST.fuse_after(COPY_COST))
        print(
            f"    copy {copy:6.1f} Mb/s   checksum {checksum:6.1f} Mb/s   "
            f"copy+checksum fused {fused:6.1f} Mb/s"
        )
        print()
    return 0


def _cmd_verify(_: argparse.Namespace) -> int:
    from repro.bench.regress import guard_count, verify_headlines

    violations = verify_headlines()
    if violations:
        for violation in violations:
            print(f"DRIFT: {violation}", file=sys.stderr)
        return 1
    print(f"all {guard_count()} headline guards hold")
    return 0


def _cmd_ilp(args: argparse.Namespace) -> int:
    from repro.ilp.compiler import shared_plan_cache

    if args.action == "stats":
        snapshot = shared_plan_cache().snapshot()
        print(
            f"plan cache: {snapshot['entries']} entries "
            f"(capacity {snapshot['capacity']})"
        )
        print(
            f"  lookups {snapshot['lookups']}  hits {snapshot['hits']}  "
            f"misses {snapshot['misses']}  evictions {snapshot['evictions']}"
        )
        print(f"  hit rate {snapshot['hit_rate']:.4f}")
        return 0
    print(f"unknown ilp action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_presentation(args: argparse.Namespace) -> int:
    from repro.presentation.compiler import (
        presentation_counters,
        shared_codec_cache,
    )

    if args.action == "stats":
        cache = shared_codec_cache().snapshot()
        print(
            f"codec cache: {cache['entries']} entries "
            f"(capacity {cache['capacity']})"
        )
        print(
            f"  lookups {cache['lookups']}  hits {cache['hits']}  "
            f"misses {cache['misses']}  evictions {cache['evictions']}"
        )
        print(f"  hit rate {cache['hit_rate']:.4f}")
        counters = presentation_counters().snapshot()
        print("presentation counters:")
        print(
            f"  compiled_encodes {counters['compiled_encodes']}  "
            f"compiled_decodes {counters['compiled_decodes']}  "
            f"chain_decodes {counters['chain_decodes']}"
        )
        print(
            f"  batch_adus_encoded {counters['batch_adus_encoded']}  "
            f"batch_adus_decoded {counters['batch_adus_decoded']}"
        )
        print(f"  fused_conversions {counters['fused_conversions']}")
        print(
            f"  bytes_encoded {counters['bytes_encoded']}  "
            f"bytes_decoded {counters['bytes_decoded']}"
        )
        return 0
    print(f"unknown presentation action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_secure(args: argparse.Namespace) -> int:
    from repro.stages.encrypt import secure_counters

    if args.action == "stats":
        counters = secure_counters().snapshot()
        print("secure-path counters:")
        print(
            f"  stage_passes {counters['stage_passes']}  "
            f"stage_bytes {counters['stage_bytes']}"
        )
        print(f"  fused_passes {counters['fused_passes']}")
        print(
            f"  chain_passes {counters['chain_passes']}  "
            f"chain_bytes {counters['chain_bytes']}"
        )
        return 0
    print(f"unknown secure action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.machine.accounting import drain_counters

    if args.action == "stats":
        counters = drain_counters().snapshot()
        print("shared-drain counters:")
        print(
            f"  dispatches {counters['dispatches']}  "
            f"rows_dispatched {counters['rows_dispatched']}  "
            f"rows_per_dispatch {counters['rows_per_dispatch']:.2f}"
        )
        print(
            f"  epochs {counters['epochs']}  "
            f"cross_flow_batches {counters['cross_flow_batches']}  "
            f"fairness_stalls {counters['fairness_stalls']}"
        )
        print(f"  corrupt_rows {counters['corrupt_rows']}")
        return 0
    print(f"unknown drain action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.machine.accounting import shard_counters

    if args.action == "stats":
        counters = shard_counters().snapshot()
        print("shard demux counters:")
        print(
            f"  packets {counters['packets']}  bursts {counters['bursts']}  "
            f"worker_services {counters['worker_services']}"
        )
        print(
            f"  demux_runs {counters['demux_runs']}  "
            f"probes_saved {counters['probes_saved']}"
        )
        print("zero-hop steering:")
        print(
            f"  steered_trains {counters['steered_trains']}  "
            f"steered_packets {counters['steered_packets']}  "
            f"fallback_trains {counters['fallback_trains']}  "
            f"fallback_packets {counters['fallback_packets']}"
        )
        print(
            f"  migrations {counters['migrations']}  "
            f"migrated_flows {counters['migrated_flows']}"
        )
        if counters["shard_packets"]:
            loads = "  ".join(
                f"shard{index}: {count}"
                for index, count in counters["shard_packets"].items()
            )
            print(f"per-shard packets:  {loads}")
        for index, hist in counters["shard_backlog_hist"].items():
            bars = "  ".join(
                f"<={bucket}: {count}" for bucket, count in hist.items()
            )
            print(f"  shard{index} backlog_hist  {bars}")
        return 0
    print(f"unknown shard action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.machine.accounting import shard_counters, train_counters

    if args.action == "stats":
        trains = train_counters().snapshot()
        print("link train counters:")
        print(
            f"  trains {trains['trains']}  "
            f"train_packets {trains['train_packets']}  "
            f"packets_per_train {trains['packets_per_train']:.2f}"
        )
        if trains["train_len_hist"]:
            hist = "  ".join(
                f"<={bucket}: {count}"
                for bucket, count in trains["train_len_hist"].items()
            )
            print(f"  train_len_hist {hist}")
        demux = shard_counters().snapshot()
        print("front-end train demux:")
        print(
            f"  demux_runs {demux['demux_runs']}  "
            f"probes_saved {demux['probes_saved']}  "
            f"train_packets {demux['train_packets']}"
        )
        if trains["switch_queue_drops"]:
            print("switch queue drops by destination:")
            for destination, count in trains["switch_queue_drops"].items():
                print(f"  {destination}: {count}")
        return 0
    print(f"unknown train action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_pacing(args: argparse.Namespace) -> int:
    from repro.machine.accounting import pacing_counters

    if args.action == "stats":
        counters = pacing_counters().snapshot()
        print("train pacing counters:")
        print(
            f"  packets_submitted {counters['packets_submitted']}  "
            f"bytes_submitted {counters['bytes_submitted']}"
        )
        print(
            f"  trains_released {counters['trains_released']}  "
            f"train_packets {counters['train_packets']}  "
            f"packets_per_train {counters['packets_per_train']:.2f}  "
            f"full_trains {counters['full_trains']}"
        )
        print(f"  credit_stalls {counters['credit_stalls']}")
        print("drain-pressure feedback:")
        print(
            f"  acks_stamped {counters['acks_stamped']}  "
            f"pressure_signals {counters['pressure_signals']}  "
            f"last_quantum {counters['last_quantum']}  "
            f"max_quantum {counters['max_quantum']}"
        )
        print(
            f"  rate_raises {counters['rate_raises']}  "
            f"rate_backoffs {counters['rate_backoffs']}"
        )
        return 0
    print(f"unknown pacing action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_integrity(args: argparse.Namespace) -> int:
    from repro.integrity import coverage_mask_cache_size
    from repro.machine.accounting import integrity_counters

    if args.action == "stats":
        counters = integrity_counters().snapshot()
        print("selective-integrity counters:")
        print(
            f"  covered_bytes {counters['covered_bytes']}  "
            f"skipped_bytes {counters['skipped_bytes']}  "
            f"skip_fraction {counters['skip_fraction']:.4f}"
        )
        print(
            f"  tolerant_deliveries {counters['tolerant_deliveries']}  "
            f"corrupt_flagged {counters['corrupt_flagged']}"
        )
        print(
            f"  policy_hits {counters['policy_hits']}  "
            f"policy_misses {counters['policy_misses']}  "
            f"mask_cache_entries {coverage_mask_cache_size()}"
        )
        return 0
    print(f"unknown integrity action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_buffers(args: argparse.Namespace) -> int:
    from repro.buffers.pool import shared_rx_pool
    from repro.machine.accounting import datapath_counters

    if args.action == "stats":
        counters = datapath_counters().snapshot()
        print("datapath counters:")
        print(
            f"  copies {counters['copies']}  bytes_copied {counters['bytes_copied']}"
        )
        print(
            f"  read_passes {counters['read_passes']}  "
            f"bytes_read {counters['bytes_read']}"
        )
        print(f"  memory_passes {counters['memory_passes']}")
        print(
            f"  zero_copy_ops {counters['zero_copy_ops']}  "
            f"dma_writes {counters['dma_writes']}  "
            f"dma_bytes {counters['dma_bytes']}"
        )
        for label, n_bytes in sorted(counters["copies_by_label"].items()):
            print(f"    copy[{label}] {n_bytes} bytes")
        pool = shared_rx_pool().snapshot()
        print(f"rx pool '{pool['label']}':")
        print(
            f"  capacity {pool['capacity']}  buffer_size {pool['buffer_size']}  "
            f"available {pool['available']}  in_use {pool['in_use']}"
        )
        print(
            f"  hits {pool['hits']}  misses {pool['misses']}  "
            f"recycled {pool['recycled']}  "
            f"allocation_failures {pool['allocation_failures']}"
        )
        for label in pool["leaked"]:
            print(f"  LEAK: {label}")
        return 0
    print(f"unknown buffers action {args.action!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clark & Tennenhouse (SIGCOMM 1990) reproduction: "
        "run the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = commands.add_parser("run", help="run experiments")
    run_parser.add_argument("ids", nargs="*", help="experiment ids (e.g. T1 E1)")
    run_parser.add_argument("--all", action="store_true", help="run everything")
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md"
    )
    report_parser.add_argument("path", nargs="?", default=None)
    report_parser.set_defaults(handler=_cmd_report)

    calibration_parser = commands.add_parser(
        "calibration", help="show the machine-profile derivation"
    )
    calibration_parser.set_defaults(handler=_cmd_calibration)

    verify_parser = commands.add_parser(
        "verify", help="check the headline numbers against guard bands"
    )
    verify_parser.set_defaults(handler=_cmd_verify)

    ilp_parser = commands.add_parser(
        "ilp", help="inspect the ILP compiled-plan machinery"
    )
    ilp_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the process-wide plan cache counters",
    )
    ilp_parser.set_defaults(handler=_cmd_ilp)

    buffers_parser = commands.add_parser(
        "buffers", help="inspect the zero-copy buffer substrate"
    )
    buffers_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the datapath copy counters and rx-pool state",
    )
    buffers_parser.set_defaults(handler=_cmd_buffers)

    presentation_parser = commands.add_parser(
        "presentation", help="inspect the schema-compiled codec machinery"
    )
    presentation_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the codec cache and compiled-pass counters",
    )
    presentation_parser.set_defaults(handler=_cmd_presentation)

    secure_parser = commands.add_parser(
        "secure", help="inspect the fused encryption fast path"
    )
    secure_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the cipher-pass counters (interpreted, "
        "fused, streaming-chain)",
    )
    secure_parser.set_defaults(handler=_cmd_secure)

    drain_parser = commands.add_parser(
        "drain", help="inspect the host-level shared drain engine"
    )
    drain_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the cross-flow batch-drain counters "
        "(dispatches, rows per dispatch, fairness stalls)",
    )
    drain_parser.set_defaults(handler=_cmd_drain)

    shard_parser = commands.add_parser(
        "shard", help="inspect the sharded-host flow demux"
    )
    shard_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the flow-hash demux counters "
        "(packets, placement probes, worker services)",
    )
    shard_parser.set_defaults(handler=_cmd_shard)

    train_parser = commands.add_parser(
        "train", help="inspect the packet-train delivery path"
    )
    train_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the link train counters (trains, packets "
        "per train, length histogram) and the front end's run-demux "
        "amortization",
    )
    train_parser.set_defaults(handler=_cmd_train)

    pacing_parser = commands.add_parser(
        "pacing", help="inspect the rate-paced train shaping path"
    )
    pacing_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the pacer ledgers (trains released, credit "
        "stalls) and the drain-pressure feedback loop (ACK quanta, "
        "AIMD raises/backoffs)",
    )
    pacing_parser.set_defaults(handler=_cmd_pacing)

    integrity_parser = commands.add_parser(
        "integrity", help="inspect the selective-integrity coverage path"
    )
    integrity_parser.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the coverage-fold counters (covered vs "
        "skipped bytes, tolerant deliveries, policy mask-cache hits)",
    )
    integrity_parser.set_defaults(handler=_cmd_integrity)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g. head);
        # that is not an error.  Detach stdout so the interpreter's
        # shutdown flush does not raise again.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
