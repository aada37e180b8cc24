"""Command-line interface: ``python -m repro``.

Commands:

* ``list`` — the experiment catalogue (id, title).
* ``run T1 E1 ...`` — run selected experiments and print their tables
  (``run --all`` for the full battery).
* ``report [PATH]`` — regenerate EXPERIMENTS.md.
* ``calibration`` — show the machine profiles and their derivation
  check against Table 1.
* ``verify`` — run the headline regression guards (exit 1 on drift).
* ``stats`` — print the process-wide kernel and codec counters (plan
  and codec caches, presentation, secure, integrity, datapath) as flat
  ``section.key value`` lines.  Counters that belong to a host, shard,
  drain engine, pacer, link, switch or rx pool live on that object's
  ``counters``/``stats``/``snapshot()``.
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


def _flatten(tree: dict, prefix: str = ""):
    """``(dotted.key, value)`` pairs for every leaf of a nested snapshot."""
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, list):
            value = dict(enumerate(value))
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        else:
            yield name, value


def _cmd_stats(_: argparse.Namespace) -> int:
    from repro.ilp.compiler import shared_plan_cache
    from repro.integrity import coverage_mask_cache_size
    from repro.machine.accounting import DATAPATH, integrity_counters
    from repro.presentation.compiler import (
        presentation_counters,
        shared_codec_cache,
    )
    from repro.stages.encrypt import secure_counters

    sections = {
        "plan_cache": shared_plan_cache().snapshot(),
        "codec_cache": shared_codec_cache().snapshot(),
        "presentation": presentation_counters().snapshot(),
        "secure": secure_counters().snapshot(),
        "integrity": {
            **integrity_counters().snapshot(),
            "mask_cache_entries": coverage_mask_cache_size(),
        },
        "datapath": DATAPATH.snapshot(),
    }
    for key, value in _flatten(sections):
        print(f"{key} {value}")
    return 0


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

    stats_parser = commands.add_parser(
        "stats",
        help="print this process's kernel and codec counters "
        "as 'section.key value' lines",
    )
    stats_parser.set_defaults(handler=_cmd_stats)
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
