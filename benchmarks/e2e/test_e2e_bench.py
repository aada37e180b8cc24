"""Checks on the end-to-end benchmark itself.

Not part of the tier-1 suite (which collects ``tests/`` only); run with

    python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs the paths above)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_quick(*args: str) -> tuple[list[str], dict]:
    """One ``run.py --quick`` invocation: (stdout lines, final JSON)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, cwd=REPO, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Two seed-3 runs and one seed-4 run of all four workloads; one of
    them takes every option a benchmark harness passes."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for label, seed, extra in (
        ("a", 3, ("--seconds", "20", "--trace", "0")),
        ("b", 3, ()),
        ("other", 4, ()),
    ):
        path = out / f"{label}.json"
        lines, final = run_quick("--seed", str(seed), "--out", str(path), *extra)
        runs[label] = (lines, final, json.loads(path.read_text()))
    return runs


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A quick traced run of every workload, one at a time."""
    out = tmp_path_factory.mktemp("e2e-trace")
    runs = {}
    for name in WORKLOADS:
        path = out / f"{name}.json"
        lines, final = run_quick("--trace", "1", "--workload", name, "--out", str(path))
        runs[name] = (lines, final, json.loads(path.read_text())["workloads"][name])
    return runs


def test_quick_runs_repeat_sim_time_metrics_bit_for_bit(quick):
    first, second = quick["a"][2]["workloads"], quick["b"][2]["workloads"]
    for name in WORKLOADS:
        sims = [p["sim"] for p in first[name]["passes"]]
        assert sims == [p["sim"] for p in second[name]["passes"]], name


def test_every_end_to_end_metric_is_printed_with_its_unit(quick):
    lines, final, _ = quick["a"]
    assert final["correct"] and final["failed"] == 0
    for name in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            entry = final["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (name, metric["name"])
        table = lines[lines.index(next(l for l in lines if l.startswith(f"{name}:"))):]
        for metric in SPEC["end_to_end"]:
            assert any(
                row.split()[:1] == [metric["name"]] and metric["unit"] in row.split()
                for row in table
            ), (name, metric["name"])


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (_, final, _) in traced.items():
        printed = {metric: entry["unit"] for metric, entry in final["metrics"].items()}
        assert printed == expected, name


def test_traced_layers_cover_the_stack_and_add_up(traced):
    layers = run.LAYERS
    assert layers == spans.LAYERS
    for layer in layers:
        assert any(
            record["per_layer"][f"{layer}.calls"] > 0 for *_, record in traced.values()
        ), layer
    for name, (*_, record) in traced.items():
        per_layer = record["per_layer"]
        wall = record["passes"][1]["wall_s"]
        total = sum(per_layer[f"{layer}.self_s"] for layer in layers)
        total += per_layer["trace.unattributed_s"]
        assert abs(total - wall) <= 0.1 * wall, name


def test_another_seed_changes_payloads_not_the_outcome(quick):
    for name in WORKLOADS:
        make = workloads.WORKLOADS[name].make_inputs
        three, four = make(1 / 16, 3), make(1 / 16, 4)
        assert [a.crc for a in three.adus] != [a.crc for a in four.adus], name
    final = quick["other"][1]
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == quick["a"][1]["attempted"]


def test_reference_length_weights_each_moment_by_its_duration():
    probe = speed.SpeedProbe()
    # One sample a second: five at the reference speed, then five at half.
    for second in range(10):
        probe.started.append(float(second))
        probe.candle_s.append(speed.REFERENCE_S * (1 if second < 5 else 2))
        probe.spent_s.append(0.01)
    assert probe.reference_s(0.0, 10.0) == pytest.approx((10.0 - 0.1) * 0.75)
    # No sample inside: the nearest one (at 7 s, half speed) stands in.
    assert probe.reference_s(7.2, 7.4) == pytest.approx(0.2 * 0.5)


def test_a_flipped_byte_fails_the_oracle():
    workload = workloads.WORKLOADS["bulk_secure"]
    inputs = workload.make_inputs(1 / 64, 7)
    flipped = []

    def flip_first(payload: bytes) -> bytes:
        if flipped:
            return payload
        flipped.append(True)
        return bytes([payload[0] ^ 1]) + payload[1:]

    with pytest.raises(workloads.OracleFailure, match="payload mismatch"):
        workloads.run_pass(workload, inputs, 7, tamper=flip_first)
