"""Compare two benchmark result sets under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` (the baseline) and ``B`` are each a file written by ``run.py --out``
or a directory of such files; the passes of every file on one side are
pooled.  Prints one row per workload × end-to-end metric with both
medians, the change, the wider of the two pass spreads and a verdict:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``within bound`` — they do not;
* ``unresolved`` — a side's spread (interquartile range over median)
  is wider than the bound, so the bound cannot be judged, unless every
  pass of B reads better than every pass of A (then ``better``).

``setup_s`` changes under 10 ms count as within bound.  Exits 1 when any
row is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import spread

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent.parent / "BENCHMARK.json"
ABSOLUTE_FLOOR = {"setup_s": 0.010}


def load_side(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> pooled samples, from one file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    pooled: dict[str, dict[str, list[float]]] = {}
    for file in files:
        document = json.loads(file.read_text())
        for workload, record in document["workloads"].items():
            metrics = pooled.setdefault(workload, {})
            for metric, entry in record.get("metrics", {}).items():
                metrics.setdefault(metric, []).extend(entry["samples"])
    return pooled


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[str, float, float]:
    """(verdict, signed change of B vs A — positive is worse, spread)."""
    bound, lower_is_better = metric["bound"], metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) if lower_is_better else (med_a - med_b)
    change = worse_by / abs(med_a) if med_a else 0.0
    wide = max(spread(a), spread(b))
    b_always_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if wide > bound:
        return ("better" if b_always_better else "unresolved"), change, wide
    if abs(med_b - med_a) < ABSOLUTE_FLOOR.get(metric["name"], 0.0):
        return "within bound", change, wide
    if change > bound:
        return "worse", change, wide
    if change < -bound:
        return "better", change, wide
    return "within bound", change, wide


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    side_a, side_b = (load_side(Path(arg)) for arg in argv)
    print(f"{'workload':14} {'metric':20} {'A median':>13} {'B median':>13} "
          f"{'worse by':>9} {'spread':>7} {'bound':>8}  verdict")
    failing = 0
    for workload in sorted(set(side_a) & set(side_b)):
        for metric in spec["end_to_end"]:
            a = side_a[workload].get(metric["name"])
            b = side_b[workload].get(metric["name"])
            if not a or not b:
                continue
            result, change, wide = verdict(metric, a, b)
            failing += result in ("worse", "unresolved")
            print(f"{workload:14} {metric['name']:20} {statistics.median(a):>13.6g} "
                  f"{statistics.median(b):>13.6g} {change:>9.2%} {wide:>7.2%} "
                  f"{metric['bound']:>8.3%}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
