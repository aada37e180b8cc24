"""Throughput algebra used throughout the benchmarks.

The paper composes throughputs of serial passes the obvious way: if a copy
runs at 130 Mb/s and a checksum at 115 Mb/s, doing them one after the other
yields ``1 / (1/130 + 1/115) ≈ 61 Mb/s``.  These helpers implement that
algebra (it is just harmonic composition of rates).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import MachineModelError


def combined_serial_mbps(rates_mbps: Iterable[float]) -> float:
    """Effective Mb/s of several passes performed one after another.

    This is the "separate steps" side of the paper's ILP comparison: data
    flows through each pass in turn, so times add and rates compose
    harmonically.
    """
    total_inverse = 0.0
    count = 0
    for rate in rates_mbps:
        if rate <= 0:
            raise MachineModelError(f"rates must be positive, got {rate}")
        total_inverse += 1.0 / rate
        count += 1
    if count == 0:
        raise MachineModelError("need at least one rate")
    return 1.0 / total_inverse
