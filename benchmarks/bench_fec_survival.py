"""F5 — ADU survival with transmission-unit FEC (footnote 10).

Times the real encode → drop → rebuild cycle for a 187-cell ADU and
asserts that parity groups rescue ADU sizes plain fragmentation loses.
"""

import pytest

from repro.bench import experiments
from repro.bench.workloads import octet_payload
from repro.sim.rng import RngStreams


@pytest.fixture(scope="module")
def result():
    return experiments.fec_survival(n_trials=150)


def test_bench_fec_roundtrip_with_loss(benchmark, result, report):
    payload = octet_payload(8192)
    rng = RngStreams(5).stream("bench-fec")

    def roundtrip():
        return experiments.fec_roundtrip(
            payload, 44, 8, lambda: rng.random() >= 1e-3
        )

    reassembled = benchmark(roundtrip)
    # A specific draw may lose >1 unit in a group; the shape test below
    # covers the statistics.
    assert reassembled is None or reassembled == payload
    report(result)


def test_shape(result):
    assert result.measured("ADU 65536 B plain") < 0.4
    assert result.measured("ADU 65536 B FEC(k=8)") > 0.9
