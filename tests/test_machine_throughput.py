"""Throughput algebra: harmonic composition of serial passes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineModelError
from repro.machine.throughput import combined_serial_mbps


def test_papers_separate_number():
    """1/(1/130 + 1/115) ~= 61 Mb/s — the paper's 'about 60'."""
    assert combined_serial_mbps([130.0, 115.0]) == pytest.approx(61.02, abs=0.01)


def test_single_rate_is_identity():
    assert combined_serial_mbps([42.0]) == pytest.approx(42.0)


def test_empty_rejected():
    with pytest.raises(MachineModelError):
        combined_serial_mbps([])


def test_nonpositive_rejected():
    with pytest.raises(MachineModelError):
        combined_serial_mbps([100.0, 0.0])


@given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=8))
def test_combined_never_exceeds_slowest(rates):
    combined = combined_serial_mbps(rates)
    assert combined <= min(rates) + 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=8))
def test_adding_a_pass_always_slows(rates):
    assert combined_serial_mbps(rates) < combined_serial_mbps(rates[:-1]) + 1e-9
