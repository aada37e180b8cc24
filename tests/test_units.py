"""Unit-conversion helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_bytes_to_words_rounds_up():
    assert units.bytes_to_words(0) == 0
    assert units.bytes_to_words(1) == 1
    assert units.bytes_to_words(4) == 1
    assert units.bytes_to_words(5) == 2
    assert units.bytes_to_words(4000) == 1000


def test_words_to_bytes():
    assert units.words_to_bytes(1000) == 4000


@given(st.integers(min_value=0, max_value=10**9))
def test_word_conversion_covers(n_bytes):
    words = units.bytes_to_words(n_bytes)
    assert units.words_to_bytes(words) >= n_bytes
    assert units.words_to_bytes(words) - n_bytes < units.WORD_BYTES


def test_mbps():
    assert units.mbps(8_000_000, 1.0) == pytest.approx(8.0)


def test_mbps_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        units.mbps(100, 0)


def test_bits_of_bytes():
    assert units.bits_of_bytes(4000) == 32_000


def test_seconds_for_cycles():
    assert units.seconds_for_cycles(1e6, 1e6) == pytest.approx(1.0)


def test_seconds_for_cycles_rejects_bad_clock():
    with pytest.raises(ValueError):
        units.seconds_for_cycles(10, 0)
