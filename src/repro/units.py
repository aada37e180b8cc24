"""Unit helpers shared across the library.

The paper rates everything in megabits per second ("the normal rating for
protocols, if not hosts"), counts data in 32-bit words, and talks about
memory cycles.  These helpers keep those conversions in one place so the
rest of the code never multiplies by 8 inline.
"""

from __future__ import annotations

BITS_PER_BYTE = 8
WORD_BYTES = 4
WORD_BITS = WORD_BYTES * BITS_PER_BYTE

MEGA = 1_000_000


def bytes_to_words(n_bytes: int) -> int:
    """Number of 32-bit words covering ``n_bytes`` (rounded up)."""
    return -(-n_bytes // WORD_BYTES)


def words_to_bytes(n_words: int) -> int:
    """Number of bytes in ``n_words`` 32-bit words."""
    return n_words * WORD_BYTES


def mbps(bits: float, seconds: float) -> float:
    """Throughput in megabits per second."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return bits / seconds / MEGA


def bits_of_bytes(n_bytes: int) -> int:
    """Bit count of a byte count."""
    return n_bytes * BITS_PER_BYTE


def seconds_for_cycles(cycles: float, clock_hz: float) -> float:
    """Wall time a cycle count takes at a clock rate."""
    if clock_hz <= 0:
        raise ValueError("clock_hz must be positive")
    return cycles / clock_hz
