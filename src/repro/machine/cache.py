"""A small direct-mapped cache model.

The paper's footnote 2 notes that the true cost of separate protocol
passes is *higher* than the simple per-word model suggests, because each
pass evicts the previous pass's working set ("cache depletion").  This
model lets the ablation benchmarks quantify that effect: running several
passes over a packet that exceeds the cache re-reads everything from
memory, while an integrated loop touches each word while it is still hot.

The model is deliberately simple — direct-mapped, word-granular tags with
a configurable line size — because the argument only needs hit/miss
counting, not timing-accurate simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineModelError
from repro.units import WORD_BYTES


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 when nothing accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class DirectMappedCache:
    """Direct-mapped cache over a flat byte address space.

    Args:
        capacity_bytes: total cache size; must be a positive multiple of
            ``line_bytes``.
        line_bytes: cache line size in bytes (power of two).
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 16) -> None:
        if line_bytes <= 0 or line_bytes % WORD_BYTES:
            raise MachineModelError("line_bytes must be a positive multiple of 4")
        if capacity_bytes <= 0 or capacity_bytes % line_bytes:
            raise MachineModelError(
                "capacity_bytes must be a positive multiple of line_bytes"
            )
        self.line_bytes = line_bytes
        self.n_lines = capacity_bytes // line_bytes
        self._tags: list[int | None] = [None] * self.n_lines
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        """Total data the cache can hold."""
        return self.n_lines * self.line_bytes

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit, False on miss.

        A miss installs the line (allocate-on-read-or-write policy).
        """
        if address < 0:
            raise MachineModelError("address must be >= 0")
        line = address // self.line_bytes
        index = line % self.n_lines
        if self._tags[index] == line:
            self.stats.hits += 1
            return True
        self._tags[index] = line
        self.stats.misses += 1
        return False

    def access_range(self, start: int, length: int, stride: int = WORD_BYTES) -> int:
        """Touch a range word-by-word; returns the number of misses."""
        if length < 0:
            raise MachineModelError("length must be >= 0")
        if stride <= 0:
            raise MachineModelError("stride must be positive")
        misses = 0
        for address in range(start, start + length, stride):
            if not self.access(address):
                misses += 1
        return misses

    def flush(self) -> None:
        """Invalidate every line (counters are preserved)."""
        self._tags = [None] * self.n_lines
