"""Direct-mapped cache model: the footnote-2 'cache depletion' effect."""

import pytest

from repro.errors import MachineModelError
from repro.machine.cache import DirectMappedCache


def test_construction_validates():
    with pytest.raises(MachineModelError):
        DirectMappedCache(0)
    with pytest.raises(MachineModelError):
        DirectMappedCache(100, line_bytes=7)
    with pytest.raises(MachineModelError):
        DirectMappedCache(100, line_bytes=16)  # not a multiple


def test_cold_miss_then_hit():
    cache = DirectMappedCache(256, line_bytes=16)
    assert cache.access(0) is False
    assert cache.access(0) is True
    assert cache.access(4) is True  # same line
    assert cache.access(16) is False  # next line


def test_capacity_property():
    cache = DirectMappedCache(1024, line_bytes=32)
    assert cache.capacity_bytes == 1024
    assert cache.n_lines == 32


def test_conflict_eviction():
    cache = DirectMappedCache(64, line_bytes=16)  # 4 lines
    assert cache.access(0) is False
    assert cache.access(64) is False  # maps to same index, evicts
    assert cache.access(0) is False  # evicted: miss again


def test_access_range_counts_misses():
    cache = DirectMappedCache(1024, line_bytes=16)
    misses = cache.access_range(0, 256)
    assert misses == 16  # one per line
    assert cache.access_range(0, 256) == 0  # all hot now


def test_working_set_larger_than_cache_rereads():
    """The ILP motivation: a second pass over a too-big buffer misses."""
    cache = DirectMappedCache(1024, line_bytes=16)
    first = cache.access_range(0, 4096)
    second = cache.access_range(0, 4096)
    assert first == second == 256  # nothing survives between passes


def test_working_set_within_cache_stays_hot():
    cache = DirectMappedCache(8192, line_bytes=16)
    cache.access_range(0, 4096)
    assert cache.access_range(0, 4096) == 0


def test_flush_preserves_stats():
    cache = DirectMappedCache(256, line_bytes=16)
    cache.access(0)
    cache.flush()
    assert cache.access(0) is False
    assert cache.stats.misses == 2


def test_hit_rate():
    cache = DirectMappedCache(256, line_bytes=16)
    cache.access(0)
    cache.access(0)
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_negative_address_rejected():
    cache = DirectMappedCache(256, line_bytes=16)
    with pytest.raises(MachineModelError):
        cache.access(-1)


def test_access_range_validation():
    cache = DirectMappedCache(256, line_bytes=16)
    with pytest.raises(MachineModelError):
        cache.access_range(0, -1)
    with pytest.raises(MachineModelError):
        cache.access_range(0, 16, stride=0)
