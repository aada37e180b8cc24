"""Concurrency and eviction pressure on the compile-once caches.

Both the ILP :class:`PlanCache` and the presentation
:class:`CodecCache` promise thread-safe compile-under-lock semantics:
concurrent lookups of one key compile exactly once, the LRU bound holds
under pressure, and every thread receives a plan/codec that produces
correct results even while other threads are evicting it.
"""

import contextlib
import random
import sys
import threading

from repro.ilp.compiler import PlanCache
from repro.ilp.pipeline import Pipeline
from repro.machine.profile import MIPS_R2000
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.compiler import CodecCache
from repro.presentation.lwts import LwtsCodec
from repro.stages.checksum import ChecksumComputeStage, internet_checksum
from repro.stages.encrypt import WordXorStage

N_THREADS = 8
N_ROUNDS = 40


def secure_pipeline(key: int) -> Pipeline:
    return Pipeline(
        [WordXorStage(key, name="encrypt"), ChecksumComputeStage()],
        name="secure",
    )


def run_threads(worker) -> list[Exception]:
    errors: list[Exception] = []
    barrier = threading.Barrier(N_THREADS)

    def wrapped(tid: int) -> None:
        try:
            barrier.wait()
            worker(tid)
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(tid,)) for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_plan_cache_compiles_each_key_once_under_contention():
    cache = PlanCache(capacity=64)

    def worker(tid: int) -> None:
        for round_ in range(N_ROUNDS):
            key = round_ % 4  # four distinct pipeline shapes
            plan = cache.get_or_compile(secure_pipeline(key), MIPS_R2000)
            data = bytes(random.Random(tid * 1000 + round_).randbytes(257))
            out, observations = plan.run(data)
            assert out == WordXorStage(key).apply(data)
            assert observations["checksum-internet"] == internet_checksum(out)

    assert run_threads(worker) == []
    snapshot = cache.snapshot()
    # Four shapes -> exactly four compiles, everything else served hot.
    assert snapshot["misses"] == 4
    assert snapshot["hits"] == N_THREADS * N_ROUNDS - 4
    assert snapshot["entries"] == 4
    assert snapshot["evictions"] == 0


def test_plan_cache_eviction_pressure_keeps_bound_and_correctness():
    cache = PlanCache(capacity=3)

    def worker(tid: int) -> None:
        for round_ in range(N_ROUNDS):
            key = (tid + round_) % 8  # more shapes than capacity
            plan = cache.get_or_compile(secure_pipeline(key), MIPS_R2000)
            data = bytes(random.Random(round_).randbytes(100 + key))
            out, _ = plan.run(data)
            # An evicted-then-recompiled plan must still be correct.
            assert out == WordXorStage(key).apply(data)

    assert run_threads(worker) == []
    snapshot = cache.snapshot()
    assert snapshot["entries"] <= 3
    assert snapshot["evictions"] > 0
    assert snapshot["misses"] > 8  # recompiles after eviction
    assert len(cache) <= 3


def test_codec_cache_compiles_each_schema_once_under_contention():
    cache = CodecCache(capacity=64)
    schemas = [ArrayOf(Int32(), fixed_count=count) for count in (4, 8, 16, 32)]
    codec = LwtsCodec(byte_order="big")

    def worker(tid: int) -> None:
        rng = random.Random(tid)
        for round_ in range(N_ROUNDS):
            schema = schemas[round_ % len(schemas)]
            compiled = cache.get_or_compile(schema, codec)
            values = [rng.randrange(-(2**31), 2**31) for _ in range(schema.fixed_count)]
            assert codec.decode(compiled.encode(values), schema) == values

    assert run_threads(worker) == []
    snapshot = cache.snapshot()
    assert snapshot["misses"] == len(schemas)
    assert snapshot["hits"] == N_THREADS * N_ROUNDS - len(schemas)
    assert snapshot["evictions"] == 0


def test_codec_cache_eviction_pressure_keeps_bound_and_correctness():
    cache = CodecCache(capacity=2)
    schemas = [ArrayOf(Int32(), fixed_count=count) for count in range(1, 9)]
    codec = LwtsCodec(byte_order="little")

    def worker(tid: int) -> None:
        rng = random.Random(100 + tid)
        for round_ in range(N_ROUNDS):
            schema = schemas[(tid + round_) % len(schemas)]
            compiled = cache.get_or_compile(schema, codec)
            values = [rng.randrange(-(2**31), 2**31) for _ in range(schema.fixed_count)]
            assert codec.decode(compiled.encode(values), schema) == values

    assert run_threads(worker) == []
    snapshot = cache.snapshot()
    assert snapshot["entries"] <= 2
    assert snapshot["evictions"] > 0
    assert snapshot["misses"] > len(schemas)


def test_cache_stats_counters_lose_no_updates_under_contention():
    """The raw counter object shards bump concurrently: every recorded
    hit/miss/eviction must survive, and a snapshot must be internally
    consistent (hits + misses == lookups) at any moment."""
    from repro.machine.accounting import AtomicCacheStats

    stats = AtomicCacheStats()
    per_thread = 5000

    def worker(tid: int) -> None:
        for i in range(per_thread):
            stats.record_hit()
            if i % 2 == 0:
                stats.record_miss()
            if i % 5 == 0:
                stats.record_eviction()
            if i % 100 == 0:
                view = stats.as_dict()
                assert view["lookups"] == view["hits"] + view["misses"]

    assert run_threads(worker) == []
    assert stats.hits == N_THREADS * per_thread
    assert stats.misses == N_THREADS * (per_thread // 2)
    assert stats.evictions == N_THREADS * (per_thread // 5)
    assert stats.lookups == stats.hits + stats.misses
    stats.reset()
    assert stats.as_dict()["lookups"] == 0


def test_plan_cache_shared_by_key_across_shard_engines():
    """One plan cache serving several shard drain engines: every shard
    compiles the shared shape once, then hits, with exact counters."""
    cache = PlanCache(capacity=8)

    def worker(tid: int) -> None:
        for _ in range(N_ROUNDS):
            plan = cache.get_or_compile(secure_pipeline(0xFEED), MIPS_R2000)
            out, _ = plan.run(b"\x00" * 64)
            assert out == WordXorStage(0xFEED).apply(b"\x00" * 64)

    assert run_threads(worker) == []
    snapshot = cache.snapshot()
    assert snapshot["misses"] == 1
    assert snapshot["hits"] == N_THREADS * N_ROUNDS - 1


@contextlib.contextmanager
def frequent_switches():
    """Switch threads every microsecond, so lost updates show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_configured_plans_match_their_pipelines_under_eviction_pressure():
    cache = PlanCache(capacity=2)

    def worker(tid: int) -> None:
        for round_ in range(N_ROUNDS):
            key = (tid + round_) % 5  # more configurations than capacity
            plan = cache.get_configured(
                ("secure", key), lambda key=key: secure_pipeline(key), MIPS_R2000
            )
            data = bytes(random.Random(tid * 1000 + round_).randbytes(64))
            out, _ = plan.run(data)
            assert out == WordXorStage(key).apply(data)

    with frequent_switches():
        assert run_threads(worker) == []
    snapshot = cache.snapshot()
    assert snapshot["hits"] + snapshot["misses"] == N_THREADS * N_ROUNDS
    assert snapshot["entries"] <= 2


def test_codec_pair_conversion_is_built_once_under_contention(monkeypatch):
    from repro.presentation import compiler

    calls = []
    real = compiler.conversion_permutation

    def counted(src, dst):
        calls.append(1)
        return real(src, dst)

    monkeypatch.setattr(compiler, "conversion_permutation", counted)
    cache = CodecCache()
    schema = ArrayOf(Int32(), fixed_count=7)
    little = cache.get_or_compile(schema, LwtsCodec(byte_order="little"))
    big = cache.get_or_compile(schema, LwtsCodec(byte_order="big"))
    seen = []

    def worker(tid: int) -> None:
        for _ in range(N_ROUNDS):
            conversion = compiler.pair_conversion(little, big)
            seen.append(conversion)
            assert conversion.permutation is not None

    with frequent_switches():
        assert run_threads(worker) == []
    assert len({id(conversion) for conversion in seen}) == 1
    assert len(calls) == 1
