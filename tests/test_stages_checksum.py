"""Checksums: RFC 1071 behaviour, Fletcher, CRC, and their stages."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StageError
from repro.stages.checksum import (
    ChecksumComputeStage,
    ChecksumVerifyStage,
    crc32,
    fletcher32,
    internet_checksum,
)


class TestInternetChecksum:
    def test_known_vector(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")

    def test_detects_single_bit_flip(self):
        data = bytearray(b"hello world!")
        checksum = internet_checksum(bytes(data))
        data[5] ^= 0x04
        assert internet_checksum(bytes(data)) != checksum

    @given(st.binary(max_size=200))
    def test_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(max_size=200))
    def test_deterministic(self, data):
        assert internet_checksum(data) == internet_checksum(data)

    def test_word_reorder_invisible(self):
        """The famous weakness: one's-complement sums commute, so
        16-bit-word reordering is undetected (why Fletcher exists)."""
        a = b"\x01\x02\x03\x04"
        b = b"\x03\x04\x01\x02"
        assert internet_checksum(a) == internet_checksum(b)


class TestFletcher32:
    def test_known_values_differ_by_position(self):
        assert fletcher32(b"\x01\x02\x03\x04") != fletcher32(b"\x03\x04\x01\x02")

    def test_empty(self):
        assert isinstance(fletcher32(b""), int)

    @given(st.binary(max_size=300))
    def test_range(self, data):
        assert 0 <= fletcher32(data) <= 0xFFFFFFFF

    def test_long_input_no_overflow(self):
        fletcher32(bytes(range(256)) * 64)  # must not blow up


class TestCrc32:
    def test_known_vector(self):
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0


class TestStages:
    def test_compute_stage_passthrough(self):
        stage = ChecksumComputeStage()
        data = b"payload"
        assert stage.apply(data) == data
        assert stage.last_checksum == internet_checksum(data)

    def test_compute_stage_reset(self):
        stage = ChecksumComputeStage()
        stage.apply(b"x")
        stage.reset()
        assert stage.last_checksum is None

    def test_unknown_algorithm(self):
        with pytest.raises(StageError, match="unknown checksum"):
            ChecksumComputeStage("md5")

    def test_algorithms_have_distinct_costs(self):
        internet = ChecksumComputeStage("internet")
        crc = ChecksumComputeStage("crc32")
        assert crc.cost.reads_per_word > internet.cost.reads_per_word

    def test_verify_stage_passes(self):
        stage = ChecksumVerifyStage()
        data = b"payload"
        stage.expect(internet_checksum(data))
        assert stage.apply(data) == data
        assert stage.failures == 0

    def test_verify_stage_fails_on_mismatch(self):
        stage = ChecksumVerifyStage()
        stage.expect(0x1234)
        with pytest.raises(StageError, match="mismatch"):
            stage.apply(b"corrupted")
        assert stage.failures == 1

    def test_verify_without_expectation_observes_only(self):
        stage = ChecksumVerifyStage()
        stage.apply(b"anything")  # no raise

    def test_verify_provides_verified_fact(self):
        from repro.stages.base import Facts

        assert Facts.VERIFIED in ChecksumVerifyStage().provides


class TestChainChecksums:
    """Every algorithm must checksum a chain without linearizing it."""

    def _chain(self, data: bytes, cuts: list[int]) -> "BufferChain":
        from repro.buffers.chain import BufferChain
        from repro.buffers.segment import Segment

        bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
        return BufferChain(
            [Segment.wrap(data[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
        )

    def test_fletcher32_chain_matches_contiguous(self):
        import random

        from repro.stages.checksum import fletcher32, fletcher32_chain

        rng = random.Random(7)
        # Cover the 359-word fold boundary, odd lengths, and odd cuts.
        for length in [0, 1, 2, 3, 716, 717, 718, 719, 720, 1500]:
            data = rng.randbytes(length)
            cuts = [rng.randrange(length + 1) for _ in range(3)]
            assert fletcher32_chain(self._chain(data, cuts)) == fletcher32(data)

    def test_crc32_chain_matches_contiguous(self):
        import random

        from repro.stages.checksum import crc32, crc32_chain

        rng = random.Random(8)
        for length in [0, 1, 5, 1024]:
            data = rng.randbytes(length)
            assert crc32_chain(self._chain(data, [1, 7, 100])) == crc32(data)

    def test_compute_stage_never_linearizes_a_chain(self):
        import random

        from repro.machine.accounting import datapath_counters

        rng = random.Random(9)
        data = rng.randbytes(999)
        for algorithm in ["internet", "fletcher32", "crc32"]:
            chain = self._chain(data, [100, 500])
            stage = ChecksumComputeStage(algorithm)
            counters = datapath_counters()
            counters.reset()
            out = stage.apply(chain)
            snap = counters.snapshot()
            counters.reset()
            assert out is chain
            assert snap["copies"] == 0, algorithm
            assert snap["read_passes"] == 1, algorithm
            contiguous = ChecksumComputeStage(algorithm)
            contiguous.apply(data)
            assert stage.last_checksum == contiguous.last_checksum, algorithm
