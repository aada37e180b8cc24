"""ADU-level FEC (footnote 10)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.chain import BufferChain
from repro.core.adu import Adu
from repro.errors import FramingError
from repro.transport.alf.fec import (
    FecDecoder,
    _xor_bytes,
    encode_with_parity,
    survival_probability,
)


def make_adu(size=5000, seed=1):
    rng = random.Random(seed)
    return Adu(0, rng.randbytes(size), {"k": seed})


class TestEncoding:
    def test_unit_counts(self):
        units = encode_with_parity(make_adu(5000), mtu=500, group_size=4)
        data_units = [u for u in units if not u.is_parity]
        parity_units = [u for u in units if u.is_parity]
        assert len(data_units) == 10
        assert len(parity_units) == 3  # groups of 4, 4, 2

    def test_group_size_validation(self):
        with pytest.raises(FramingError):
            encode_with_parity(make_adu(), mtu=500, group_size=0)

    def test_parity_marked_in_name(self):
        units = encode_with_parity(make_adu(), mtu=500, group_size=4)
        parity = [u for u in units if u.is_parity][0]
        assert "fec_parity" in parity.fragment.name


def byte_xor(parts: list[bytes]) -> bytes:
    """Reference parity: XOR byte by byte, zero-padded to the widest."""
    out = bytearray(max(len(part) for part in parts))
    for part in parts:
        for index, byte in enumerate(part):
            out[index] ^= byte
    return bytes(out)


class TestParity:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=40), min_size=1, max_size=6))
    def test_word_xor_matches_byte_xor(self, parts):
        assert _xor_bytes(parts) == byte_xor(parts)

    @given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=4))
    def test_unaligned_views_and_chains(self, parts):
        # Fragment payloads are views at any offset, or chain windows.
        views = [memoryview(b"x" + part)[1:] for part in parts]
        chains = [BufferChain.from_bytes(part) for part in parts]
        try:
            assert _xor_bytes(views) == byte_xor(parts)
            assert _xor_bytes(chains) == byte_xor(parts)
        finally:
            for chain in chains:
                chain.release()


class TestDecoding:
    def test_no_loss(self):
        adu = make_adu()
        decoder = FecDecoder(mtu=500)
        for unit in encode_with_parity(adu, mtu=500, group_size=4):
            decoder.add(unit)
        result = decoder.try_reassemble()
        assert result is not None and result.payload == adu.payload
        assert decoder.recovered_fragments == 0

    def test_one_loss_per_group_recovered(self):
        adu = make_adu()
        units = encode_with_parity(adu, mtu=500, group_size=4)
        decoder = FecDecoder(mtu=500)
        dropped_groups = set()
        for unit in units:
            if not unit.is_parity and unit.group not in dropped_groups:
                dropped_groups.add(unit.group)
                continue
            decoder.add(unit)
        result = decoder.try_reassemble()
        assert result is not None and result.payload == adu.payload
        assert decoder.recovered_fragments == len(dropped_groups)

    def test_lost_parity_is_harmless(self):
        adu = make_adu()
        decoder = FecDecoder(mtu=500)
        for unit in encode_with_parity(adu, mtu=500, group_size=4):
            if not unit.is_parity:
                decoder.add(unit)
        result = decoder.try_reassemble()
        assert result is not None and result.payload == adu.payload

    def test_two_losses_in_group_unrecoverable(self):
        adu = make_adu()
        units = encode_with_parity(adu, mtu=500, group_size=4)
        decoder = FecDecoder(mtu=500)
        skipped = 0
        for unit in units:
            if not unit.is_parity and unit.group == 0 and skipped < 2:
                skipped += 1
                continue
            decoder.add(unit)
        assert decoder.try_reassemble() is None

    def test_tail_fragment_recovery_trims_padding(self):
        """The last fragment is shorter than the MTU; its reconstruction
        must trim the XOR padding."""
        adu = make_adu(size=1234)  # 500+500+234
        units = encode_with_parity(adu, mtu=500, group_size=4)
        decoder = FecDecoder(mtu=500)
        for unit in units:
            if not unit.is_parity and unit.fragment.index == 2:
                continue  # drop the short tail fragment
            decoder.add(unit)
        result = decoder.try_reassemble()
        assert result is not None and result.payload == adu.payload

    def test_empty_decoder(self):
        assert FecDecoder(mtu=100).try_reassemble() is None

    def test_mtu_validation(self):
        with pytest.raises(FramingError):
            FecDecoder(mtu=0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_random_single_loss_patterns(self, size, group_size, rng):
        adu = Adu(0, bytes(rng.getrandbits(8) for _ in range(size)))
        units = encode_with_parity(adu, mtu=300, group_size=group_size)
        # Drop at most one data unit per group.
        decoder = FecDecoder(mtu=300)
        dropped = set()
        for unit in units:
            if (
                not unit.is_parity
                and unit.group not in dropped
                and rng.random() < 0.5
            ):
                dropped.add(unit.group)
                continue
            decoder.add(unit)
        result = decoder.try_reassemble()
        assert result is not None and result.payload == adu.payload


class TestSurvivalMath:
    def test_fec_always_helps(self):
        for n in (10, 100, 1000):
            plain = survival_probability(n, 1e-3, None)
            fec = survival_probability(n, 1e-3, 8)
            assert fec > plain

    def test_no_loss_is_certain(self):
        assert survival_probability(100, 0.0, None) == 1.0
        assert survival_probability(100, 0.0, 4) == 1.0

    def test_plain_matches_power(self):
        assert survival_probability(50, 0.01, None) == pytest.approx(0.99**50)

    def test_smaller_groups_survive_better(self):
        loose = survival_probability(1000, 1e-3, 16)
        tight = survival_probability(1000, 1e-3, 4)
        assert tight > loose
