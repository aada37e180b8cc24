"""ADU-level FEC (footnote 10)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import fec_roundtrip
from repro.buffers.chain import BufferChain
from repro.core.adu import Adu
from repro.errors import FramingError, TransportError
from repro.net.host import Host
from repro.sim.eventloop import EventLoop
from repro.transport.alf import AlfSender
from repro.transport.alf.fec import (
    group_parity,
    rebuild_erasure,
    survival_probability,
)


def make_adu(size=5000, seed=1):
    rng = random.Random(seed)
    return Adu(0, rng.randbytes(size), {"k": seed})


def fec_units(adu, mtu=500, group_size=4):
    loop = EventLoop()
    sender = AlfSender(loop, Host(loop, "a"), "b", 1, mtu=mtu,
                       fec_group=group_size)
    return list(sender._wire_units(adu))


def every_unit():
    return lambda: True


class TestEncoding:
    def test_unit_counts(self):
        units = fec_units(make_adu(5000), mtu=500, group_size=4)
        data_units = [h for h, _ in units if not h["fec"]["is_parity"]]
        parity_units = [h for h, _ in units if h["fec"]["is_parity"]]
        assert len(data_units) == 10
        assert len(parity_units) == 3  # groups of 4, 4, 2
        # Each group's parity follows its last fragment and names the
        # group by its first index.
        assert [h["frag"] for h in parity_units] == [0, 4, 8]
        positions = [i for i, (h, _) in enumerate(units) if h["fec"]["is_parity"]]
        assert positions == [4, 9, 12]

    def test_group_size_validation(self):
        loop = EventLoop()
        with pytest.raises(TransportError):
            AlfSender(loop, Host(loop, "a"), "b", 1, fec_group=0)

    def test_parity_marked_in_fec_tag(self):
        adu = make_adu()
        units = fec_units(adu, mtu=500, group_size=4)
        header, parity = next((h, p) for h, p in units if h["fec"]["is_parity"])
        assert header["name"] == adu.name
        assert parity == group_parity([p for h, p in units[:4]])


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
        assert group_parity(parts) == byte_xor(parts)

    @given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=4))
    def test_unaligned_views_and_chains(self, parts):
        # Fragment payloads are views at any offset, or chain windows.
        views = [memoryview(b"x" + part)[1:] for part in parts]
        chains = [BufferChain.wrap(part) for part in parts]
        try:
            assert group_parity(views) == byte_xor(parts)
            assert group_parity(chains) == byte_xor(parts)
        finally:
            for chain in chains:
                chain.release()

    @given(
        st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=6),
        st.data(),
    )
    def test_rebuild_erasure_restores_any_one_piece(self, parts, data):
        parity = group_parity(parts)
        missing = data.draw(st.integers(0, len(parts) - 1))
        survivors = parts[:missing] + parts[missing + 1 :]
        rebuilt = rebuild_erasure(parity, survivors, len(parts[missing]))
        assert rebuilt == parts[missing]


class TestDecoding:
    def test_no_loss(self):
        adu = make_adu()
        assert fec_roundtrip(adu.payload, 500, 4, every_unit()) == adu.payload

    def test_one_loss_per_group_recovered(self):
        adu = make_adu()
        # Units in wire order: groups of 4 + parity, 4 + parity, 2 + parity.
        # Lose the first fragment of every group.
        lost = iter([False, True, True, True, True] * 2 + [False, True, True])
        result = fec_roundtrip(adu.payload, 500, 4, lost.__next__)
        assert result == adu.payload

    def test_lost_parity_is_harmless(self):
        adu = make_adu()
        arrives = iter([True, True, True, True, False] * 2 + [True, True, False])
        assert fec_roundtrip(adu.payload, 500, 4, arrives.__next__) == adu.payload

    def test_two_losses_in_group_unrecoverable(self):
        adu = make_adu()
        arrives = iter([False, False] + [True] * 11)
        assert fec_roundtrip(adu.payload, 500, 4, arrives.__next__) is None

    def test_tail_fragment_recovery_trims_padding(self):
        """The last fragment is shorter than the MTU; its reconstruction
        must trim the XOR padding."""
        adu = make_adu(size=1234)  # 500+500+234
        arrives = iter([True, True, False, True])  # drop the short tail
        assert fec_roundtrip(adu.payload, 500, 4, arrives.__next__) == adu.payload

    def test_empty_decoder(self):
        """Nothing arrives: nothing can be rebuilt."""
        assert fec_roundtrip(make_adu().payload, 500, 4, lambda: False) is None

    def test_mtu_validation(self):
        with pytest.raises(FramingError):
            fec_roundtrip(make_adu().payload, 0, 4, every_unit())

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_random_single_loss_patterns(self, size, group_size, rng):
        payload = bytes(rng.getrandbits(8) for _ in range(size))
        # Drop at most one data unit per group, never its parity.
        n_pieces = -(-size // 300)
        pattern = []
        for base in range(0, n_pieces, group_size):
            width = min(group_size, n_pieces - base)
            drop = rng.randrange(width) if rng.random() < 0.5 else None
            pattern += [index != drop for index in range(width)] + [True]
        arrives = iter(pattern)
        assert fec_roundtrip(payload, 300, group_size, arrives.__next__) == payload


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
