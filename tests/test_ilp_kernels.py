"""Word kernels: functional single-pass fusion."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StageError
from repro.ilp.kernels import (
    FusedWordLoop,
    byteswap_kernel,
    checksum_kernel,
    copy_kernel,
    pack_native,
    words_to_bytes,
    xor_kernel,
)
from repro.stages.checksum import internet_checksum


class TestWordPacking:
    def test_roundtrip_aligned(self):
        data = bytes(range(16))
        words, length, owned = pack_native(data)
        assert owned is False
        assert np.shares_memory(words, np.frombuffer(data, dtype=np.uint8))
        assert words_to_bytes(words, length) == data

    @given(st.binary(max_size=100))
    def test_roundtrip_any_length(self, data):
        words, length, _ = pack_native(data)
        assert words_to_bytes(words, length) == data

    @pytest.mark.parametrize("length", range(10))
    def test_unpack_truncates_live_pad_bytes(self, length):
        # A transform may write the pad bytes of the final partial word;
        # the unpack keeps exactly the first `length` bytes of the
        # native image, whatever the pad holds.
        words, _, _ = pack_native(bytes(range(1, length + 1)))
        words = words ^ np.uint32(0xA5C3F00D)
        image = b"".join(int(word).to_bytes(4, sys.byteorder) for word in words)
        if length % 4:
            assert any(image[length:])  # the pad really is live
        assert words_to_bytes(words, length) == image[:length]

    def test_padding_is_zero(self):
        words, _, owned = pack_native(b"\xff")
        assert owned is True
        # The native image of the payload, zero-padded to the word.
        assert words.tobytes() == b"\xff\x00\x00\x00"
        assert int(words[0]) == int.from_bytes(b"\xff\x00\x00\x00", sys.byteorder)


class TestKernels:
    def test_copy_is_identity(self):
        loop = FusedWordLoop([copy_kernel()])
        out, obs = loop.run(b"hello world")
        assert out == b"hello world"
        assert obs == {}

    def test_checksum_matches_reference(self):
        data = bytes(range(256)) * 4
        loop = FusedWordLoop([checksum_kernel()])
        _, obs = loop.run(data)
        assert obs["checksum"] == internet_checksum(data)

    @given(st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_checksum_matches_reference_any_input(self, data):
        _, obs = FusedWordLoop([checksum_kernel()]).run(data)
        assert obs["checksum"] == internet_checksum(data)

    def test_xor_is_self_inverse(self):
        loop = FusedWordLoop([xor_kernel(0xDEADBEEF), xor_kernel(0xDEADBEEF)])
        assert loop.run(b"secret data!")[0] == b"secret data!"

    def test_byteswap_twice_is_identity(self):
        loop = FusedWordLoop([byteswap_kernel(), byteswap_kernel()])
        assert loop.run(b"12345678")[0] == b"12345678"

    def test_byteswap_swaps(self):
        out, _ = FusedWordLoop([byteswap_kernel()]).run(b"\x01\x02\x03\x04")
        assert out == b"\x04\x03\x02\x01"

    def test_empty_loop_rejected(self):
        with pytest.raises(StageError):
            FusedWordLoop([])


class TestFusion:
    KERNELS = staticmethod(
        lambda: [
            copy_kernel(),
            checksum_kernel(),
            xor_kernel(0xA5A5A5A5),
            byteswap_kernel(),
        ]
    )

    def test_fused_equals_layered(self):
        data = bytes(range(256)) * 16
        loop = FusedWordLoop(self.KERNELS())
        fused_out, fused_obs = loop.run(data)
        layered_out, layered_obs = loop.run_layered(data)
        assert fused_out == layered_out
        assert fused_obs == layered_obs

    @given(st.binary(min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_fused_equals_layered_property(self, data):
        loop = FusedWordLoop(self.KERNELS())
        assert loop.run(data) == loop.run_layered(data)

    def test_checksum_observes_pre_encryption_data(self):
        """Kernel order matters and is preserved: the checksum placed
        before the XOR sees plaintext."""
        data = bytes(range(64))
        loop = FusedWordLoop([checksum_kernel(), xor_kernel(1)])
        _, obs = loop.run(data)
        assert obs["checksum"] == internet_checksum(data)

    def test_fused_cost_cheaper_than_layered(self):
        loop = FusedWordLoop(self.KERNELS())
        assert (
            loop.fused_cost.reads_per_word
            < loop.layered_cost.reads_per_word
        )

    def test_fused_cost_single_stream_read(self):
        """However many kernels, the fused loop reads the stream once."""
        loop = FusedWordLoop(self.KERNELS())
        assert loop.fused_cost.reads_per_word == 1.0


class TestKernelOrderings:
    """Satellite regression: fused and layered engineerings must agree
    for *every* kernel ordering — composition order is semantics (the
    checksum before vs after encryption observes different data), and
    both engineerings must realize the same semantics bit for bit."""

    FACTORIES = {
        "copy": copy_kernel,
        "checksum": checksum_kernel,
        "xor": lambda: xor_kernel(0xA5A5A5A5),
        "byteswap": byteswap_kernel,
    }

    LENGTHS = [0, 1, 3, 4, 13, 64, 257]

    @pytest.mark.parametrize(
        "ordering",
        list(itertools.permutations(FACTORIES)),
        ids=lambda names: "-".join(names),
    )
    def test_fused_equals_layered_every_ordering(self, ordering):
        for n in self.LENGTHS:
            data = bytes((11 * i + n) % 256 for i in range(n))
            loop = FusedWordLoop(
                [self.FACTORIES[name]() for name in ordering]
            )
            assert loop.run(data) == loop.run_layered(data)

    def test_checksum_before_xor_observes_plaintext(self):
        data = bytes(range(64))
        loop = FusedWordLoop([checksum_kernel(), xor_kernel(0xA5A5A5A5)])
        _, obs = loop.run(data)
        assert obs["checksum"] == internet_checksum(data)

    def test_xor_before_checksum_observes_ciphertext(self):
        data = bytes(range(64))  # word-aligned: the XOR is byte-exact
        ciphertext, _ = FusedWordLoop([xor_kernel(0xA5A5A5A5)]).run(data)
        assert ciphertext != data
        loop = FusedWordLoop([xor_kernel(0xA5A5A5A5), checksum_kernel()])
        _, obs = loop.run(data)
        assert obs["checksum"] == internet_checksum(ciphertext)
        # And the layered engineering observes the same ciphertext sum.
        _, layered_obs = loop.run_layered(data)
        assert layered_obs == obs

    def test_batch_finalize_matches_scalar_finalize(self):
        kernel = checksum_kernel()
        payloads = [b"", b"a", bytes(range(7)), bytes(range(16)), b"xy" * 33]
        width = max((len(p) + 3) // 4 for p in payloads)
        rows, lengths = [], []
        for p in payloads:
            padded, _, _ = pack_native(p + bytes(4 * width - len(p)))
            rows.append(padded)
            lengths.append(len(p))
        values = kernel.batch_finalize(np.stack(rows), np.array(lengths))
        for i, p in enumerate(payloads):
            words, length, _ = pack_native(p)
            # Zero padding cannot perturb a one's-complement sum, so the
            # batch value over the padded row equals the scalar value.
            assert int(values[i]) == kernel.finalize(words, length)
            assert int(values[i]) == internet_checksum(p)
