"""Encryption stages.

Two deliberately simple (non-cryptographic!) ciphers with very different
*architectural* properties:

* :class:`XorStreamCipher` — position-keyed XOR keystream.  Any unit can
  be processed out of order given its stream offset, so it composes with
  ALF and fuses freely (the paper: checksums and "many encryption
  schemes" can be synchronized per packet).
* :class:`ChainedBlockCipher` — CBC-style chaining over 4-byte blocks.
  Each block depends on the previous ciphertext block, so decryption of a
  unit *requires in-order data* — the chaining the paper notes is "often
  used to guard against malicious reordering", and a concrete ordering
  constraint the ILP engine must respect.

Both are real, invertible transformations used by the functional tests;
their modelled costs are per-word XOR/rotate budgets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import StageError
from repro.machine.costs import CostVector
from repro.stages.base import Facts, Stage

XOR_STREAM_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=3.0)
CHAINED_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=6.0)
WORD_XOR_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=1.0)


@dataclass
class SecureCounters:
    """Process-wide ledger for the §6 secure fast path.

    Distinguishes *how* each cipher pass ran — the architectural
    question — rather than what it computed:

    * ``stage_passes``/``stage_bytes`` — interpreted
      :meth:`WordXorStage.apply` calls (the layered path: its own
      pack/XOR/unpack round trip);
    * ``fused_passes`` — XOR transforms executed inside a compiled
      integrated loop (one per :meth:`CompiledPlan.run` call, one per
      *batch* on the batched path — the dispatch amortization is the
      point);
    * ``chain_passes``/``chain_bytes`` — streaming
      :func:`~repro.ilp.kernels.xor_chain` passes over scatter-gather
      chains (no linearize, no gather).
    """

    stage_passes: int = 0
    stage_bytes: int = 0
    fused_passes: int = 0
    chain_passes: int = 0
    chain_bytes: int = 0

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        self.stage_passes = 0
        self.stage_bytes = 0
        self.fused_passes = 0
        self.chain_passes = 0
        self.chain_bytes = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict form for the CLI and benchmark JSON records."""
        return {
            "stage_passes": self.stage_passes,
            "stage_bytes": self.stage_bytes,
            "fused_passes": self.fused_passes,
            "chain_passes": self.chain_passes,
            "chain_bytes": self.chain_bytes,
        }


_COUNTERS = SecureCounters()


def secure_counters() -> SecureCounters:
    """The process-wide secure-path counters (``repro stats``)."""
    return _COUNTERS


def _keystream(key: int, offset: int, length: int) -> np.ndarray:
    """Deterministic keystream bytes for [offset, offset+length).

    A splitmix-style mix of the key and the byte position; position
    addressing is what makes out-of-order processing possible.
    """
    positions = np.arange(offset, offset + length, dtype=np.uint64)
    x = positions + np.uint64(key * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x & np.uint64(0xFF)).astype(np.uint8)


class XorStreamCipher:
    """Position-addressable XOR stream cipher (self-inverse)."""

    def __init__(self, key: int):
        self.key = key

    def process(self, data: bytes, stream_offset: int = 0) -> bytes:
        """Encrypt or decrypt ``data`` located at ``stream_offset``."""
        if stream_offset < 0:
            raise StageError("stream_offset must be >= 0")
        if not data:
            return b""
        stream = _keystream(self.key, stream_offset, len(data))
        return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()


class ChainedBlockCipher:
    """Toy CBC over 4-byte blocks: c[i] = mix(p[i] ^ c[i-1]).

    ``mix`` is a byte rotation plus key XOR so the cipher is invertible.
    The chaining dependency is the point: block *i* cannot be decrypted
    without ciphertext block *i-1*.
    """

    BLOCK = 4

    def __init__(self, key: int, iv: bytes = b"\x00\x00\x00\x00"):
        if len(iv) != self.BLOCK:
            raise StageError(f"IV must be {self.BLOCK} bytes")
        self.key = key & 0xFFFFFFFF
        self.iv = iv

    def _mix(self, word: int) -> int:
        rotated = ((word << 8) | (word >> 24)) & 0xFFFFFFFF
        return rotated ^ self.key

    def _unmix(self, word: int) -> int:
        unxored = word ^ self.key
        return ((unxored >> 8) | (unxored << 24)) & 0xFFFFFFFF

    def encrypt(self, data: bytes) -> bytes:
        if len(data) % self.BLOCK:
            raise StageError(
                f"chained cipher needs a multiple of {self.BLOCK} bytes, "
                f"got {len(data)}"
            )
        previous = int.from_bytes(self.iv, "big")
        out = bytearray()
        for start in range(0, len(data), self.BLOCK):
            plain = int.from_bytes(data[start : start + self.BLOCK], "big")
            cipher = self._mix(plain ^ previous)
            out += cipher.to_bytes(self.BLOCK, "big")
            previous = cipher
        return bytes(out)

    def decrypt(self, data: bytes) -> bytes:
        if len(data) % self.BLOCK:
            raise StageError(
                f"chained cipher needs a multiple of {self.BLOCK} bytes, "
                f"got {len(data)}"
            )
        previous = int.from_bytes(self.iv, "big")
        out = bytearray()
        for start in range(0, len(data), self.BLOCK):
            cipher = int.from_bytes(data[start : start + self.BLOCK], "big")
            plain = self._unmix(cipher) ^ previous
            out += plain.to_bytes(self.BLOCK, "big")
            previous = cipher
        return bytes(out)


def cipher_token(encryption: "WordXorStage | int | None") -> str | None:
    """Wire identifier of a cipher configuration, for handshake checks.

    A *fingerprint* of the key — never the key itself — so both ends can
    detect a mismatched cipher config at establishment without putting
    secrets in INIT headers.  ``None`` means cleartext.  The host-level
    drain engine also keys plan-shape groups on it.
    """
    if encryption is None:
        return None
    key = encryption.key if isinstance(encryption, WordXorStage) else encryption
    digest = (((key & 0xFFFFFFFF) * 0x9E3779B1) + 0x7F4A7C15) & 0xFFFFFFFF
    return f"word-xor/{digest:08x}"


class WordXorStage(Stage):
    """Word-wide constant-key XOR (self-inverse).

    Unlike :class:`XorStreamCipher`'s position-keyed keystream, the key
    is one 32-bit word applied identically to every word, so the
    transform needs no per-unit stream offset and lowers directly to
    :func:`repro.ilp.kernels.xor_kernel` — the kernel-lowerable
    encryption of the compiled fast path.  Still non-cryptographic; the
    architectural point is that per-packet-synchronizable ciphers fuse
    freely (paper §6).
    """

    category = "security"
    cost = WORD_XOR_COST

    def __init__(self, key: int, name: str | None = None):
        self.key = key & 0xFFFFFFFF
        self.name = name or f"word-xor-{self.key:#010x}"

    def lowering_token(self) -> tuple[str, int]:
        """Behavioural identity for plan-cache keys (the key matters)."""
        return ("word-xor", self.key)

    @cached_property
    def _kernel(self):
        """The plain XOR kernel, built (and its key swapped) once."""
        from repro.ilp.kernels import xor_kernel

        return xor_kernel(self.key)

    def apply(self, data: bytes) -> bytes:
        from repro.ilp.kernels import pack_native, words_to_bytes

        counters = secure_counters()
        counters.stage_passes += 1
        counters.stage_bytes += len(data)
        words, length, _ = pack_native(data)
        return words_to_bytes(self._kernel.transform(words), length)

    def to_word_kernel(self):
        """Lower to a word kernel for the compiled fast path.

        The kernel carries every form: the vectorized word transform for
        fused/batched loops (pure, and in place on arrays the executor
        owns), both XORing the key's native image, and the streaming
        ``chain_transform`` (:func:`~repro.ilp.kernels.xor_chain`) that
        encrypts a scatter-gather chain segment-by-segment without
        linearizing.
        """
        kernel = self._kernel

        def transform(words):
            secure_counters().fused_passes += 1
            return kernel.transform(words)

        def inplace(words):
            secure_counters().fused_passes += 1
            return kernel.inplace(words)

        def chain_transform(chain):
            counters = secure_counters()
            counters.chain_passes += 1
            counters.chain_bytes += len(chain)
            return kernel.chain_transform(chain)

        return dataclasses.replace(
            kernel,
            name=self.name,
            cost=self.cost,
            transform=transform,
            inplace=inplace,
            chain_transform=chain_transform,
        )


class EncryptStage(Stage):
    """Sender-side encryption pass."""

    category = "security"

    def __init__(self, cipher: XorStreamCipher | ChainedBlockCipher, name: str = "encrypt"):
        self.name = name
        self.cipher = cipher
        self.stream_offset = 0
        if isinstance(cipher, XorStreamCipher):
            self.cost = XOR_STREAM_COST
        else:
            self.cost = CHAINED_COST

    def set_stream_offset(self, offset: int) -> None:
        """Position the stage within the cipher stream (stream mode)."""
        self.stream_offset = offset

    def apply(self, data: bytes) -> bytes:
        if isinstance(self.cipher, XorStreamCipher):
            return self.cipher.process(data, self.stream_offset)
        return self.cipher.encrypt(data)


class DecryptStage(Stage):
    """Receiver-side decryption pass.

    With a chained cipher this stage additionally requires the
    ``TU_IN_ORDER`` fact — the concrete ordering constraint of §6.
    """

    category = "security"
    provides = frozenset({Facts.DECRYPTED})

    def __init__(self, cipher: XorStreamCipher | ChainedBlockCipher, name: str = "decrypt"):
        self.name = name
        self.cipher = cipher
        self.stream_offset = 0
        if isinstance(cipher, XorStreamCipher):
            self.cost = XOR_STREAM_COST
            self.requires = frozenset({Facts.EXTRACTED, Facts.DEMUXED})
        else:
            self.cost = CHAINED_COST
            self.requires = frozenset(
                {Facts.EXTRACTED, Facts.DEMUXED, Facts.TU_IN_ORDER}
            )

    def set_stream_offset(self, offset: int) -> None:
        """Position the stage within the cipher stream (stream mode)."""
        self.stream_offset = offset

    def apply(self, data: bytes) -> bytes:
        if isinstance(self.cipher, XorStreamCipher):
            return self.cipher.process(data, self.stream_offset)
        return self.cipher.decrypt(data)
