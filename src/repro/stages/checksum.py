"""Error-detection functions and their stages.

Three real checksums are provided:

* :func:`internet_checksum` — the 16-bit one's-complement sum of RFC 1071,
  the TCP/IP family's checksum and the one the paper's Table 1 measures
  (one load plus an add and an add-with-carry per word, hence its declared
  cost of 1 read + 2 ALU ops);
* :func:`fletcher32` — the OSI-era position-dependent alternative;
* :func:`crc32` — the polynomial code used by link layers.

The numpy fast path in :func:`internet_checksum` keeps the *functional*
implementation quick for large simulated transfers; the declared cost
model is what the benchmarks price.
"""

from __future__ import annotations

import binascii
import dataclasses

import numpy as np

from repro.buffers.chain import BufferChain
from repro.errors import StageError
from repro.integrity import IntegrityPolicy, integrity_token
from repro.machine.costs import CHECKSUM_COST, CostVector
from repro.stages.base import Facts, PassthroughStage


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum of ``data``.

    Odd-length input is padded with a zero byte, per the RFC.
    """
    if len(data) % 2:
        data = data + b"\x00"
    words = np.frombuffer(data, dtype=">u2").astype(np.uint64)
    total = int(words.sum())
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum_chain(chain: BufferChain) -> int:
    """RFC 1071 checksum straight off a scatter-gather chain (zero-copy).

    Equals ``internet_checksum(chain.linearize())`` without the
    linearize; the segment-composable sum lives in
    :func:`repro.ilp.kernels.checksum_chain`.
    """
    from repro.ilp.kernels import checksum_chain

    return checksum_chain(chain)


def coverage_internet_checksum(data: bytes, policy: IntegrityPolicy) -> int:
    """RFC 1071 checksum restricted to a policy's covered spans.

    This is the *definitional* form: the covered checksum equals the
    full checksum of ``data`` with every uncovered byte zeroed (zero
    bytes contribute nothing to a one's-complement sum).  The compiled
    kernels compute the same value without reading the uncovered bytes;
    property tests pin them to this reference.
    """
    masked = bytearray(len(data))
    for lo, hi in policy.clipped(len(data)):
        masked[lo:hi] = data[lo:hi]
    return internet_checksum(bytes(masked))


def fletcher32(data: bytes) -> int:
    """Fletcher-32 checksum (position-dependent, catches reordering)."""
    if len(data) % 2:
        data = data + b"\x00"
    words = np.frombuffer(data, dtype=">u2").astype(np.uint64)
    sum1 = 0xFFFF
    sum2 = 0xFFFF
    # Fold in blocks so the running sums stay well inside 64 bits.
    block = 359
    for start in range(0, len(words), block):
        chunk = words[start : start + block]
        for w in chunk.tolist():
            sum1 += w
            sum2 += sum1
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    return (sum2 << 16) | sum1


def fletcher32_chain(chain: BufferChain) -> int:
    """Fletcher-32 straight off a scatter-gather chain (zero-copy).

    Equals ``fletcher32(chain.linearize())`` byte for byte: the 16-bit
    words are fed in global order (a word straddling a segment boundary
    carries its high byte across) and the running sums fold at the same
    global 359-word block boundaries the contiguous loop uses.
    """
    from repro.machine.accounting import DATAPATH

    sum1 = 0xFFFF
    sum2 = 0xFFFF
    block = 359
    count = 0  # words since the last fold
    high: int | None = None  # pending high byte of a straddling word
    length = 0
    for mv in chain.memoryviews():
        data = mv.tobytes()
        length += len(data)
        if high is not None:
            if not data:
                continue
            words = [(high << 8) | data[0]]
            rest = data[1:]
            high = None
        else:
            words = []
            rest = data
        if len(rest) % 2:
            high = rest[-1]
            rest = rest[:-1]
        if rest:
            words.extend(
                np.frombuffer(rest, dtype=">u2").astype(np.uint64).tolist()
            )
        for w in words:
            sum1 += int(w)
            sum2 += sum1
            count += 1
            if count == block:
                sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
                sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
                count = 0
    if high is not None:
        # Trailing odd byte: zero-padded low byte, then the block fold
        # the contiguous loop applies to its final partial chunk.
        sum1 += high << 8
        sum2 += sum1
        count += 1
    if count:
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    DATAPATH.record_read_pass(length)
    return (sum2 << 16) | sum1


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3 polynomial)."""
    return binascii.crc32(data) & 0xFFFFFFFF


def crc32_chain(chain: BufferChain) -> int:
    """CRC-32 straight off a scatter-gather chain (zero-copy).

    CRCs compose across segments by construction — feed each segment's
    window into the running remainder.
    """
    from repro.machine.accounting import DATAPATH

    crc = 0
    length = 0
    for mv in chain.memoryviews():
        crc = binascii.crc32(mv, crc)
        length += len(mv)
    DATAPATH.record_read_pass(length)
    return crc & 0xFFFFFFFF

# Declared per-word costs.  The Internet checksum's is the Table 1
# calibration vector; Fletcher needs one extra add; table-driven CRC pays
# a table load and xor/shift per byte (4 of each per word).
FLETCHER_COST = CostVector(reads_per_word=1.0, alu_per_word=3.0)
CRC32_COST = CostVector(reads_per_word=1.0 + 4.0, alu_per_word=8.0)

_ALGORITHMS = {
    "internet": (internet_checksum, CHECKSUM_COST),
    "fletcher32": (fletcher32, FLETCHER_COST),
    "crc32": (crc32, CRC32_COST),
}

_CHAIN_ALGORITHMS = {
    "internet": internet_checksum_chain,
    "fletcher32": fletcher32_chain,
    "crc32": crc32_chain,
}


class ChecksumComputeStage(PassthroughStage):
    """Compute a checksum over the data (sender side, or for comparison).

    The result is exposed as :attr:`last_checksum`.  Error detection may
    be fused with any neighbour — per the paper it is the one
    manipulation that can even join network extraction — so it requires
    only that the data exists.

    ``coverage`` restricts the checksum to an
    :class:`~repro.integrity.IntegrityPolicy`'s covered spans (internet
    algorithm only — the one's-complement sum is the only one of the
    three with a masked-coverage identity).  The policy fingerprint
    enters :meth:`lowering_token`, so plans compiled for different
    coverage never alias in the plan cache even though the stage name —
    the observation key the transports read — stays the same.
    """

    category = "transport"
    provides = frozenset()

    def __init__(
        self,
        algorithm: str = "internet",
        name: str | None = None,
        coverage: IntegrityPolicy | None = None,
    ):
        if algorithm not in _ALGORITHMS:
            known = ", ".join(sorted(_ALGORITHMS))
            raise StageError(f"unknown checksum {algorithm!r}; known: {known}")
        if coverage is not None and algorithm != "internet":
            raise StageError(
                f"coverage policies need the internet checksum, not {algorithm!r}"
            )
        function, cost = _ALGORITHMS[algorithm]
        super().__init__(name=name or f"checksum-{algorithm}", cost=cost)
        self.algorithm = algorithm
        self.coverage = coverage
        self._function = function
        self.last_checksum: int | None = None

    def lowering_token(self):
        """Plan-cache identity: algorithm plus coverage fingerprint."""
        return ("checksum", self.algorithm, integrity_token(self.coverage))

    def apply(self, data):
        if self.coverage is not None and not self.coverage.is_full:
            if isinstance(data, BufferChain):
                from repro.ilp.kernels import coverage_checksum_chain

                self.last_checksum = coverage_checksum_chain(data, self.coverage)
            else:
                self.last_checksum = coverage_internet_checksum(data, self.coverage)
            return data
        if isinstance(data, BufferChain):
            # Every algorithm has a segment-composable form, so verify
            # stays a zero-copy read pass — no linearize on any path.
            self.last_checksum = _CHAIN_ALGORITHMS[self.algorithm](data)
            return data
        self.last_checksum = self._function(data)
        return data

    def to_word_kernel(self):
        """Lower to a word kernel for the compiled fast path.

        Only the Internet checksum is a pure word-sum; Fletcher and CRC
        are byte-sequential and stay on the stage path.
        """
        if self.algorithm != "internet":
            return None
        from repro.ilp.kernels import checksum_kernel

        return dataclasses.replace(
            checksum_kernel(self.coverage), name=self.name, cost=self.cost
        )

    def reset(self) -> None:
        self.last_checksum = None


class ChecksumVerifyStage(ChecksumComputeStage):
    """Recompute and compare against an expected checksum (receiver side).

    Establishes the ``VERIFIED`` fact; raises :class:`StageError` on
    mismatch.  The expected value is set per-unit via :meth:`expect`.
    """

    provides = frozenset({Facts.VERIFIED})
    requires = frozenset({Facts.EXTRACTED})

    def __init__(
        self,
        algorithm: str = "internet",
        name: str | None = None,
        coverage: IntegrityPolicy | None = None,
    ):
        super().__init__(
            algorithm, name=name or f"verify-{algorithm}", coverage=coverage
        )
        self.expected: int | None = None
        self.failures = 0

    def expect(self, checksum: int) -> None:
        """Arm the stage with the transmitted checksum."""
        self.expected = checksum

    def to_word_kernel(self):
        # Verification aborts the pipeline on mismatch — a control action
        # the pure kernel form cannot express.  Compiled wire paths
        # compare the checksum *observation* instead (see
        # repro.transport.alf.receiver).
        return None

    def apply(self, data: bytes) -> bytes:
        super().apply(data)
        if self.expected is not None and self.last_checksum != self.expected:
            self.failures += 1
            raise StageError(
                f"{self.name}: checksum mismatch "
                f"(expected {self.expected:#x}, got {self.last_checksum:#x})"
            )
        return data

    def reset(self) -> None:
        super().reset()
        self.expected = None
