"""Word-level kernels: *functional* single-pass fusion.

The executors in :mod:`repro.ilp.executor` fuse the *cost model* of a
stage group; this module fuses the *computation itself*.  A
:class:`WordKernel` expresses one manipulation as a per-word transform
over a 32-bit word array plus running state; :class:`FusedWordLoop`
composes several kernels and applies them in **one traversal of the
data**, exactly the "integrated processing loop" of §6 — each word is
loaded once, passed through every kernel while live, and stored once.

This makes the ILP claim checkable end to end in this reproduction:

* functionally — the fused loop's output equals running the kernels'
  whole-buffer reference implementations one after another (a property
  test in the suite);
* mechanically — the fused loop performs one array read and one array
  write regardless of how many kernels are composed, visible in both the
  modelled cost and (via numpy) wall-clock benchmarks.

Kernels operate on the payload's *native* byte image: a word array is
``np.frombuffer(payload, uint32)``, so packing an aligned payload is a
zero-copy view and unpacking is one ``tobytes``.  Only the presentation
conversion reorders bytes.  The other kernels are byte-order neutral, or
are made so once when they are built:

* the Internet checksum sums native words and swaps the folded 16-bit
  result (one's-complement sums commute with a byte swap, RFC 1071
  §2(B));
* the XOR cipher uses its big-endian key's native image, swapped once
  when the kernel is built;
* coverage masks and pad lanes are built as native images, once per
  (policy, width).

Input shorter than a word multiple is zero-padded (the one pack that
copies), and the true byte length is restored at the end; checksum
kernels mask the pad lanes the way RFC 1071 pads an odd byte.  On a
big-endian host the native image *is* the big-endian one and every swap
above is skipped.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.errors import StageError
from repro.machine.accounting import DATAPATH
from repro.machine.costs import CostVector

Array = np.ndarray

_LITTLE_ENDIAN = sys.byteorder == "little"


def _as_byte_view(data) -> memoryview:
    """A flat uint8 memoryview over any bytes-like object (no copy)."""
    mv = data if isinstance(data, memoryview) else memoryview(data)
    if mv.format != "B" or mv.ndim != 1:
        mv = mv.cast("B")
    return mv


def pack_native(data) -> tuple[Array, int, bool]:
    """Native word view of a payload: ``(words, length, owned)``.

    An aligned payload is viewed in place (``owned`` False: the array
    aliases the caller's storage and must not be written).  A payload
    with a partial final word is copied once into a zero-padded buffer
    the caller then owns; that copy is recorded as ``pack-pad``.
    """
    mv = data if type(data) is bytes else _as_byte_view(data)
    length = len(mv)
    pad = (-length) % 4
    if not pad:
        return np.frombuffer(mv, dtype=np.uint32), length, False
    padded = bytearray(length + pad)
    memoryview(padded)[:length] = mv
    DATAPATH.record_copy(length, label="pack-pad")
    return np.frombuffer(padded, dtype=np.uint32), length, True


def words_to_bytes(words: Array, length: int) -> bytes:
    """Unpack a native word array back to its first ``length`` bytes:
    one ``tobytes`` of the byte image, recorded as ``unpack-words``."""
    DATAPATH.record_copy(length, label="unpack-words")
    return np.ascontiguousarray(words).view(np.uint8)[:length].tobytes()


def gather_words(chain: BufferChain) -> tuple[Array, int]:
    """Pack a :class:`BufferChain` into native words in **one pass**.

    The scatter-gather analogue of :func:`pack_native`: the segments
    (plus a zero pad to the word boundary) are joined straight into one
    writable buffer — the chain is never linearized into an intermediate
    ``bytes`` first, so a fragmented ADU costs one materialization, and
    the caller owns the result (kernels may transform it in place).
    """
    length = len(chain)
    pieces = chain.memoryviews()
    pad = (-length) % 4
    if pad:
        pieces.append(bytes(pad))
    buf = bytearray().join(pieces)
    DATAPATH.record_copy(length, label="gather-words")
    return np.frombuffer(buf, dtype=np.uint32), length


def _native_word(value: int) -> int:
    """The native word holding the 4 big-endian bytes of ``value``."""
    return int.from_bytes((value & 0xFFFFFFFF).to_bytes(4, "big"), sys.byteorder)


def _lane_mask(lanes) -> int:
    """Native word value with 0xFF in the given byte lanes (0..3)."""
    image = bytearray(4)
    for lane in lanes:
        image[lane] = 0xFF
    return int.from_bytes(image, sys.byteorder)


#: PAD_LANES[r]: native mask of the pad bytes of a final word holding
#: ``r`` live bytes (bytes r..3 of the word's image).  PAD_LANES[0] is 0.
PAD_LANES = np.array(
    [0] + [_lane_mask(range(live, 4)) for live in (1, 2, 3)], dtype=np.uint64
)
_PAD_LANES = [int(mask) for mask in PAD_LANES]


def _fold(total: int) -> int:
    """One's-complement fold of a non-negative word sum into the 16-bit
    checksum, in closed form.

    Adding the carries back in (RFC 1071's end-around fold) keeps the
    sum's residue modulo 0xFFFF, because 2**16 is 1 modulo 0xFFFF, and
    leaves a positive sum in 1..0xFFFF.  Its complement, 0xFFFF minus
    that, is then the residue of ``-total`` (0..0xFFFE).  Only a zero
    sum folds to 0, whose complement is 0xFFFF.
    """
    return -total % 0xFFFF if total else 0xFFFF


#: ``total * _NATIVE_SCALE % 0xFFFF`` is :func:`_fold_native`'s closed
#: form.  On a little-endian host each 16-bit lane of a native word holds
#: a byte-swapped network-order value; a one's-complement sum commutes
#: with the swap (RFC 1071 §2(B)), so the checksum is swapped once, and
#: swapping the bytes of a 16-bit value below 0xFFFF multiplies it by
#: 256 modulo 0xFFFF.
_NATIVE_SCALE = -256 if _LITTLE_ENDIAN else -1


def _fold_native(total: int) -> int:
    """:func:`_fold` of a sum of native words (see :data:`_NATIVE_SCALE`)."""
    return total * _NATIVE_SCALE % 0xFFFF if total else 0xFFFF


def checksum_chain(chain: BufferChain) -> int:
    """RFC 1071 Internet checksum straight off a chain — zero-copy.

    One vectorized read pass per segment, no gather buffer.  The sum is
    composed across arbitrary (odd-length) segment boundaries by
    weighting each byte by the parity of its *global* offset: even-offset
    bytes form the high byte of their 16-bit word, odd-offset bytes the
    low byte.  Matches ``internet_checksum(chain.linearize())`` exactly,
    at the cost of a read pass instead of a copy.
    """
    total = 0
    offset = 0
    for mv in chain.memoryviews():
        arr = np.frombuffer(mv, dtype=np.uint8).astype(np.uint64)
        if offset % 2 == 0:
            high, low = arr[0::2], arr[1::2]
        else:
            low, high = arr[0::2], arr[1::2]
        total += (int(high.sum()) << 8) + int(low.sum())
        offset += len(arr)
    DATAPATH.record_read_pass(offset)
    return _fold(total)


@dataclass
class WordKernel:
    """One manipulation expressed as a vectorized word transform.

    Attributes:
        name: identifier for reports.
        cost: declared per-word cost (same vocabulary as stages).
        transform: maps the live word array (the payload's native byte
            image, see the module docstring) to its output array (pure —
            must not mutate the input).  Observer kernels return the
            input array unchanged.
        inplace: optional in-place form of ``transform``: may overwrite
            its argument and returns the output (usually that same
            array).  The compiled executors call it on arrays they own —
            a padded pack, a gather buffer, an earlier transform's
            output — so a loop allocates at most one output array.
        finalize: optional; called with (word array, byte length) to
            produce an observation (e.g. a checksum value) of the data
            the kernel sees, before its transform.
        batch_finalize: optional vectorized form of ``finalize`` for the
            batched executor: called with a 2-D (adu, word) array and a
            per-row byte-length array, returns a list of one observation
            (a Python int) per row.
            Kernels without it fall back to per-row ``finalize`` calls.
        preserves_data: True when ``transform`` is the identity (observer
            and pure-move kernels).  Groups in which every kernel
            preserves data can run over a :class:`BufferChain` without
            materializing it at all.
        chain_finalize: optional zero-copy form of ``finalize`` operating
            directly on a :class:`BufferChain` (one read pass over the
            segments, no gather).  Only meaningful alongside
            ``preserves_data``.
        chain_transform: optional scatter-gather form of ``transform``:
            maps a :class:`BufferChain` to a *new* chain with the same
            segment geometry, without linearizing (e.g.
            :func:`xor_chain`).  Lets a transforming kernel stay on the
            chain path, so a fragmented ADU is encrypted segment by
            segment and the fragmentation windows survive the transform.
            The caller owns the returned chain.
        coverage_limit: highest byte offset the finalizer can read, or
            None when it needs the whole payload.  A plan whose kernels
            all preserve data *and* all declare a limit lets the batch
            executor truncate its gather to the limit — a
            ``headers_only`` integrity policy drops the full-payload
            read pass entirely.
        read_pass: True when the finalizer's read is charged by the
            compiled executor: as one read pass when nothing else in its
            loop touches the data (a zero-copy pack, no transform), and
            as part of the loop's copy otherwise.  Kernels that record
            their own reads (the coverage checksums) leave it False.
    """

    name: str
    cost: CostVector
    transform: Callable[[Array], Array]
    inplace: Callable[[Array], Array] | None = None
    finalize: Callable[[Array, int], int] | None = None
    batch_finalize: Callable[[Array, Array], list[int]] | None = None
    preserves_data: bool = False
    chain_finalize: Callable[[BufferChain], int] | None = None
    chain_transform: Callable[[BufferChain], BufferChain] | None = None
    coverage_limit: int | None = None
    read_pass: bool = False


def copy_kernel() -> WordKernel:
    """The identity move: load and store every word."""
    return WordKernel(
        name="copy",
        cost=CostVector(reads_per_word=1.0, writes_per_word=1.0),
        transform=lambda words: words,
        preserves_data=True,
    )


def byteswap_kernel() -> WordKernel:
    """Endianness conversion — the core of an XDR-style transform."""
    return WordKernel(
        name="byteswap",
        cost=CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=4.0),
        transform=lambda words: words.byteswap(),
        inplace=lambda words: words.byteswap(inplace=True),
    )


def xor_chain(chain: BufferChain, key: int) -> BufferChain:
    """Word-wide XOR streamed over a chain — scatter-gather in and out.

    The chain analogue of :func:`xor_kernel`'s transform: each segment is
    XORed against the big-endian key bytes phased by the segment's
    *global* offset (byte ``i`` of the stream meets key byte ``i % 4``),
    so arbitrary — odd-length, word-straddling — segment boundaries
    produce exactly the bytes of the word path's pad/XOR/truncate.  The
    output is a fresh chain with the same segment geometry: fragmentation
    windows taken over the input survive the transform, and the input's
    references are untouched (the caller owns the result).

    One materializing pass (the cipher must write its output somewhere);
    recorded on the datapath counters as ``xor-chain``.
    """
    key_bytes = np.frombuffer((key & 0xFFFFFFFF).to_bytes(4, "big"), dtype=np.uint8)
    out = BufferChain()
    offset = 0
    for mv in chain.memoryviews():
        n = len(mv)
        if n == 0:
            continue
        data = np.frombuffer(mv, dtype=np.uint8)
        stream = key_bytes[np.arange(offset, offset + n) % 4]
        out.append(Segment.wrap((data ^ stream).tobytes(), label="xor-chain"))
        offset += n
    DATAPATH.record_copy(offset, label="xor-chain")
    return out


def xor_kernel(key: int) -> WordKernel:
    """Word-wide XOR encryption (self-inverse).

    ``key`` is a big-endian word: byte ``i`` of every word meets key
    byte ``i``.  Its native image is swapped once, here.
    """
    key_word = np.uint32(_native_word(key))
    return WordKernel(
        name=f"xor-{key & 0xFFFFFFFF:#x}",
        cost=CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=1.0),
        transform=lambda words: words ^ key_word,
        inplace=lambda words: np.bitwise_xor(words, key_word, out=words),
        chain_transform=lambda chain: xor_chain(chain, key),
    )


def coverage_checksum_chain(chain: BufferChain, policy) -> int:
    """Covered RFC 1071 checksum straight off a chain — zero-copy.

    The selective form of :func:`checksum_chain`: only the bytes inside
    the policy's covered spans are folded (one vectorized slice per
    span-segment intersection), composed across segment boundaries by
    the parity of each byte's *global* offset.  Equals
    ``internet_checksum`` of the linearized chain with every uncovered
    byte zeroed.  The read pass charged to the datapath counters is the
    covered byte count — uncovered bytes are never read.
    """
    from repro.machine.accounting import integrity_counters

    spans = policy.effective_spans
    total = 0
    offset = 0
    covered = 0
    for mv in chain.memoryviews():
        n = len(mv)
        end = offset + n
        arr: Array | None = None
        for lo, hi in spans:
            start = max(lo, offset)
            stop = min(hi, end)
            if stop <= start:
                continue
            if arr is None:
                arr = np.frombuffer(mv, dtype=np.uint8)
            part = arr[start - offset : stop - offset].astype(np.uint64)
            if start % 2 == 0:
                high, low = part[0::2], part[1::2]
            else:
                low, high = part[0::2], part[1::2]
            total += (int(high.sum()) << 8) + int(low.sum())
            covered += stop - start
        offset = end
    integrity_counters().record_fold(covered, offset - covered)
    DATAPATH.record_read_pass(covered)
    return _fold(total)


#: Widest row, in words, whose covered checksum is folded with Python
#: integers (:func:`_span_fold`) instead of numpy.
_SCALAR_FOLD_WORDS = 64


def _span_fold(image, spans, length: int) -> tuple[int, int]:
    """Covered RFC 1071 checksum of a short byte image, and the number
    of covered bytes, read span by span.

    ``int.from_bytes`` reads a span as one big-endian number.  Because
    ``2**16 % 0xFFFF == 1``, that number is congruent modulo 0xFFFF to
    the span's sum of 16-bit network-order words — shifted by one byte
    when the span ends at an odd offset, where its last byte is the high
    byte of a word.  The sum is zero exactly when every covered byte is.
    """
    total = 0
    covered = 0
    for lo, hi in spans:
        if lo >= length:
            break
        hi = min(hi, length)
        value = int.from_bytes(image[lo:hi], "big")
        total += value << 8 if hi % 2 else value
        covered += hi - lo
    folded = total % 0xFFFF
    if not folded and total:
        folded = 0xFFFF
    return (~folded) & 0xFFFF, covered


def _coverage_checksum_kernel(policy) -> WordKernel:
    """RFC 1071 checksum restricted to a policy's covered spans.

    The masked-coverage identity makes this cheap: zero bytes contribute
    nothing to a one's-complement sum, so the covered checksum equals
    the full checksum of the data with uncovered bytes zeroed — and the
    fold can therefore *skip* the uncovered words instead of zeroing
    them.  The compiled (policy, width) index/mask arrays come from
    :func:`repro.integrity.coverage_masks` (native lane images);
    the fancy-indexed gather ``words[:, indices] & masks`` touches only
    covered columns.

    Pad handling mirrors :func:`checksum_kernel`: a covered span may
    run past the row's true length into the final partial word, whose
    pad lanes can hold upstream-transform pollution — their current
    contribution is subtracted, which also cancels pack-time zeros.
    """
    from repro.integrity import coverage_masks
    from repro.machine.accounting import integrity_counters

    spans = policy.effective_spans

    def finalize(words: Array, length: int) -> int:
        width = len(words)
        if width <= _SCALAR_FOLD_WORDS:
            # A short row (a covered head): Python integers beat numpy's
            # per-call overhead, and the spans are read straight off the
            # byte image, so pad lanes are never read at all.
            checksum, covered = _span_fold(memoryview(words).cast("B"), spans, length)
            integrity_counters().record_fold(covered, length - covered)
            DATAPATH.record_read_pass(covered)
            return checksum
        indices, masks, full = coverage_masks(policy, width)
        if indices.size:
            total = int((words[indices].astype(np.uint64) & masks).sum())
        else:
            total = 0
        rem = length % 4
        if rem and width:
            lane = int(full[width - 1])
            if lane:
                total -= int(words[width - 1]) & lane & _PAD_LANES[rem]
        covered = policy.covered_bytes(length)
        integrity_counters().record_fold(covered, length - covered)
        DATAPATH.record_read_pass(covered)
        return _fold_native(total)

    def batch_finalize(words: Array, lengths: Array) -> list[int]:
        n, width = words.shape
        indices, masks, full = coverage_masks(policy, width)
        if indices.size:
            totals = (words[:, indices].astype(np.uint64) & masks).sum(axis=1)
        else:
            totals = np.zeros(n, dtype=np.uint64)
        rem = lengths % 4
        partial = np.nonzero(rem)[0]
        if partial.size:
            nwords = np.maximum((lengths + 3) // 4, 1)
            last_col = nwords[partial] - 1
            lane = full[last_col].astype(np.uint64)
            last = words[partial, last_col].astype(np.uint64)
            totals[partial] -= last & lane & PAD_LANES[rem[partial]]
        covered = np.zeros(n, dtype=np.int64)
        for lo, hi in policy.effective_spans:
            covered += np.minimum(lengths, hi) - np.minimum(lengths, lo)
        covered_total = int(covered.sum())
        integrity_counters().record_fold(
            covered_total, int(lengths.sum()) - covered_total
        )
        DATAPATH.record_read_pass(covered_total)
        scale = _NATIVE_SCALE  # _fold_native, inline per row
        return [t * scale % 0xFFFF if t else 0xFFFF for t in totals.tolist()]

    return WordKernel(
        name="checksum",
        cost=CostVector(reads_per_word=1.0, alu_per_word=2.0),
        transform=lambda words: words,
        finalize=finalize,
        batch_finalize=batch_finalize,
        preserves_data=True,
        chain_finalize=lambda chain: coverage_checksum_chain(chain, policy),
        coverage_limit=policy.coverage_limit,
    )


def checksum_kernel(coverage=None) -> WordKernel:
    """RFC 1071 checksum as an observer kernel.

    The finalizer folds the 32-bit word sum into the 16-bit
    one's-complement form.  The sum is taken over exactly the first
    ``length`` bytes: the final partial word's pad bytes are masked out,
    because an earlier *transforming* kernel in the same fused loop
    (e.g. encrypt) may have written into the padding — the wire carries
    only the true bytes, so the receiver's recomputation (which packs
    the truncated payload with zero padding) must see the same sum.

    With ``coverage`` (an :class:`~repro.integrity.IntegrityPolicy`) the
    fold is restricted to the policy's covered spans — see
    :func:`_coverage_checksum_kernel`.  Explicit policies (``full``
    included) also charge their covered bytes to the integrity counters
    and the datapath read-pass ledger themselves; the default kernel's
    read is charged by the compiled executor (``read_pass``).
    """
    if coverage is not None:
        return _coverage_checksum_kernel(coverage)

    def finalize(words: Array, length: int) -> int:
        total = int(np.add.reduce(words, dtype=np.uint64))
        rem = length % 4
        if rem and len(words):
            total -= int(words[-1]) & _PAD_LANES[rem]
        # _fold_native, inline.
        return total * _NATIVE_SCALE % 0xFFFF if total else 0xFFFF

    def batch_finalize(words: Array, lengths: Array) -> list[int]:
        totals = np.add.reduce(words, axis=1, dtype=np.uint64)
        rem = lengths % 4
        partial = rem.nonzero()[0]
        if partial.size:
            nwords = np.maximum((lengths + 3) // 4, 1)
            last = words[partial, nwords[partial] - 1].astype(np.uint64)
            totals[partial] -= last & PAD_LANES[rem[partial]]
        scale = _NATIVE_SCALE  # _fold_native, inline per row
        return [t * scale % 0xFFFF if t else 0xFFFF for t in totals.tolist()]

    return WordKernel(
        name="checksum",
        cost=CostVector(reads_per_word=1.0, alu_per_word=2.0),
        transform=lambda words: words,
        finalize=finalize,
        batch_finalize=batch_finalize,
        preserves_data=True,
        chain_finalize=checksum_chain,
        read_pass=True,
    )


class FusedWordLoop:
    """Several kernels executed in one pass over the data.

    The composition loads the word array once, threads it through every
    kernel's transform (values stay "in registers" — intermediate arrays
    are produced by vector ops, never round-tripped through bytes), and
    stores once.  Observations (checksums) are collected per kernel.
    """

    def __init__(self, kernels: list[WordKernel]):
        if not kernels:
            raise StageError("a fused loop needs at least one kernel")
        self.kernels = list(kernels)

    @property
    def fused_cost(self) -> CostVector:
        """The loop's per-word cost: first kernel full price, later
        kernels' loads satisfied from registers (same algebra as
        :func:`repro.ilp.fusion.fused_group_cost`)."""
        total = self.kernels[0].cost
        for kernel in self.kernels[1:]:
            total = kernel.cost.fuse_after(total)
        return total

    def run(self, data: bytes) -> tuple[bytes, dict[str, int]]:
        """One integrated pass; returns (output bytes, observations)."""
        live, length, _ = pack_native(data)
        observations: dict[str, int] = {}
        for kernel in self.kernels:
            if kernel.finalize is not None:
                observations[kernel.name] = kernel.finalize(live, length)
            live = kernel.transform(live)
        return words_to_bytes(live, length), observations

    def run_layered(self, data: bytes) -> tuple[bytes, dict[str, int]]:
        """Reference: one full memory round trip *per kernel*.

        The data is padded to words once at entry (as any word-loop
        implementation would), then each kernel makes its own complete
        pass, writing its result back to a byte buffer and re-reading it
        — the layered engineering.  Functionally identical to
        :meth:`run`; used by equivalence tests and by wall-clock
        benchmarks as the unfused baseline.
        """
        words, length, _ = pack_native(data)
        observations: dict[str, int] = {}
        for kernel in self.kernels:
            if kernel.finalize is not None:
                observations[kernel.name] = kernel.finalize(words, length)
            # The intermediate result round-trips through memory: store
            # the padded buffer, load it again for the next pass.
            buffered = kernel.transform(words).tobytes()
            words = np.frombuffer(buffered, dtype=np.uint32).copy()
        return words_to_bytes(words, length), observations

    @property
    def layered_cost(self) -> CostVector:
        """Per-word cost of the layered reference (component-wise sum)."""
        total = self.kernels[0].cost
        for kernel in self.kernels[1:]:
            total = total + kernel.cost
        return total
