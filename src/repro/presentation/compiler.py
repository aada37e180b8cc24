"""Schema-compiled presentation codecs.

The interpreted codecs in :mod:`~repro.presentation.ber`,
:mod:`~repro.presentation.xdr` and :mod:`~repro.presentation.lwts` walk
the :class:`~repro.presentation.abstract.ASType` schema *per value*:
every ADU of steady-state traffic re-dispatches the same chain of
``isinstance`` checks, re-derives the same layout, and packs scalars one
``struct.pack`` call at a time.  That is exactly the "toolkit"
engineering the paper's §4 prices an order of magnitude above tuned
conversion — and presentation is the manipulation Table 1 says dominates
everything else.

This module moves the schema walk to compile time:

* :class:`CodecCompiler` walks a schema **once** per (schema, transfer
  syntax) pair and emits an immutable :class:`CompiledCodec` — a flat
  program of fixed-layout ops (fused scalar runs packed by a single
  ``struct.Struct``, vectorized numpy array ops, constant-length copies,
  length-prefixed scans) in place of recursive interpretation;
* fixed-layout schemas additionally expose their exact byte
  :attr:`~CompiledCodec.layout`, from which
  :func:`conversion_permutation` derives the byte shuffle between two
  transfer syntaxes of the same schema and :func:`pair_conversion`
  lowers it, once per codec pair, to a
  :class:`~repro.ilp.kernels.WordKernel` — so conversion fuses into the
  integrated loop next to checksum and encryption;
* variable-layout spans decode through a streaming cursor;
  :meth:`CompiledCodec.decode_chain` runs it straight over a
  :class:`~repro.buffers.chain.BufferChain` (one read pass, never
  ``linearize()``);
* :meth:`CompiledCodec.encode_batch` / :meth:`~CompiledCodec.decode_batch`
  amortize dispatch across ADUs the way
  :meth:`~repro.ilp.compiler.CompiledPlan.run_batch` does;
* :class:`CodecCache` is a thread-safe LRU keyed by
  ``(schema fingerprint, transfer syntax)`` with hit / miss / eviction
  counters mirroring :class:`~repro.ilp.compiler.PlanCache`, surfaced by
  ``repro stats``.

Compiled and interpreted codecs are byte-identical on valid values (a
property test drives randomized schemas through both).  On *invalid*
values the compiled encoders perform the same checks fused into the
packing pass (length, count, integer range) rather than a separate
recursive :func:`~repro.presentation.abstract.validate` walk, so they
raise the same :class:`~repro.errors.PresentationError` family but not
necessarily with the interpreter's message text.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.buffers.chain import BufferChain
from repro.errors import DecodeError, PresentationError
from repro.machine.accounting import AtomicCacheStats, DATAPATH
from repro.machine.costs import CostVector
from repro.presentation.abstract import (
    INT32_MAX,
    INT32_MIN,
    INT64_MAX,
    INT64_MIN,
    UINT32_MAX,
    ASType,
    ArrayOf,
    Boolean,
    Float64,
    Int32,
    Int64,
    OctetString,
    Path,
    Struct,
    UInt32,
    Utf8String,
)
from repro.presentation.base import TransferCodec
from repro.presentation.ber import (
    TAG_BOOLEAN,
    TAG_INTEGER,
    TAG_OCTET_STRING,
    TAG_REAL,
    TAG_SEQUENCE,
    TAG_UTF8_STRING,
    BerCodec,
    decode_integer_content,
    decode_real_content,
    encode_integer_content,
    encode_length,
    encode_real_content,
)
from repro.presentation.lwts import LwtsCodec
from repro.presentation.namespace import ElementExtent, SyntaxMap
from repro.presentation.xdr import XdrCodec

__all__ = [
    "CodecOp",
    "CompiledCodec",
    "CodecCompiler",
    "CodecCache",
    "CodecCacheStats",
    "PresentationCounters",
    "presentation_counters",
    "schema_fingerprint",
    "Conversion",
    "pair_conversion",
    "conversion_permutation",
    "shared_codec_cache",
]


# ---------------------------------------------------------------------------
# pass counters


@dataclass
class PresentationCounters:
    """Process-wide counters for the compiled presentation fast path.

    The cache has its own hit/miss counters; these count the *work*:
    how many ADUs ran through compiled encode/decode, how many decoded
    straight off a chain, and how many conversions executed fused inside
    an integrated loop instead of as a separate presentation pass.
    """

    compiled_encodes: int = 0
    compiled_decodes: int = 0
    chain_decodes: int = 0
    batch_adus_encoded: int = 0
    batch_adus_decoded: int = 0
    fused_conversions: int = 0
    bytes_encoded: int = 0
    bytes_decoded: int = 0

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        self.compiled_encodes = 0
        self.compiled_decodes = 0
        self.chain_decodes = 0
        self.batch_adus_encoded = 0
        self.batch_adus_decoded = 0
        self.fused_conversions = 0
        self.bytes_encoded = 0
        self.bytes_decoded = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict form for the CLI and benchmark JSON records."""
        return {
            "compiled_encodes": self.compiled_encodes,
            "compiled_decodes": self.compiled_decodes,
            "chain_decodes": self.chain_decodes,
            "batch_adus_encoded": self.batch_adus_encoded,
            "batch_adus_decoded": self.batch_adus_decoded,
            "fused_conversions": self.fused_conversions,
            "bytes_encoded": self.bytes_encoded,
            "bytes_decoded": self.bytes_decoded,
        }


_COUNTERS = PresentationCounters()


def presentation_counters() -> PresentationCounters:
    """The process-wide presentation counters (``repro stats``)."""
    return _COUNTERS


# ---------------------------------------------------------------------------
# schema fingerprint


def _structural(astype: ASType) -> tuple:
    if isinstance(astype, Boolean):
        return ("bool",)
    if isinstance(astype, Int32):
        return ("i32",)
    if isinstance(astype, UInt32):
        return ("u32",)
    if isinstance(astype, Int64):
        return ("i64",)
    if isinstance(astype, Float64):
        return ("f64",)
    if isinstance(astype, OctetString):
        return ("octets", astype.fixed_length)
    if isinstance(astype, Utf8String):
        return ("utf8",)
    if isinstance(astype, ArrayOf):
        return ("array", astype.fixed_count, _structural(astype.element))
    if isinstance(astype, Struct):
        return (
            "struct",
            tuple((f.name, _structural(f.type)) for f in astype.fields),
        )
    raise PresentationError(f"cannot fingerprint unknown abstract type {astype!r}")


@functools.lru_cache(maxsize=256)
def schema_fingerprint(astype: ASType) -> str:
    """Stable structural hash of a schema — the cache key's first half.

    Two schemas fingerprint equal iff they are structurally identical
    (same types, field names, fixed lengths/counts, in the same order),
    which is exactly when a compiled codec is interchangeable between
    them.  Stable across processes: built from the structure, not
    ``id()`` or ``hash()``.  Memoized by value (abstract types are
    frozen dataclasses whose equality includes the class), so a schema
    is hashed once, however many endpoints, caches and sessions ask.
    """
    canon = repr(_structural(astype)).encode("ascii")
    return hashlib.sha256(canon).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the flat op surface


@dataclass(frozen=True)
class CodecOp:
    """One op of a compiled codec's flat program (for introspection).

    Attributes:
        kind: ``scalar-run`` (one fused ``struct`` pack of adjacent
            fixed-width scalars), ``vector`` (numpy array op),
            ``copy`` (constant-length byte copy), ``pad`` (XDR zero
            padding), ``length-scan`` / ``count-scan`` (4-byte prefix
            then data-dependent body), or ``tlv`` (BER tag-length-value
            scan).
        size: encoded byte size when data-independent, else None.
        detail: human-readable specifics (struct format, dtype, tag).
    """

    kind: str
    size: int | None
    detail: str


def _coalesce_word_ops(ops: list[CodecOp]) -> tuple[CodecOp, ...]:
    """Merge adjacent single-scalar ``word`` ops into ``scalar-run`` ops."""
    out: list[CodecOp] = []
    for op in ops:
        if (
            op.kind in ("word", "scalar-run")
            and out
            and out[-1].kind in ("word", "scalar-run")
        ):
            prev = out.pop()
            out.append(
                CodecOp(
                    "scalar-run",
                    (prev.size or 0) + (op.size or 0),
                    prev.detail + op.detail,
                )
            )
        else:
            out.append(op)
    return tuple(
        CodecOp("scalar-run", op.size, op.detail) if op.kind == "word" else op
        for op in out
    )


# ---------------------------------------------------------------------------
# decode cursors


class ByteCursor:
    """Streaming reader over one contiguous bytes-like object."""

    __slots__ = ("_mv", "offset", "length")

    def __init__(self, data: bytes | bytearray | memoryview):
        mv = data if isinstance(data, memoryview) else memoryview(data)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        self._mv = mv
        self.offset = 0
        self.length = len(mv)

    @property
    def remaining(self) -> int:
        return self.length - self.offset

    def take(self, count: int, what: str = "value") -> memoryview:
        """The next ``count`` bytes as a zero-copy view; advances."""
        start = self.offset
        if count > self.length - start:
            raise DecodeError(
                f"truncated {what}: need {count} bytes at offset {start}, "
                f"have {self.length - start}"
            )
        self.offset = start + count
        return self._mv[start : start + count]

    def take_byte(self, what: str = "value") -> int:
        if self.offset >= self.length:
            raise DecodeError(
                f"truncated {what}: need 1 byte at offset {self.offset}, have 0"
            )
        value = self._mv[self.offset]
        self.offset += 1
        return value


class ChainCursor:
    """Streaming reader over a :class:`BufferChain` — never linearizes.

    ``take`` returns a zero-copy view while the requested span lies
    inside one segment (the common case: fixed runs are small, segments
    are MTU-sized) and gathers exactly the requested bytes across a
    boundary otherwise.  The whole decode is thus one forward pass over
    the chain with no intermediate materialization of the ADU.
    """

    __slots__ = ("_views", "_index", "_local", "offset", "length")

    def __init__(self, chain: BufferChain):
        self._views = [mv for mv in chain.memoryviews() if len(mv)]
        self._index = 0
        self._local = 0
        self.offset = 0
        self.length = sum(len(mv) for mv in self._views)

    @property
    def remaining(self) -> int:
        return self.length - self.offset

    def take(self, count: int, what: str = "value") -> memoryview:
        if count > self.length - self.offset:
            raise DecodeError(
                f"truncated {what}: need {count} bytes at offset {self.offset}, "
                f"have {self.length - self.offset}"
            )
        self.offset += count
        view = self._views[self._index] if self._index < len(self._views) else None
        if view is not None and self._local + count <= len(view):
            start = self._local
            self._local = start + count
            if self._local == len(view):
                self._index += 1
                self._local = 0
            return view[start : start + count]
        # Span crosses a segment boundary: gather exactly `count` bytes.
        out = bytearray(count)
        filled = 0
        while filled < count:
            view = self._views[self._index]
            n = min(count - filled, len(view) - self._local)
            out[filled : filled + n] = view[self._local : self._local + n]
            filled += n
            self._local += n
            if self._local == len(view):
                self._index += 1
                self._local = 0
        return memoryview(out)

    def take_byte(self, what: str = "value") -> int:
        return self.take(1, what)[0]


# ---------------------------------------------------------------------------
# compiled parts (internal): one per schema node, built once


class _Part:
    """Compiled form of one schema node.

    ``encode_into`` / ``decode`` always work.  Nodes whose encoding is a
    fixed sequence of struct-packable atoms additionally carry ``fmt``
    (a byte-orderless ``struct`` format), ``flatten`` / ``build``
    converters and ``pads`` (relative XDR zero-pad spans) so a parent
    Struct can fuse adjacent fields into one ``struct`` call.
    """

    __slots__ = (
        "fixed_size",
        "fmt",
        "flatten",
        "build",
        "pads",
        "encode_into",
        "decode",
        "packer",
        "ops",
    )

    def __init__(self) -> None:
        self.fixed_size: int | None = None
        self.fmt: str | None = None
        self.flatten: Callable[[Any, list], None] | None = None
        self.build: Callable[[Any], Any] | None = None
        self.pads: tuple[tuple[int, int], ...] = ()
        self.encode_into: Callable[[Any, bytearray], None] | None = None
        self.decode: Callable[[Any], Any] | None = None
        self.packer: struct.Struct | None = None
        self.ops: tuple[CodecOp, ...] = ()


def _check_pads(buf: memoryview, pads: tuple[tuple[int, int], ...]) -> None:
    for off, length in pads:
        if any(buf[off : off + length]):
            raise DecodeError("XDR padding must be zero")


def _finish_fmt_part(part: _Part, order: str) -> _Part:
    """Give a fmt-capable part standalone encode/decode closures."""
    packer = struct.Struct(order + part.fmt)
    size = packer.size
    flatten, build, pads = part.flatten, part.build, part.pads
    part.packer = packer
    part.fixed_size = size

    def encode_into(value: Any, out: bytearray) -> None:
        atoms: list = []
        flatten(value, atoms)
        out += packer.pack(*atoms)

    def decode(cur) -> Any:
        buf = cur.take(size, "fixed run")
        if pads:
            _check_pads(buf, pads)
        return build(iter(packer.unpack(buf)))

    part.encode_into = encode_into
    part.decode = decode
    return part


def _scalar_part(fmt: str, flatten, build, detail: str) -> _Part:
    part = _Part()
    part.fmt = fmt
    part.flatten = flatten
    part.build = build
    part.fixed_size = struct.calcsize("<" + fmt)
    part.ops = (CodecOp("word", part.fixed_size, detail),)
    return part


def _compile_bool() -> _Part:
    def flatten(value, out):
        out.append(1 if value else 0)

    def build(it):
        raw = next(it)
        if raw not in (0, 1):
            raise DecodeError(f"bool must be 0 or 1, got {raw}")
        return bool(raw)

    return _scalar_part("I", flatten, build, "bool:I")


def _int_part(fmt: str, low: int, high: int, detail: str) -> _Part:
    def flatten(value, out, low=low, high=high):
        if not isinstance(value, int):
            raise PresentationError(f"expected int, got {type(value).__name__}")
        if not low <= value <= high:
            raise PresentationError(f"{value} out of range [{low}, {high}]")
        out.append(value)

    def build(it):
        return next(it)

    return _scalar_part(fmt, flatten, build, detail)


def _compile_float() -> _Part:
    def flatten(value, out):
        out.append(float(value))

    def build(it):
        return next(it)

    return _scalar_part("d", flatten, build, "f64:d")


def _compile_fixed_octets(length: int, padded: bool) -> _Part:
    pad = (-length) % 4 if padded else 0

    def flatten(value, out, length=length):
        content = bytes(value)
        if len(content) != length:
            raise PresentationError(
                f"expected exactly {length} bytes, got {len(content)}"
            )
        out.append(content)

    def build(it):
        return next(it)

    part = _Part()
    part.fmt = f"{length}s" + (f"{pad}x" if pad else "")
    part.flatten = flatten
    part.build = build
    part.fixed_size = length + pad
    part.pads = ((length, pad),) if pad else ()
    ops = [CodecOp("copy", length, f"octets[{length}]")]
    if pad:
        ops.append(CodecOp("pad", pad, "xdr-pad"))
    part.ops = tuple(ops)
    return part


def _compile_var_bytes(order: str, padded: bool, utf8: bool) -> _Part:
    prefix = struct.Struct(order + "I")
    what = "string" if utf8 else "octets"

    def encode_into(value: Any, out: bytearray) -> None:
        content = value.encode("utf-8") if utf8 else bytes(value)
        length = len(content)
        out += prefix.pack(length)
        out += content
        if padded:
            out += bytes((-length) % 4)

    def decode(cur) -> Any:
        length = prefix.unpack(cur.take(4, f"{what} length"))[0]
        raw = bytes(cur.take(length, what))
        if padded:
            pad = (-length) % 4
            if pad and any(cur.take(pad, "padding")):
                raise DecodeError("XDR padding must be zero")
        if not utf8:
            return raw
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in string: {exc}") from exc

    part = _Part()
    part.encode_into = encode_into
    part.decode = decode
    part.ops = (
        CodecOp("length-scan", None, what + ("+pad" if padded else "")),
    )
    return part


#: numpy dtype letter per vectorizable scalar element type.
_VECTOR_DTYPES: dict[type, str] = {
    Boolean: "u4",
    Int32: "i4",
    UInt32: "u4",
    Int64: "i8",
    Float64: "f8",
}

_INT_RANGES: dict[type, tuple[int, int]] = {
    Int32: (INT32_MIN, INT32_MAX),
    UInt32: (0, UINT32_MAX),
    Int64: (INT64_MIN, INT64_MAX),
}


def _compile_vector_array(astype: ArrayOf, order: str) -> _Part:
    """ArrayOf over a fixed-width scalar: one numpy op for the whole array."""
    element = astype.element
    dtype = np.dtype(("<" if order == "<" else ">") + _VECTOR_DTYPES[type(element)])
    itemsize = dtype.itemsize
    fixed_count = astype.fixed_count
    prefix = struct.Struct(order + "I")
    is_bool = isinstance(element, Boolean)
    is_float = isinstance(element, Float64)
    int_range = _INT_RANGES.get(type(element))

    def encode_into(value: Any, out: bytearray) -> None:
        count = len(value)
        if fixed_count is not None:
            if count != fixed_count:
                raise PresentationError(
                    f"expected exactly {fixed_count} elements, got {count}"
                )
        else:
            out += prefix.pack(count)
        if not count:
            return
        if is_bool:
            arr = np.asarray(value)
            if arr.dtype != np.bool_:
                raise PresentationError("expected bool array elements")
        elif is_float:
            arr = np.asarray(value, dtype=np.float64)
        else:
            arr = np.asarray(value)
            if not np.issubdtype(arr.dtype, np.integer):
                raise PresentationError("expected int array elements")
            low, high = int_range
            if int(arr.min()) < low or int(arr.max()) > high:
                raise PresentationError(f"array element out of range [{low}, {high}]")
        out += arr.astype(dtype).tobytes()

    def decode(cur) -> Any:
        if fixed_count is not None:
            count = fixed_count
        else:
            count = prefix.unpack(cur.take(4, "array count"))[0]
        if not count:
            return []
        buf = cur.take(count * itemsize, "array body")
        arr = np.frombuffer(buf, dtype=dtype)
        if is_bool:
            if int(arr.max()) > 1:
                raise DecodeError("bool must be 0 or 1")
            return arr.astype(bool).tolist()
        return arr.tolist()

    part = _Part()
    part.encode_into = encode_into
    part.decode = decode
    if fixed_count is not None:
        part.fixed_size = fixed_count * itemsize
        part.ops = (
            CodecOp("vector", part.fixed_size, f"{fixed_count}x{dtype.str}"),
        )
    else:
        part.ops = (
            CodecOp("count-scan", None, "array"),
            CodecOp("vector", None, f"varx{dtype.str}"),
        )
    return part


def _compile_loop_array(astype: ArrayOf, order: str, padded: bool) -> _Part:
    """General ArrayOf: one compiled element program looped over elements."""
    elpart = _flat_compile(astype.element, order, padded)
    if elpart.fmt is not None and elpart.encode_into is None:
        _finish_fmt_part(elpart, order)
    fixed_count = astype.fixed_count
    prefix = struct.Struct(order + "I")
    el_encode, el_decode = elpart.encode_into, elpart.decode

    def encode_into(value: Any, out: bytearray) -> None:
        count = len(value)
        if fixed_count is not None:
            if count != fixed_count:
                raise PresentationError(
                    f"expected exactly {fixed_count} elements, got {count}"
                )
        else:
            out += prefix.pack(count)
        for element in value:
            el_encode(element, out)

    def decode(cur) -> Any:
        if fixed_count is not None:
            count = fixed_count
        else:
            count = prefix.unpack(cur.take(4, "array count"))[0]
        return [el_decode(cur) for _ in range(count)]

    part = _Part()
    part.encode_into = encode_into
    part.decode = decode
    if fixed_count is not None and elpart.fixed_size is not None:
        part.fixed_size = fixed_count * elpart.fixed_size
    head = () if fixed_count is not None else (CodecOp("count-scan", None, "array"),)
    part.ops = head + elpart.ops
    return part


def _compile_struct(astype: Struct, order: str, padded: bool) -> _Part:
    children = [
        (f.name, _flat_compile(f.type, order, padded)) for f in astype.fields
    ]
    part = _Part()

    if children and all(p.fmt is not None for _, p in children):
        # Entire struct is one fused scalar run: a single struct.Struct
        # packs/unpacks every field with one call.
        part.fmt = "".join(p.fmt for _, p in children)
        pads: list[tuple[int, int]] = []
        offset = 0
        for _, p in children:
            size = struct.calcsize("<" + p.fmt)
            pads.extend((offset + o, n) for o, n in p.pads)
            offset += size
        part.pads = tuple(pads)
        flatteners = [(name, p.flatten) for name, p in children]
        builders = [(name, p.build) for name, p in children]

        def flatten(value: Any, out: list) -> None:
            for name, flat in flatteners:
                flat(value[name], out)

        def build(it) -> dict:
            return {name: b(it) for name, b in builders}

        part.flatten = flatten
        part.build = build
        part.fixed_size = offset
        part.ops = _coalesce_word_ops(
            [op for _, p in children for op in p.ops]
        )
        return part

    # Mixed struct: fuse maximal runs of fmt-capable fields, interleave
    # the variable-layout fields between them.
    steps: list[tuple[Callable, Callable]] = []
    ops: list[CodecOp] = []
    run: list[tuple[str, _Part]] = []

    def flush_run() -> None:
        if not run:
            return
        fields = list(run)
        run.clear()
        packer = struct.Struct(order + "".join(p.fmt for _, p in fields))
        size = packer.size
        pads: list[tuple[int, int]] = []
        offset = 0
        for _, p in fields:
            child_size = struct.calcsize("<" + p.fmt)
            pads.extend((offset + o, n) for o, n in p.pads)
            offset += child_size
        pad_spans = tuple(pads)
        flatteners = [(name, p.flatten) for name, p in fields]
        builders = [(name, p.build) for name, p in fields]

        def enc(value: Any, out: bytearray) -> None:
            atoms: list = []
            for name, flat in flatteners:
                flat(value[name], atoms)
            out += packer.pack(*atoms)

        def dec(cur, result: dict) -> None:
            buf = cur.take(size, "fixed run")
            if pad_spans:
                _check_pads(buf, pad_spans)
            it = iter(packer.unpack(buf))
            for name, b in builders:
                result[name] = b(it)

        steps.append((enc, dec))
        ops.extend(
            _coalesce_word_ops([op for _, p in fields for op in p.ops])
        )

    for name, child in children:
        if child.fmt is not None:
            run.append((name, child))
            continue
        flush_run()
        child_encode, child_decode = child.encode_into, child.decode

        def enc(value: Any, out: bytearray, name=name, child_encode=child_encode):
            child_encode(value[name], out)

        def dec(cur, result: dict, name=name, child_decode=child_decode):
            result[name] = child_decode(cur)

        steps.append((enc, dec))
        ops.extend(child.ops)
    flush_run()

    def encode_into(value: Any, out: bytearray) -> None:
        for enc, _ in steps:
            enc(value, out)

    def decode(cur) -> dict:
        result: dict = {}
        for _, dec in steps:
            dec(cur, result)
        return result

    part.encode_into = encode_into
    part.decode = decode
    if all(p.fixed_size is not None for _, p in children):
        part.fixed_size = sum(p.fixed_size for _, p in children)
    part.ops = tuple(ops)
    return part


def _flat_compile(astype: ASType, order: str, padded: bool) -> _Part:
    """Compile one schema node for a flat syntax (LWTS or XDR)."""
    if isinstance(astype, Boolean):
        return _compile_bool()
    if isinstance(astype, Int32):
        return _int_part("i", INT32_MIN, INT32_MAX, "i32:i")
    if isinstance(astype, UInt32):
        return _int_part("I", 0, UINT32_MAX, "u32:I")
    if isinstance(astype, Int64):
        return _int_part("q", INT64_MIN, INT64_MAX, "i64:q")
    if isinstance(astype, Float64):
        return _compile_float()
    if isinstance(astype, OctetString):
        if astype.fixed_length is not None:
            return _compile_fixed_octets(astype.fixed_length, padded)
        return _compile_var_bytes(order, padded, utf8=False)
    if isinstance(astype, Utf8String):
        return _compile_var_bytes(order, padded, utf8=True)
    if isinstance(astype, ArrayOf):
        if type(astype.element) in _VECTOR_DTYPES:
            return _compile_vector_array(astype, order)
        return _compile_loop_array(astype, order, padded)
    if isinstance(astype, Struct):
        return _compile_struct(astype, order, padded)
    raise PresentationError(f"cannot compile unknown abstract type {astype!r}")


# ---------------------------------------------------------------------------
# BER: closure specialization (TLV layout is data-dependent)


def _ber_compile(astype: ASType) -> _Part:
    part = _Part()

    if isinstance(astype, Boolean):
        def encode_into(value, out):
            out += b"\x01\x01\xff" if value else b"\x01\x01\x00"

        def decode(cur):
            content = _ber_content(cur, TAG_BOOLEAN, "BOOLEAN")
            if len(content) != 1:
                raise DecodeError(
                    f"BOOLEAN content must be 1 byte, got {len(content)}"
                )
            return content[0] != 0x00

        part.ops = (CodecOp("tlv", 3, "BOOLEAN"),)
    elif isinstance(astype, (Int32, UInt32, Int64)):
        wrap = isinstance(astype, UInt32)

        def encode_into(value, out):
            content = encode_integer_content(int(value))
            out += bytes([TAG_INTEGER]) + encode_length(len(content)) + content

        def decode(cur):
            value = decode_integer_content(
                bytes(_ber_content(cur, TAG_INTEGER, "INTEGER"))
            )
            if wrap and value < 0:
                value += 2**32
            return value

        part.ops = (CodecOp("tlv", None, "INTEGER"),)
    elif isinstance(astype, Float64):
        def encode_into(value, out):
            content = encode_real_content(float(value))
            out += bytes([TAG_REAL]) + encode_length(len(content)) + content

        def decode(cur):
            return decode_real_content(bytes(_ber_content(cur, TAG_REAL, "REAL")))

        part.ops = (CodecOp("tlv", None, "REAL"),)
    elif isinstance(astype, OctetString):
        fixed = astype.fixed_length

        def encode_into(value, out, fixed=fixed):
            content = bytes(value)
            if fixed is not None and len(content) != fixed:
                raise PresentationError(
                    f"expected exactly {fixed} bytes, got {len(content)}"
                )
            out += bytes([TAG_OCTET_STRING]) + encode_length(len(content)) + content

        def decode(cur):
            return bytes(_ber_content(cur, TAG_OCTET_STRING, "OCTET STRING"))

        part.ops = (CodecOp("tlv", None, "OCTET STRING"),)
    elif isinstance(astype, Utf8String):
        def encode_into(value, out):
            content = value.encode("utf-8")
            out += bytes([TAG_UTF8_STRING]) + encode_length(len(content)) + content

        def decode(cur):
            try:
                return bytes(
                    _ber_content(cur, TAG_UTF8_STRING, "UTF8String")
                ).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError(f"invalid UTF-8 in string: {exc}") from exc

        part.ops = (CodecOp("tlv", None, "UTF8String"),)
    elif isinstance(astype, ArrayOf):
        elpart = _ber_compile(astype.element)
        el_encode, el_decode = elpart.encode_into, elpart.decode
        fixed_count = astype.fixed_count

        def encode_into(value, out):
            if fixed_count is not None and len(value) != fixed_count:
                raise PresentationError(
                    f"expected exactly {fixed_count} elements, got {len(value)}"
                )
            body = bytearray()
            for element in value:
                el_encode(element, body)
            out += bytes([TAG_SEQUENCE]) + encode_length(len(body))
            out += body

        def decode(cur):
            end = _ber_enter(cur, "SEQUENCE OF")
            elements = []
            while cur.offset < end:
                elements.append(el_decode(cur))
            if cur.offset != end:
                raise DecodeError("SEQUENCE OF content length mismatch")
            if fixed_count is not None and len(elements) != fixed_count:
                raise DecodeError(
                    f"expected {fixed_count} elements, got {len(elements)}"
                )
            return elements

        part.ops = (CodecOp("tlv", None, "SEQUENCE OF"),) + elpart.ops
    elif isinstance(astype, Struct):
        fields = [(f.name, _ber_compile(f.type)) for f in astype.fields]
        encoders = [(name, p.encode_into) for name, p in fields]
        decoders = [(name, p.decode) for name, p in fields]

        def encode_into(value, out):
            body = bytearray()
            for name, enc in encoders:
                enc(value[name], body)
            out += bytes([TAG_SEQUENCE]) + encode_length(len(body))
            out += body

        def decode(cur):
            end = _ber_enter(cur, "SEQUENCE")
            result = {}
            for name, dec in decoders:
                if cur.offset >= end:
                    raise DecodeError(f"SEQUENCE ended before field {name!r}")
                result[name] = dec(cur)
            if cur.offset != end:
                raise DecodeError("SEQUENCE content length mismatch")
            return result

        part.ops = (CodecOp("tlv", None, "SEQUENCE"),) + tuple(
            op for _, p in fields for op in p.ops
        )
    else:
        raise PresentationError(f"BER cannot compile {astype!r}")

    part.encode_into = encode_into
    part.decode = decode
    return part


def _ber_length(cur) -> int:
    first = cur.take_byte("BER length")
    if first < 0x80:
        return first
    n_octets = first & 0x7F
    if n_octets == 0:
        raise DecodeError("indefinite BER lengths are not supported")
    return int.from_bytes(cur.take(n_octets, "BER long-form length"), "big")


def _ber_header(cur, expected: int, what: str) -> int:
    tag = cur.take_byte("BER tag")
    if tag != expected:
        raise DecodeError(f"expected {what} tag 0x{expected:02X}, got 0x{tag:02X}")
    return _ber_length(cur)


def _ber_content(cur, expected: int, what: str) -> memoryview:
    length = _ber_header(cur, expected, what)
    return cur.take(length, "BER content")


def _ber_enter(cur, what: str) -> int:
    """Parse a constructed header; returns the content's end offset."""
    length = _ber_header(cur, TAG_SEQUENCE, what)
    end = cur.offset + length
    if length > cur.remaining:
        raise DecodeError(
            f"truncated BER content: need {length} bytes at offset "
            f"{cur.offset}, have {cur.remaining}"
        )
    return end


# ---------------------------------------------------------------------------
# fixed byte layout (for cross-syntax conversion)

_SPAN_LIMIT = 1 << 20


class _VariableLayout(Exception):
    pass


def _fixed_layout(
    astype: ASType, padded: bool
) -> tuple[tuple[tuple[str, int, int], ...], tuple[Path | None, ...]] | None:
    """Per-leaf byte spans of a fixed-layout encoding, or None.

    Spans are ``(kind, offset, size)`` with kind ``scalar`` (byte order
    matters), ``bytes`` (opaque, order-free) or ``pad`` (must be zero).
    The parallel tuple of paths names the leaf element each span
    encodes (``None`` for pad spans), recorded during this same walk so
    loss-to-element translation never needs a second one.
    """
    spans: list[tuple[str, int, int]] = []
    paths: list[Path | None] = []

    def leaf(kind: str, off: int, size: int, path: Path | None) -> None:
        spans.append((kind, off, size))
        paths.append(path)

    def walk(t: ASType, off: int, path: Path) -> int:
        if len(spans) > _SPAN_LIMIT:
            raise _VariableLayout
        if isinstance(t, (Boolean, Int32, UInt32)):
            leaf("scalar", off, 4, path)
            return off + 4
        if isinstance(t, (Int64, Float64)):
            leaf("scalar", off, 8, path)
            return off + 8
        if isinstance(t, OctetString):
            if t.fixed_length is None:
                raise _VariableLayout
            leaf("bytes", off, t.fixed_length, path)
            off += t.fixed_length
            pad = (-t.fixed_length) % 4 if padded else 0
            if pad:
                leaf("pad", off, pad, None)
                off += pad
            return off
        if isinstance(t, ArrayOf):
            if t.fixed_count is None:
                raise _VariableLayout
            for index in range(t.fixed_count):
                off = walk(t.element, off, path + (index,))
            return off
        if isinstance(t, Struct):
            for f in t.fields:
                off = walk(f.type, off, path + (f.name,))
            return off
        raise _VariableLayout

    try:
        walk(astype, 0, ())
    except _VariableLayout:
        return None
    return tuple(spans), tuple(paths)


def _permutable(src: "CompiledCodec", dst: "CompiledCodec") -> bool:
    """Whether both encodings have a fixed layout of one size and span
    count with a known byte order: the precondition of any pure byte
    permutation between them.  Raises when the schemas differ."""
    if src.fingerprint != dst.fingerprint:
        raise PresentationError(
            "conversion requires both codecs to share one schema"
        )
    return not (
        src.fixed_size is None
        or src.fixed_size != dst.fixed_size
        or src.layout is None
        or dst.layout is None
        or len(src.layout) != len(dst.layout)
        or src.byte_order is None
        or dst.byte_order is None
    )


def conversion_permutation(
    src: "CompiledCodec", dst: "CompiledCodec"
) -> np.ndarray | None:
    """Byte gather converting ``src``'s encoding into ``dst``'s.

    ``out[i] = data[perm[i]]`` — computable whenever both codecs encode
    the same schema with a fully fixed layout of identical geometry
    (span kinds, sizes and offsets), differing at most in scalar byte
    order.  Returns None when no pure permutation exists (variable
    layout, TLV syntax, or pad-geometry mismatch); callers then convert
    through decode + encode.
    """
    if not _permutable(src, dst):
        return None
    perm = np.arange(src.fixed_size, dtype=np.int64)
    swap = src.byte_order != dst.byte_order
    for (k1, o1, s1), (k2, o2, s2) in zip(src.layout, dst.layout):
        if k1 != k2 or s1 != s2:
            return None
        if k1 == "scalar" and swap:
            perm[o2 : o2 + s2] = np.arange(o1 + s1 - 1, o1 - 1, -1)
        elif o1 != o2:
            perm[o2 : o2 + s2] = np.arange(o1, o1 + s1)
    return perm


#: per-word price of a fused conversion: one load, one store, a byte
#: shuffle's worth of ALU — the tuned figure of §4, not the toolkit one.
_CONVERT_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=4.0)

_UNSET = object()
#: Guards the per-pair conversion memos: codecs are shared across threads.
_CONVERSION_LOCK = threading.RLock()


class Conversion:
    """The ``src -> dst`` conversion of one compiled codec pair.

    Resolved once per pair and shared (see :func:`pair_conversion`): every
    stage and endpoint converting between the same two codecs reads the
    same :attr:`kernel`, and :attr:`permutation` is computed at most
    once, on first use.  A pair whose layouts are equal is decided from
    the layouts alone — identity, or a per-word byteswap when every span
    is a 4-byte scalar — so the common fused case never builds the byte
    permutation.
    """

    __slots__ = ("src", "dst", "kernel", "_perm")

    def __init__(self, src: "CompiledCodec", dst: "CompiledCodec"):
        self.src = src
        self.dst = dst
        permutable = _permutable(src, dst)
        self._perm = _UNSET if permutable else None
        self.kernel = self._lower() if permutable else None

    @property
    def permutation(self) -> np.ndarray | None:
        """The byte gather of :func:`conversion_permutation`, memoized."""
        if self._perm is _UNSET:
            with _CONVERSION_LOCK:
                if self._perm is _UNSET:
                    self._perm = conversion_permutation(self.src, self.dst)
        return self._perm

    def _lower(self) -> "WordKernel | None":
        """Lower the conversion to a :class:`WordKernel`.

        Word arrays hold the payload's native byte image, so the
        permutation gathers that image directly: a view, one ``take``
        along the bytes (the conversion's output), another view.  When
        every span is a 4-byte scalar and only the byte order differs,
        the permutation is a per-word byteswap, done in place on arrays
        the executor owns.  This is the one kernel that swaps bytes.
        """
        from repro.ilp.kernels import WordKernel

        src, dst = self.src, self.dst
        name = f"convert-{src.syntax}-to-{dst.syntax}"
        identity = word_swap = False
        if src.layout == dst.layout:
            # Equal layouts decide the common cases without the permutation.
            scalars = [size for kind, _, size in src.layout if kind == "scalar"]
            identity = src.byte_order == dst.byte_order or not scalars
            word_swap = not identity and all(size == 4 for size in scalars) and (
                len(scalars) == len(src.layout)
            )
        if not (identity or word_swap):
            perm = self.permutation
            if perm is None:
                return None
            nbytes = src.fixed_size
            pad = (-nbytes) % 4
            if pad:
                full = np.concatenate([perm, np.arange(nbytes, nbytes + pad)])
            else:
                full = perm
            identity = bool(np.array_equal(full, np.arange(nbytes + pad)))

        if identity:
            return WordKernel(
                name=name,
                cost=_CONVERT_COST,
                transform=lambda words: words,
                preserves_data=True,
            )

        counters = presentation_counters()

        def count(words) -> None:
            counters.fused_conversions += words.shape[0] if words.ndim == 2 else 1

        if word_swap:
            def transform(words):
                count(words)
                return words.byteswap()

            def inplace(words):
                count(words)
                return words.byteswap(inplace=True)

            return WordKernel(
                name=name, cost=_CONVERT_COST, transform=transform, inplace=inplace
            )

        def transform(words):
            raw = words.view(np.uint8)
            if raw.shape[-1] != full.size:
                raise PresentationError(
                    f"conversion kernel for {nbytes}-byte ADUs got "
                    f"{raw.shape[-1]} bytes"
                )
            count(words)
            return np.take(raw, full, axis=-1).view(np.uint32)

        return WordKernel(name=name, cost=_CONVERT_COST, transform=transform)


def pair_conversion(src: "CompiledCodec", dst: "CompiledCodec") -> Conversion:
    """The shared :class:`Conversion` of one codec pair.

    Memoized on the source codec, which the :class:`CodecCache` already
    shares, so the memo lives exactly as long as the codecs do.
    """
    memo = src._conversions
    found = memo.get(dst)
    if found is None:
        with _CONVERSION_LOCK:
            found = memo.get(dst)
            if found is None:
                found = memo[dst] = Conversion(src, dst)
    return found


# ---------------------------------------------------------------------------
# the compiled codec


class CompiledCodec:
    """Immutable compiled form of one (schema, transfer syntax) pair.

    Built by :class:`CodecCompiler` (usually through a
    :class:`CodecCache`); holds no per-value state, so instances are
    shared freely across threads and flows.
    """

    __slots__ = (
        "schema",
        "codec",
        "syntax",
        "fingerprint",
        "fixed_size",
        "byte_order",
        "layout",
        "layout_paths",
        "ops",
        "_root",
        "_trailing",
        "_syntax_map",
        "_conversions",
    )

    def __init__(
        self,
        schema: ASType,
        codec: TransferCodec,
        root: _Part,
        byte_order: str | None,
        layout: tuple[tuple[str, int, int], ...] | None,
        layout_paths: tuple[Path | None, ...] | None = None,
    ):
        self.schema = schema
        self.codec = codec
        self.syntax = codec.name
        self.fingerprint = schema_fingerprint(schema)
        self.fixed_size = root.fixed_size
        self.byte_order = byte_order
        self.layout = layout
        self.layout_paths = layout_paths
        self.ops = root.ops
        self._root = root
        self._trailing = f"trailing bytes after compiled {codec.name} value"
        self._syntax_map: SyntaxMap | None = None
        self._conversions: dict[CompiledCodec, Conversion] = {}

    def __repr__(self) -> str:
        size = self.fixed_size if self.fixed_size is not None else "var"
        return (
            f"CompiledCodec({self.syntax}, {self.fingerprint}, "
            f"size={size}, ops={len(self.ops)})"
        )

    # -- encode -----------------------------------------------------------

    def _encode_one(self, value: Any) -> bytes:
        root = self._root
        try:
            if root.packer is not None:
                atoms: list = []
                root.flatten(value, atoms)
                return root.packer.pack(*atoms)
            out = bytearray()
            root.encode_into(value, out)
            return bytes(out)
        except PresentationError:
            raise
        except (KeyError, TypeError, ValueError, struct.error, OverflowError) as exc:
            raise PresentationError(
                f"compiled {self.syntax} encode failed: {exc}"
            ) from exc

    def encode(self, value: Any) -> bytes:
        """Encode one value (validation fused into the packing pass)."""
        data = self._encode_one(value)
        _COUNTERS.compiled_encodes += 1
        _COUNTERS.bytes_encoded += len(data)
        return data

    def encode_batch(self, values: Sequence[Any]) -> list[bytes]:
        """Encode many ADUs with one dispatch of the compiled program.

        The schema walk happened at compile time; the batch loop touches
        only the precompiled closures, amortizing per-ADU dispatch the
        way :meth:`~repro.ilp.compiler.CompiledPlan.run_batch` does.
        """
        encode_one = self._encode_one
        outputs = [encode_one(value) for value in values]
        _COUNTERS.compiled_encodes += len(outputs)
        _COUNTERS.batch_adus_encoded += len(outputs)
        _COUNTERS.bytes_encoded += sum(len(data) for data in outputs)
        return outputs

    # -- decode -----------------------------------------------------------

    def _decode_cursor(self, cur) -> Any:
        try:
            value = self._root.decode(cur)
        except (DecodeError, PresentationError):
            raise
        except (TypeError, ValueError, struct.error, StopIteration) as exc:
            raise DecodeError(
                f"compiled {self.syntax} decode failed: {exc}"
            ) from exc
        if cur.remaining:
            raise DecodeError(f"{cur.remaining} {self._trailing}")
        return value

    def decode(self, data: bytes | bytearray | memoryview) -> Any:
        """Decode one complete encoding."""
        value = self._decode_cursor(ByteCursor(data))
        _COUNTERS.compiled_decodes += 1
        _COUNTERS.bytes_decoded += len(data)
        return value

    def decode_chain(self, chain: BufferChain) -> Any:
        """Decode straight off a :class:`BufferChain` — no ``linearize()``.

        One streaming read pass over the segments (recorded on the
        datapath counters); fixed runs that fall inside a segment are
        read zero-copy, only runs straddling a boundary gather their own
        few bytes.
        """
        cur = ChainCursor(chain)
        length = cur.length
        value = self._decode_cursor(cur)
        DATAPATH.record_read_pass(length)
        _COUNTERS.compiled_decodes += 1
        _COUNTERS.chain_decodes += 1
        _COUNTERS.bytes_decoded += length
        return value

    def decode_batch(
        self, datas: Sequence[bytes | bytearray | memoryview | BufferChain]
    ) -> list[Any]:
        """Decode many ADUs with one dispatch of the compiled program."""
        values = []
        for data in datas:
            if isinstance(data, BufferChain):
                values.append(self._decode_cursor(ChainCursor(data)))
                DATAPATH.record_read_pass(len(data))
                _COUNTERS.chain_decodes += 1
                _COUNTERS.bytes_decoded += len(data)
            else:
                values.append(self._decode_cursor(ByteCursor(data)))
                _COUNTERS.bytes_decoded += len(data)
        _COUNTERS.compiled_decodes += len(values)
        _COUNTERS.batch_adus_decoded += len(values)
        return values

    # -- loss-to-element translation --------------------------------------

    def syntax_map(self) -> SyntaxMap | None:
        """The fixed-layout :class:`SyntaxMap` of every ADU in this syntax.

        Derived from :attr:`layout` and the element paths recorded during
        the compile-time walk — no second schema walk and no per-ADU
        ``encode_with_layout`` pass.  Because the layout is fixed, one map
        serves every ADU of the schema, so a receiver can translate a lost
        byte range straight into element paths.  Returns None for
        variable-layout or TLV syntaxes, where extents are data-dependent.
        """
        if self.layout is None or self.layout_paths is None:
            return None
        if self._syntax_map is None:
            extents: list[ElementExtent] = []
            for (kind, off, size), path in zip(self.layout, self.layout_paths):
                if path is None:
                    # Pad spans belong to the element they pad (XDR puts
                    # them after opaque data), matching the interpreted
                    # codecs' extents.
                    last = extents[-1]
                    extents[-1] = ElementExtent(last.path, last.start, off + size)
                    continue
                extents.append(ElementExtent(path, off, off + size))
            self._syntax_map = SyntaxMap(self.syntax, self.fixed_size, extents)
        return self._syntax_map


class CodecCompiler:
    """Compiles (schema, transfer syntax) pairs into :class:`CompiledCodec`.

    The compiler is the presentation layer's analogue of
    :class:`~repro.ilp.compiler.PipelineCompiler`: all schema dispatch
    happens here, once, and the emitted program contains none of it.
    """

    def compile(self, schema: ASType, codec: TransferCodec) -> CompiledCodec:
        """One full schema walk; everything after this is straight-line."""
        if isinstance(codec, LwtsCodec):
            order = "<" if codec.byte_order == "little" else ">"
            root = _flat_compile(schema, order, padded=False)
            byte_order = codec.byte_order
            fixed = _fixed_layout(schema, padded=False)
        elif isinstance(codec, XdrCodec):
            root = _flat_compile(schema, ">", padded=True)
            byte_order = "big"
            fixed = _fixed_layout(schema, padded=True)
        elif isinstance(codec, BerCodec):
            root = _ber_compile(schema)
            byte_order = None
            fixed = None
        else:
            raise PresentationError(
                f"no compiler for transfer syntax {codec.name!r}"
            )
        if root.fmt is not None and root.encode_into is None:
            order = "<" if byte_order == "little" else ">"
            _finish_fmt_part(root, order)
        if fixed is not None and root.fixed_size is None:
            fixed = None
        layout, layout_paths = fixed if fixed is not None else (None, None)
        return CompiledCodec(schema, codec, root, byte_order, layout, layout_paths)


# ---------------------------------------------------------------------------
# the cache (mirrors repro.ilp.compiler.PlanCache)


class CodecCacheStats(AtomicCacheStats):
    """Hit/miss/eviction counters for one :class:`CodecCache`.

    The cache is public and process-wide like the plan cache, so the
    counters are atomic (lock-guarded record methods, not bare ``+=``)
    for callers that use it from threads outside the simulator.
    """


class CodecCache:
    """Thread-safe LRU cache of compiled codecs.

    Keyed by ``(schema fingerprint, transfer syntax name)``; compilation
    happens under the lock, so concurrent lookups of the same key
    compile exactly once.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise PresentationError(
                f"codec cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._codecs: OrderedDict[tuple[str, str], CompiledCodec] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CodecCacheStats()
        self._compiler = CodecCompiler()

    def get_or_compile(
        self, schema: ASType, codec: TransferCodec
    ) -> CompiledCodec:
        """The cached compiled codec for this pair, compiling on miss."""
        key = (schema_fingerprint(schema), codec.name)
        with self._lock:
            compiled = self._codecs.get(key)
            if compiled is not None:
                self._codecs.move_to_end(key)
                self.stats.record_hit()
                return compiled
            self.stats.record_miss()
            compiled = self._compiler.compile(schema, codec)
            self._codecs[key] = compiled
            while len(self._codecs) > self.capacity:
                self._codecs.popitem(last=False)
                self.stats.record_eviction()
            return compiled

    def __len__(self) -> int:
        with self._lock:
            return len(self._codecs)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._codecs.clear()
            self.stats = CodecCacheStats()

    def snapshot(self) -> dict[str, float]:
        """Stats plus occupancy, for ``repro stats``."""
        with self._lock:
            data = self.stats.as_dict()
            data["entries"] = len(self._codecs)
            data["capacity"] = self.capacity
            return data


_SHARED_CODEC_CACHE = CodecCache()


def shared_codec_cache() -> CodecCache:
    """The process-wide cache the stages and transports default to."""
    return _SHARED_CODEC_CACHE
