"""Presentation conversion as pipeline stages.

These wrap a transfer codec (:mod:`repro.presentation`) so presentation
conversion can sit in the same pipeline as copies and checksums — which
is the point of the paper's E4 experiment (ASN.1 conversion fused with
the TCP checksum).

The *functional* behaviour uses the real codec; the *modelled* cost comes
from a :class:`CodecCostProfile` (tuned vs toolkit), so the same working
code can be priced as either implementation style.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from repro.buffers.chain import BufferChain
from repro.errors import StageError
from repro.machine.costs import CostVector
from repro.presentation.abstract import ASType, OctetString
from repro.presentation.base import TransferCodec
from repro.presentation.compiler import (
    CodecCache,
    CompiledCodec,
    Conversion,
    pair_conversion,
    shared_codec_cache,
)
from repro.presentation.costs import CodecCostProfile
from repro.stages.base import Facts, Stage

BYTESWAP_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=4.0)
# One read, one write, and the byte-gather arithmetic per word — the
# memory behaviour of a compiled syntax-to-syntax permutation.
CONVERT_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=4.0)


def _is_raw_octets(astype: ASType) -> bool:
    return isinstance(astype, OctetString)


class ByteswapStage(Stage):
    """Per-word byte-order conversion — the XDR-style presentation
    transform in kernel-lowerable form.

    Self-inverse on word-aligned data (a trailing partial word is
    zero-padded before the swap, as any word-loop implementation would).
    This is the "sender-converts" strategy of §5 reduced to its memory
    behaviour: one read, one write, four byte extractions per word.
    """

    category = "presentation"
    provides = frozenset({Facts.CONVERTED})
    cost = BYTESWAP_COST

    def __init__(self, name: str = "byteswap"):
        self.name = name

    def apply(self, data: bytes) -> bytes:
        from repro.ilp.kernels import pack_native, words_to_bytes

        words, length, _ = pack_native(data)
        return words_to_bytes(words.byteswap(), length)

    def to_word_kernel(self):
        """Lower to a word kernel for the compiled fast path."""
        from repro.ilp.kernels import byteswap_kernel

        return dataclasses.replace(byteswap_kernel(), name=self.name, cost=self.cost)


class PresentationEncodeStage(Stage):
    """Sender-side conversion: local value → transfer syntax.

    The stage is armed with a value via :meth:`set_value`; ``apply``
    ignores its byte input (the value, not prior bytes, is the source)
    and emits the encoding.  This mirrors the paper's observation that
    conversion "must be driven by application knowledge".
    """

    category = "presentation"
    provides = frozenset({Facts.CONVERTED})

    def __init__(
        self,
        codec: TransferCodec,
        schema: ASType,
        cost_profile: CodecCostProfile,
        name: str | None = None,
        compiled: bool = True,
        codec_cache: CodecCache | None = None,
    ):
        self.name = name or f"encode-{codec.name}"
        self.codec = codec
        self.schema = schema
        self.cost_profile = cost_profile
        self.cost = cost_profile.pass_cost("encode", raw_octets=_is_raw_octets(schema))
        self.compiled_codec: CompiledCodec | None = None
        if compiled:
            cache = codec_cache if codec_cache is not None else shared_codec_cache()
            self.compiled_codec = cache.get_or_compile(schema, codec)
        self._value: Any = None
        self._armed = False

    def set_value(self, value: Any) -> None:
        """Provide the application value to encode."""
        self._value = value
        self._armed = True

    def apply(self, data: bytes) -> bytes:
        if not self._armed:
            raise StageError(f"{self.name}: no value set before encoding")
        if self.compiled_codec is not None:
            return self.compiled_codec.encode(self._value)
        return self.codec.encode(self._value, self.schema)

    def encode_batch(self, values: Sequence[Any]) -> list[bytes]:
        """Encode many ADUs, amortizing dispatch over the batch."""
        if self.compiled_codec is not None:
            return self.compiled_codec.encode_batch(values)
        return [self.codec.encode(value, self.schema) for value in values]

    def reset(self) -> None:
        self._value = None
        self._armed = False


class PresentationDecodeStage(Stage):
    """Receiver-side conversion: transfer syntax → local value.

    Runs only on a complete, verified ADU (stage two of the receive
    path).  The decoded value is exposed as :attr:`last_value`; the byte
    stream passes through unchanged so downstream stages (the move into
    application space) still see the data.
    """

    category = "presentation"
    requires = frozenset({Facts.ADU_COMPLETE, Facts.VERIFIED})
    provides = frozenset({Facts.CONVERTED})

    def __init__(
        self,
        codec: TransferCodec,
        schema: ASType,
        cost_profile: CodecCostProfile,
        name: str | None = None,
        compiled: bool = True,
        codec_cache: CodecCache | None = None,
    ):
        self.name = name or f"decode-{codec.name}"
        self.codec = codec
        self.schema = schema
        self.cost_profile = cost_profile
        self.cost = cost_profile.pass_cost("decode", raw_octets=_is_raw_octets(schema))
        self.compiled_codec: CompiledCodec | None = None
        if compiled:
            cache = codec_cache if codec_cache is not None else shared_codec_cache()
            self.compiled_codec = cache.get_or_compile(schema, codec)
        self.last_value: Any = None

    def apply(self, data):
        if self.compiled_codec is not None:
            if isinstance(data, BufferChain):
                self.last_value = self.compiled_codec.decode_chain(data)
            else:
                self.last_value = self.compiled_codec.decode(data)
            return data
        if isinstance(data, BufferChain):
            self.last_value = self.codec.decode(data.linearize(), self.schema)
            return data
        self.last_value = self.codec.decode(data, self.schema)
        return data

    def decode_batch(self, datas: Sequence[bytes | BufferChain]) -> list[Any]:
        """Decode many ADUs, amortizing dispatch over the batch."""
        if self.compiled_codec is not None:
            return self.compiled_codec.decode_batch(datas)
        return [
            self.codec.decode(
                data.linearize() if isinstance(data, BufferChain) else data,
                self.schema,
            )
            for data in datas
        ]

    def reset(self) -> None:
        self.last_value = None


class PresentationConvertStage(Stage):
    """Syntax-to-syntax conversion compiled from the shared schema.

    The §5 "sender-converts" strategy, schema-aware: re-express an ADU
    already in the source transfer syntax in the destination syntax.
    Both directions compile through the codec cache; when the two
    compiled codecs share a fully fixed layout the stage lowers to a
    byte-permutation word kernel (:meth:`to_word_kernel`), so conversion
    joins the integrated loop and shares its read pass with the
    checksum.  Variable layouts fall back to compiled decode + encode —
    still no per-value interpretation.
    """

    category = "presentation"
    provides = frozenset({Facts.CONVERTED})
    cost = CONVERT_COST

    def __init__(
        self,
        schema: ASType,
        src_codec: TransferCodec,
        dst_codec: TransferCodec,
        name: str | None = None,
        codec_cache: CodecCache | None = None,
    ):
        cache = codec_cache if codec_cache is not None else shared_codec_cache()
        self.schema = schema
        self.src = cache.get_or_compile(schema, src_codec)
        self.dst = cache.get_or_compile(schema, dst_codec)
        self.name = name or f"convert-{self.src.syntax}-to-{self.dst.syntax}"

    @cached_property
    def conversion(self) -> Conversion:
        """The codec pair's shared :class:`Conversion`: its kernel decides
        fusability, its permutation (computed on first use, once per
        pair) is what :meth:`apply` gathers through."""
        return pair_conversion(self.src, self.dst)

    @property
    def identity(self) -> bool:
        """True when source and destination encodings are the same."""
        return self.src.syntax == self.dst.syntax

    def lowering_token(self) -> tuple[str, str, str, str]:
        """Behavioural identity for plan-cache keys (the pair matters)."""
        return (
            "presentation-convert",
            self.src.fingerprint,
            self.src.syntax,
            self.dst.syntax,
        )

    def apply(self, data):
        perm = None if isinstance(data, BufferChain) else self.conversion.permutation
        if perm is not None:
            import numpy as np

            raw = np.frombuffer(bytes(data), dtype=np.uint8)
            return raw[perm].tobytes()
        if isinstance(data, BufferChain):
            value = self.src.decode_chain(data)
        else:
            value = self.src.decode(data)
        return self.dst.encode(value)

    def to_word_kernel(self):
        """Lower to a word kernel when a pure permutation exists."""
        return self.conversion.kernel


@dataclass(frozen=True)
class PresentationBinding:
    """How an ALF endpoint presents its ADUs: one schema, two syntaxes.

    ``local`` is the codec of the bytes the application hands down (or
    expects up); ``wire`` is the negotiated transfer syntax.  The ALF
    sender converts local → wire fused with its checksum pass; the
    receiver verifies then converts wire → local.  When the two name the
    same encoding the conversion stages vanish and the endpoints run
    their plain wire plans.
    """

    schema: ASType
    local: TransferCodec
    wire: TransferCodec

    def sender_stage(self) -> PresentationConvertStage | None:
        """The sender-side conversion, or None when it is the identity."""
        stage = PresentationConvertStage(self.schema, self.local, self.wire)
        return None if stage.identity else stage

    def receiver_stage(self) -> PresentationConvertStage | None:
        """The receiver-side conversion, or None when it is the identity."""
        stage = PresentationConvertStage(self.schema, self.wire, self.local)
        return None if stage.identity else stage
