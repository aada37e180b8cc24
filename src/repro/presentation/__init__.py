"""Presentation layer: abstract syntax, transfer syntaxes, negotiation.

The paper identifies presentation conversion as the dominant manipulation
cost ("presentation can cost more than all other manipulations combined")
and makes its pipelining the central architectural problem.  This package
provides:

* an abstract-syntax schema language (:mod:`repro.presentation.abstract`)
  — the shared "abstract syntax" in which peers understand an ADU;
* three working transfer syntaxes: ASN.1 BER (:mod:`~.ber`), Sun XDR
  (:mod:`~.xdr`) and a light-weight transfer syntax (:mod:`~.lwts`,
  after Huitema & Doghri's proposal cited by the paper);
* cost profiles for each codec, including a *tuned* (hand-coded unrolled
  loop) and a *toolkit* (ISODE-style interpretive) BER profile
  (:mod:`~.costs`);
* name-space mapping between transfer-syntax byte ranges and
  application-level elements (:mod:`~.namespace`) — what lets a loss be
  expressed "in terms meaningful to the application";
* sender/receiver syntax negotiation including single-step sender-side
  conversion into the receiver's local syntax (:mod:`~.negotiate`).
"""

from repro.presentation.abstract import (
    ASType,
    Boolean,
    Int32,
    UInt32,
    Int64,
    Float64,
    OctetString,
    Utf8String,
    ArrayOf,
    Field,
    Struct,
    validate,
    flatten_paths,
)
from repro.presentation.ber import BerCodec
from repro.presentation.xdr import XdrCodec
from repro.presentation.lwts import LwtsCodec
from repro.presentation.compiler import (
    CodecCache,
    CodecCacheStats,
    CodecCompiler,
    CodecOp,
    CompiledCodec,
    PresentationCounters,
    conversion_permutation,
    presentation_counters,
    schema_fingerprint,
    shared_codec_cache,
)
from repro.presentation.costs import (
    CodecCostProfile,
    TUNED_BER,
    TOOLKIT_BER,
    TUNED_XDR,
    TUNED_LWTS,
    RAW_IMAGE,
)
from repro.presentation.namespace import ElementExtent, SyntaxMap
from repro.presentation.negotiate import (
    LocalSyntax,
    ConversionPlan,
    negotiate,
    NATIVE_BIG,
    NATIVE_LITTLE,
)

__all__ = [
    "ASType",
    "Boolean",
    "Int32",
    "UInt32",
    "Int64",
    "Float64",
    "OctetString",
    "Utf8String",
    "ArrayOf",
    "Field",
    "Struct",
    "validate",
    "flatten_paths",
    "BerCodec",
    "XdrCodec",
    "LwtsCodec",
    "CodecCache",
    "CodecCacheStats",
    "CodecCompiler",
    "CodecOp",
    "CompiledCodec",
    "PresentationCounters",
    "conversion_permutation",
    "presentation_counters",
    "schema_fingerprint",
    "shared_codec_cache",
    "CodecCostProfile",
    "TUNED_BER",
    "TOOLKIT_BER",
    "TUNED_XDR",
    "TUNED_LWTS",
    "RAW_IMAGE",
    "ElementExtent",
    "SyntaxMap",
    "LocalSyntax",
    "ConversionPlan",
    "negotiate",
    "NATIVE_BIG",
    "NATIVE_LITTLE",
]
