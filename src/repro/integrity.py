"""Per-ADU integrity policy: which bytes the checksum must cover.

Clark & Tennenhouse's ALF argument is that the *application* decides
what corruption means.  SAP ("SAP: an Architecture for Selectively
Approximate Wireless Communication", PAPERS.md) makes the same split
concrete for lossy media: headers are always protected, payload
coverage is a policy knob, and corrupt-but-flagged delivery replaces
discard for error-tolerant content.

An :class:`IntegrityPolicy` names the covered byte spans of an ADU in
wire-syntax coordinates.  The policy is **compile-time** state: it
enters the checksum stage's ``lowering_token`` (so differently-covered
plans never alias in the :class:`~repro.ilp.compiler.PlanCache`), the
drain engine's ``drain_key`` (so only same-policy flows coalesce into
one batched verify), and the session INIT handshake (so both ends
provably agree before data flows).

Coverage semantics are RFC 1071's masked form: the covered checksum of
``data`` equals ``internet_checksum`` of a copy of ``data`` with every
*uncovered* byte zeroed.  Zero bytes contribute nothing to a one's-
complement sum, so the covered fold can simply skip them — uncovered
bytes are never read, which is where the fast path's speed comes from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import StageError
from repro.machine.accounting import integrity_counters

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.presentation.compiler import CompiledCodec

#: Policy modes, in increasing order of tolerance.
MODE_FULL = "full"
MODE_SPANS = "spans"
MODE_HEADERS_ONLY = "headers_only"
MODE_NONE = "none"

_MODES = (MODE_FULL, MODE_SPANS, MODE_HEADERS_ONLY, MODE_NONE)

#: Stand-in upper bound for "to the end of the ADU" (full coverage).
UNBOUNDED = 1 << 62


def _normalize_spans(
    ranges: Iterable[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    """Sorted, merged, non-empty byte spans (adjacent spans coalesce)."""
    cleaned: list[tuple[int, int]] = []
    for lo, hi in ranges:
        lo, hi = int(lo), int(hi)
        if lo < 0 or hi < lo:
            raise StageError(f"invalid coverage span [{lo}, {hi})")
        if hi > lo:
            cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class IntegrityPolicy:
    """Which bytes of each ADU the wire checksum covers.

    Immutable and hashable — policies key the coverage-mask cache and
    ride inside plan-cache lowering tokens.  Construct through the
    factories (:meth:`full`, :meth:`headers_only`, :meth:`of_spans`,
    :meth:`none`, :meth:`for_elements`) so spans arrive normalized.

    Attributes:
        mode: one of ``full`` / ``spans`` / ``headers_only`` / ``none``.
        spans: normalized covered byte ranges (ADU wire offsets).  Empty
            for ``full`` (everything) and ``none`` (nothing).
    """

    mode: str
    spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            known = ", ".join(_MODES)
            raise StageError(f"unknown integrity mode {self.mode!r}; known: {known}")
        if self.mode in (MODE_FULL, MODE_NONE) and self.spans:
            raise StageError(f"{self.mode!r} policy takes no spans")
        if self.mode in (MODE_SPANS, MODE_HEADERS_ONLY) and not self.spans:
            raise StageError(f"{self.mode!r} policy needs at least one span")

    # -- factories --------------------------------------------------------

    @classmethod
    def full(cls) -> "IntegrityPolicy":
        """Cover every byte (the classic wire checksum)."""
        return cls(MODE_FULL)

    @classmethod
    def none(cls) -> "IntegrityPolicy":
        """Cover nothing: the checksum is a constant and no byte is read."""
        return cls(MODE_NONE)

    @classmethod
    def headers_only(cls, prefix_bytes: int) -> "IntegrityPolicy":
        """Cover only the leading ``prefix_bytes`` of each ADU.

        The SAP split for media: the frame header lives at the front of
        the wire form, the loss-tolerant payload behind it.
        """
        if prefix_bytes <= 0:
            raise StageError(f"headers_only needs a positive prefix, got {prefix_bytes}")
        return cls(MODE_HEADERS_ONLY, ((0, int(prefix_bytes)),))

    @classmethod
    def of_spans(cls, ranges: Iterable[tuple[int, int]]) -> "IntegrityPolicy":
        """Cover an explicit set of byte ranges."""
        return cls(MODE_SPANS, _normalize_spans(ranges))

    @classmethod
    def for_elements(
        cls,
        codec: "CompiledCodec",
        paths: Sequence[tuple],
        mode: str = MODE_SPANS,
    ) -> "IntegrityPolicy":
        """Coverage derived from schema elements, via the compiled layout.

        ``paths`` select elements of the codec's abstract syntax; an
        entry matches a leaf extent when it equals the leaf's path or is
        a prefix of it, so naming a struct covers all its fields ("cover
        the frame header struct, not the pixel payload").  Only works
        for fixed-layout codecs — those are the ones whose
        :meth:`~repro.presentation.compiler.CompiledCodec.syntax_map`
        exists at compile time.
        """
        syntax_map = codec.syntax_map()
        if syntax_map is None:
            raise StageError(
                f"no fixed layout for syntax {codec.syntax!r}; "
                "element coverage needs a compile-time syntax map"
            )
        wanted = [tuple(path) for path in paths]
        ranges: list[tuple[int, int]] = []
        for extent in syntax_map.extents:
            leaf = tuple(extent.path)
            for prefix in wanted:
                if leaf[: len(prefix)] == prefix:
                    ranges.append((extent.start, extent.end))
                    break
        if not ranges:
            raise StageError(f"no schema elements match coverage paths {wanted!r}")
        spans = _normalize_spans(ranges)
        if mode == MODE_HEADERS_ONLY:
            if len(spans) != 1 or spans[0][0] != 0:
                raise StageError(
                    "headers_only element coverage must be one span at offset 0, "
                    f"got {spans!r}"
                )
            return cls(MODE_HEADERS_ONLY, spans)
        return cls(MODE_SPANS, spans)

    # -- identity ---------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Stable policy identity: lowering tokens, drain keys, INIT.

        ``full`` / ``none`` are bare mode names; covered modes append
        the span list, so policies with different coverage never alias.
        """
        if self.mode in (MODE_FULL, MODE_NONE):
            return self.mode
        ranges = "+".join(f"{lo}-{hi}" for lo, hi in self.spans)
        return f"{self.mode}:{ranges}"

    @property
    def is_full(self) -> bool:
        """True when every byte is covered."""
        return self.mode == MODE_FULL

    @property
    def tolerant(self) -> bool:
        """True when some bytes are uncovered — corruption there is
        deliverable (ALF "ignore" recovery) instead of fatal."""
        return self.mode != MODE_FULL

    # -- span algebra -----------------------------------------------------

    @property
    def effective_spans(self) -> tuple[tuple[int, int], ...]:
        """Coverage as concrete spans (``full`` becomes one unbounded span)."""
        if self.mode == MODE_FULL:
            return ((0, UNBOUNDED),)
        return self.spans

    @property
    def coverage_limit(self) -> int | None:
        """Highest byte offset the fold can touch (None = unbounded).

        The compiled batch path uses this to truncate its gather: a
        ``headers_only`` plan packs only the covered prefix, dropping
        the full-payload read pass altogether.
        """
        if self.mode == MODE_FULL:
            return None
        if not self.spans:
            return 0
        return self.spans[-1][1]

    def clipped(self, length: int) -> list[tuple[int, int]]:
        """Coverage intersected with one ADU's actual byte range."""
        out = []
        for lo, hi in self.effective_spans:
            lo, hi = min(lo, length), min(hi, length)
            if hi > lo:
                out.append((lo, hi))
        return out

    def covered_bytes(self, length: int) -> int:
        """How many of an ADU's ``length`` bytes the policy covers."""
        return sum(hi - lo for lo, hi in self.clipped(length))

    def covers(self, lo: int, hi: int) -> bool:
        """True when [lo, hi) intersects any covered span."""
        for start, end in self.effective_spans:
            if max(start, lo) < min(end, hi):
                return True
        return False


def integrity_token(policy: IntegrityPolicy | None) -> str:
    """The negotiation/drain-key token for a (possibly default) policy.

    A flow with no explicit policy checksums everything, so it
    interoperates with — and coalesces alongside — an explicit ``full``
    policy: both map to the same token.
    """
    return policy.fingerprint if policy is not None else MODE_FULL


# ----------------------------------------------------------------------
# Compiled coverage masks


#: (policy, word width) -> (covered word indices, per-word byte masks,
#: full-width mask array).  Masks are native word images, the form the
#: word kernels apply to the payload's native byte image: a mask word's
#: bytes are 0xFF exactly in the covered byte lanes, whatever the host
#: byte order.
_MASK_CACHE: dict[tuple[IntegrityPolicy, int], tuple] = {}
_MASK_LOCK = threading.Lock()


def coverage_masks(policy: IntegrityPolicy, width: int):
    """Word-index/mask arrays selecting the covered bytes of ``width`` words.

    Returns ``(indices, masks, full)``: ``words[indices] & masks`` are
    exactly the covered byte lanes of a native word array (uncovered
    words never appear in ``indices``, so they are never read), and
    ``full`` is the dense per-word mask (``full[i] == 0`` for wholly
    uncovered words) used by the batched tail fix-up.  Masks are
    compiled once per (policy, width) and cached; hits are visible as
    ``integrity.policy_hits`` in ``repro stats``.
    """
    key = (policy, width)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        integrity_counters().record_policy_lookup(hit=True)
        return cached
    byte_mask = np.zeros(width * 4, dtype=np.uint8)
    for lo, hi in policy.clipped(width * 4):
        byte_mask[lo:hi] = 0xFF
    full = byte_mask.view(np.uint32)
    indices = np.nonzero(full)[0]
    value = (indices, full[indices], full)
    with _MASK_LOCK:
        _MASK_CACHE.setdefault(key, value)
    integrity_counters().record_policy_lookup(hit=False)
    return value


def coverage_mask_cache_size() -> int:
    """Number of compiled (policy, width) mask entries (for stats)."""
    return len(_MASK_CACHE)
