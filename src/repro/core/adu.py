"""Application Data Units.

The ADU is the paper's central abstraction: the aggregate the application
chooses such that (1) the sender can compute a *name* for it that tells
the receiver its place in the sequence, and (2) the transfer syntax lets
it be processed out of order (§5, final characterization).  The ADU —
not the packet, not the cell — is the unit of manipulation and of error
recovery.

ADUs larger than a transmission unit are fragmented; the fragments exist
only for transmission, and loss of any fragment condemns the whole ADU
("the application will, in general, be unable to deal with it... assume
the whole ADU is lost, even if parts exist").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.buffers.chain import BufferChain, as_buffer_chain
from repro.errors import FramingError
from repro.machine.accounting import DATAPATH
from repro.stages.checksum import internet_checksum, internet_checksum_chain


@dataclass(frozen=True)
class Adu:
    """One Application Data Unit.

    Attributes:
        sequence: position in the sender's ADU sequence (transport-level
            ordering handle).
        payload: the ADU's bytes in transfer syntax.
        name: application-level naming fields — "a higher-level
            name-space in which ADUs are named" (§5).  For file transfer
            this carries sender/receiver offsets; for video, frame and
            slot coordinates; for RPC, call and argument ids.
    """

    sequence: int
    payload: bytes | BufferChain
    name: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise FramingError("ADU sequence must be >= 0")

    @property
    def checksum(self) -> int:
        """The ADU-level error-detection code (synchronized per ADU).

        Chain payloads are checksummed in place (one read pass over the
        segments, no materialization).
        """
        if isinstance(self.payload, BufferChain):
            return internet_checksum_chain(self.payload)
        return internet_checksum(self.payload)

    def __len__(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class AduFragment:
    """A transmission-unit-sized slice of an ADU.

    Fragments carry enough context (sequence, index, total, ADU length
    and checksum, and the ADU's full name) for the receiver to rebuild
    and verify the ADU with no other state — each ADU "contain[s] enough
    information to control its own delivery" (§7).
    """

    adu_sequence: int
    index: int
    total: int
    adu_length: int
    adu_checksum: int
    name: dict[str, Any]
    payload: bytes | BufferChain

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.total:
            raise FramingError(
                f"fragment index {self.index} outside total {self.total}"
            )


def fragment_payloads(
    payload: bytes | BufferChain, mtu: int
) -> list[bytes | memoryview | BufferChain]:
    """Slice a payload into pieces of at most ``mtu`` bytes.

    The pieces follow the payload's type.  An immutable ``bytes``
    payload is its own single piece or is cut into ``memoryview``
    windows over it (the sender's NIC gathers from its buffer), and a
    ``memoryview`` is cut into views.  A
    :class:`~repro.buffers.chain.BufferChain` is cut into refcounted
    chain windows, each owning its own references (release them when
    spent; the payload's are untouched).  Only a mutable payload is
    sliced into copies — a lone short piece included — recorded as
    ``fragment-slice``.  An empty payload is one empty piece.  The pieces
    are all a sender needs to packetize a whole ADU;
    :func:`fragment_adu` wraps them in fragment records.
    """
    if mtu <= 0:
        raise FramingError("mtu must be positive")
    if not len(payload):
        return [b""]
    if isinstance(payload, BufferChain):
        return list(payload.chunks(mtu))
    if type(payload) is bytes:
        if len(payload) <= mtu:
            return [payload]
        payload = memoryview(payload)
    elif not isinstance(payload, memoryview):
        DATAPATH.record_copy(len(payload), label="fragment-slice")
    return [payload[start : start + mtu] for start in range(0, len(payload), mtu)]


def fragment_adu(
    adu: Adu, mtu: int, checksum: int | None = None
) -> list[AduFragment]:
    """Slice an ADU into fragments of at most ``mtu`` payload bytes.

    The pieces follow the payload's type (see :func:`fragment_payloads`).
    ``checksum`` lets a caller that already computed the ADU checksum
    (e.g. through a compiled wire plan, possibly batched) pass it in
    instead of paying a second checksum pass here.
    """
    pieces = fragment_payloads(adu.payload, mtu)
    if checksum is None:
        checksum = adu.checksum
    total, length = len(pieces), len(adu.payload)
    return [
        AduFragment(
            adu.sequence, index, total, length, checksum, dict(adu.name), piece
        )
        for index, piece in enumerate(pieces)
    ]


def reassemble_fragments(
    fragments: list[AduFragment],
    verify: bool = True,
    as_chain: bool = False,
) -> Adu:
    """Rebuild an ADU from all of its fragments (any order).

    Raises :class:`FramingError` on missing/inconsistent fragments or a
    checksum mismatch — the caller treats any of those as loss of the
    whole ADU.  ``verify=False`` skips the checksum pass for callers
    that verify through a compiled wire plan instead (the structural
    checks all still run).

    ``as_chain=True`` assembles the ADU as a
    :class:`~repro.buffers.chain.BufferChain` over the fragments'
    payloads — no join, no copy; fragment chains are *shared* into the
    result, so callers keep (and must release) their own references.
    """
    if not fragments:
        raise FramingError("no fragments to reassemble")
    first = fragments[0]
    if len(fragments) != first.total:
        raise FramingError(
            f"ADU {first.adu_sequence}: have {len(fragments)} of "
            f"{first.total} fragments"
        )
    by_index: dict[int, AduFragment] = {}
    for fragment in fragments:
        if (
            fragment.adu_sequence != first.adu_sequence
            or fragment.total != first.total
            or fragment.adu_checksum != first.adu_checksum
        ):
            raise FramingError("inconsistent fragments for one ADU")
        if fragment.index in by_index:
            raise FramingError(f"duplicate fragment index {fragment.index}")
        by_index[fragment.index] = fragment
    payload: bytes | BufferChain
    if as_chain:
        chain = BufferChain()
        for i in range(first.total):
            piece = by_index[i].payload
            if isinstance(piece, BufferChain):
                chain.extend(piece.share())
            else:
                chain.extend(as_buffer_chain(piece))
        payload = chain
    else:
        payload = b"".join(
            by_index[i].payload.linearize()
            if isinstance(by_index[i].payload, BufferChain)
            else by_index[i].payload
            for i in range(first.total)
        )
        DATAPATH.record_copy(len(payload), label="reassemble-join")
    try:
        if len(payload) != first.adu_length:
            raise FramingError(
                f"reassembled {len(payload)} bytes, expected {first.adu_length}"
            )
        adu = Adu(first.adu_sequence, payload, dict(first.name))
        if verify and adu.checksum != first.adu_checksum:
            raise FramingError(
                f"ADU {first.adu_sequence}: checksum mismatch after reassembly"
            )
    except FramingError:
        if as_chain:
            # The chain holds its own shares of the fragments' buffers.
            payload.release()
        raise
    return adu
