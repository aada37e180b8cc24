"""Shared transport plumbing: stats and delivery records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.buffers.chain import BufferChain


@dataclass
class TransportStats:
    """Counters every transport maintains."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    retransmissions: int = 0
    checksum_failures: int = 0
    duplicates_discarded: int = 0
    #: Fragments dropped for an impossible header (index outside
    #: ``0..nfrags-1``, or ``nfrags < 1``).
    malformed_discarded: int = 0
    acks_sent: int = 0
    acks_received: int = 0


@dataclass(frozen=True)
class DeliveredAdu:
    """What an ALF receiver hands the application.

    Attributes:
        sequence: the ADU's position in the sender's ADU sequence.
        name: the application-level name fields the sender attached
            (file offsets, frame/slot coordinates, RPC ids...).
        payload: the ADU's bytes in transfer syntax.
        arrival_time: simulation time of completion.
        in_order: whether every earlier ADU had already been delivered
            when this one completed (False marks out-of-order progress —
            the thing a byte-stream transport cannot give you).
        chain: on the zero-copy datapath, the scatter-gather view over
            the receive buffers the ADU was assembled from.  Valid only
            for the duration of the delivery callback — the receiver
            releases it (recycling pool buffers) when the callback
            returns, so applications that want zero-copy disposal must
            scatter from it synchronously and must not retain it.
        corrupt_spans: ADU-relative ``(lo, hi)`` byte ranges the PHY
            flagged as corrupted.  Non-empty only under a tolerant
            integrity policy (``SPANS``/``HEADERS_ONLY``/``NONE``) when
            the damage fell outside the covered spans: the checksum
            still matched, so the ADU is delivered — the paper's ALF
            "ignore" recovery mode — with the suspect ranges named so
            the application can conceal or re-request them.  Bytes
            outside these spans are exactly what the sender transmitted.
    """

    sequence: int
    name: dict[str, Any]
    payload: bytes
    arrival_time: float
    in_order: bool
    chain: BufferChain | None = None
    corrupt_spans: tuple[tuple[int, int], ...] = ()
