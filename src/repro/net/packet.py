"""Packets: the substrate's transmission unit.

A packet is addressed (source/destination host), demultiplexable
(protocol + flow), and carries an arbitrary header mapping plus a payload.
Headers are kept as a mapping rather than a packed encoding because every
transport here defines its own fields; the *size* of the header on the
wire is modelled by :data:`HEADER_OVERHEAD_BYTES` so bandwidth accounting
stays honest.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.buffers.chain import BufferChain
from repro.errors import NetworkError

#: Modelled wire overhead of one packet's headers (network + transport),
#: roughly an IP + TCP header without options.
HEADER_OVERHEAD_BYTES = 40

_packet_ids = itertools.count(1)


class Packet:
    """One transmission unit.

    A slotted record with a plain constructor: every wire unit of every
    ADU is one, so building it costs a single call.

    Attributes:
        src: source host name.
        dst: destination host name.
        protocol: demultiplexing key at the host ("tcp-style", "alf", ...).
        flow_id: demultiplexing key within the protocol (connection /
            association identifier).
        header: protocol-defined control fields (a fresh dict when
            omitted).
        payload: the data — ``bytes`` on the classic path, or a
            :class:`~repro.buffers.chain.BufferChain` on the zero-copy
            datapath (forwarding elements pass the reference along; only
            explicit materialization points touch the bytes).
        header_overhead: modelled wire bytes of header.
        packet_id: unique id for tracing (assigned automatically).
    """

    __slots__ = (
        "src", "dst", "protocol", "flow_id", "header", "payload",
        "header_overhead", "packet_id",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        protocol: str,
        flow_id: int,
        header: dict[str, Any] | None = None,
        payload: bytes | BufferChain = b"",
        header_overhead: int = HEADER_OVERHEAD_BYTES,
        packet_id: int | None = None,
    ):
        if header_overhead < 0:
            raise NetworkError("header_overhead must be >= 0")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.flow_id = flow_id
        self.header = {} if header is None else header
        self.payload = payload
        self.header_overhead = header_overhead
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    @property
    def wire_size(self) -> int:
        """Bytes this packet occupies on a link."""
        return self.header_overhead + len(self.payload)

    def copy(self) -> "Packet":
        """An independent copy with a fresh packet id (for duplication).

        A chain payload is *shared*, not duplicated: both packets hold
        their own references, so a receiver releasing a discarded
        duplicate cannot pull the buffers out from under the original.
        """
        payload = self.payload
        if isinstance(payload, BufferChain):
            payload = payload.share()
        return Packet(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            flow_id=self.flow_id,
            header=dict(self.header),
            payload=payload,
            header_overhead=self.header_overhead,
        )

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.protocol}/{self.flow_id} {len(self.payload)}B "
            f"{self.header})"
        )
