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
from dataclasses import dataclass, field
from typing import Any

from repro.buffers.chain import BufferChain
from repro.errors import NetworkError

#: Modelled wire overhead of one packet's headers (network + transport),
#: roughly an IP + TCP header without options.
HEADER_OVERHEAD_BYTES = 40

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One transmission unit.

    Attributes:
        src: source host name.
        dst: destination host name.
        protocol: demultiplexing key at the host ("tcp-style", "alf", ...).
        flow_id: demultiplexing key within the protocol (connection /
            association identifier).
        header: protocol-defined control fields.
        payload: the data — ``bytes`` on the classic path, or a
            :class:`~repro.buffers.chain.BufferChain` on the zero-copy
            datapath (forwarding elements pass the reference along; only
            explicit materialization points touch the bytes).
        header_overhead: modelled wire bytes of header.
        packet_id: unique id for tracing (assigned automatically).
    """

    src: str
    dst: str
    protocol: str
    flow_id: int
    header: dict[str, Any] = field(default_factory=dict)
    payload: bytes | BufferChain = b""
    header_overhead: int = HEADER_OVERHEAD_BYTES
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.header_overhead < 0:
            raise NetworkError("header_overhead must be >= 0")

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
