"""Compiled vs interpreted protocol headers (paper §8).

The paper's closing proposal: "the semantics of a functional module
[should] be decoupled from the syntax used to effect the exchange of
protocol control information.  A single syntactical field could be
interpreted by a number of modules, with each applying its own semantic
rules...  In many respects this approach corresponds to the
'compilation' of the protocol suite, while the encapsulation approach
corresponds to its 'interpretation'."

Two real, parseable encodings of the same ALF-fragment control
information demonstrate the trade:

* :class:`LayeredEncapsulation` — classic nesting: each layer prepends
  its own header with its own copies of lengths, ids and checks (a
  network header, a transport header, an ALF framing header, an
  application naming header).  Every layer parses only its own header.
* :class:`SharedHeader` — one flat header whose fields are shared: one
  length, one sequence number, one checksum field, interpreted by the
  transport (for ordering), the framing module (for reassembly) and the
  application (for naming) under their own semantic rules.

Both pack to real bytes and parse back; the experiment (A4) measures
header bytes per fragment and parse instructions per packet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.control.instructions import InstructionCounter
from repro.errors import FramingError


@dataclass(frozen=True)
class FragmentInfo:
    """The control information every encoding must carry."""

    flow_id: int
    adu_sequence: int
    fragment_index: int
    fragment_total: int
    adu_length: int
    checksum: int
    app_name: int  # the application-level name (e.g. file-offset slot)

    def __post_init__(self) -> None:
        if not 0 <= self.fragment_index < self.fragment_total:
            raise FramingError("fragment index out of range")


class LayeredEncapsulation:
    """Each layer appends its own header ("interpretation").

    Per-layer formats (all big-endian, realistically redundant):

    * network: version(1) flow(4) total_length(4) ttl(1) check(2) = 12 B
    * transport: seq(4) length(4) checksum(2) window(2) flags(2) = 14 B
    * framing: adu_seq(4) frag(2) nfrags(2) adu_len(4) = 12 B
    * application: name(8) = 8 B

    Total 46 bytes, four separate parses.
    """

    NET = struct.Struct(">BIIBH")
    TRANSPORT = struct.Struct(">IIHHH")
    FRAMING = struct.Struct(">IHHI")
    APP = struct.Struct(">Q")

    @property
    def header_bytes(self) -> int:
        """Wire bytes of control information per fragment."""
        return (
            self.NET.size + self.TRANSPORT.size + self.FRAMING.size + self.APP.size
        )

    def pack(self, info: FragmentInfo, payload_length: int) -> bytes:
        """All four layer headers, outermost first."""
        app = self.APP.pack(info.app_name)
        framing = self.FRAMING.pack(
            info.adu_sequence, info.fragment_index, info.fragment_total,
            info.adu_length,
        )
        transport = self.TRANSPORT.pack(
            info.adu_sequence, payload_length, info.checksum, 0xFFFF, 0
        )
        total = self.header_bytes + payload_length
        net = self.NET.pack(4, info.flow_id, total, 64, 0)
        return net + transport + framing + app

    def parse(
        self, data: bytes, counter: InstructionCounter | None = None
    ) -> tuple[FragmentInfo, int]:
        """Parse all four headers; returns (info, header size).

        Each layer charges its own header parse — the per-layer
        interpretation cost of encapsulation.
        """
        counter = counter or InstructionCounter()
        offset = 0
        try:
            _, flow_id, total, _, _ = self.NET.unpack_from(data, offset)
            counter.record("header_parse")
            offset += self.NET.size
            seq, payload_length, checksum, _, _ = self.TRANSPORT.unpack_from(
                data, offset
            )
            counter.record("header_parse")
            offset += self.TRANSPORT.size
            adu_seq, frag, nfrags, adu_len = self.FRAMING.unpack_from(
                data, offset
            )
            counter.record("header_parse")
            offset += self.FRAMING.size
            (name,) = self.APP.unpack_from(data, offset)
            counter.record("header_parse")
            offset += self.APP.size
        except struct.error as exc:
            raise FramingError(f"truncated layered header: {exc}") from exc
        info = FragmentInfo(
            flow_id=flow_id,
            adu_sequence=adu_seq,
            fragment_index=frag,
            fragment_total=nfrags,
            adu_length=adu_len,
            checksum=checksum,
            app_name=name,
        )
        return info, offset


class SharedHeader:
    """One flat header, fields shared across modules ("compilation").

    Format: flow(4) adu_seq(4) frag(2) nfrags(2) adu_len(4) check(2)
    name(8) = 26 bytes, one parse.  The single ``adu_seq`` field serves
    the transport (ordering/ack), the framing module (reassembly) and —
    because ADU sequence *is* application-meaningful under ALF — the
    application itself; the single length serves net and framing.
    """

    LAYOUT = struct.Struct(">IIHHIHQ")

    @property
    def header_bytes(self) -> int:
        """Wire bytes of control information per fragment."""
        return self.LAYOUT.size

    def pack(self, info: FragmentInfo, payload_length: int) -> bytes:
        """The single shared header."""
        return self.LAYOUT.pack(
            info.flow_id,
            info.adu_sequence,
            info.fragment_index,
            info.fragment_total,
            info.adu_length,
            info.checksum,
            info.app_name,
        )

    def parse(
        self, data: bytes, counter: InstructionCounter | None = None
    ) -> tuple[FragmentInfo, int]:
        """One parse; every module then applies its own semantics to the
        already-decoded fields (a register read, not a reparse)."""
        counter = counter or InstructionCounter()
        try:
            (
                flow_id, adu_seq, frag, nfrags, adu_len, checksum, name,
            ) = self.LAYOUT.unpack_from(data, 0)
        except struct.error as exc:
            raise FramingError(f"truncated shared header: {exc}") from exc
        counter.record("header_parse")
        info = FragmentInfo(
            flow_id=flow_id,
            adu_sequence=adu_seq,
            fragment_index=frag,
            fragment_total=nfrags,
            adu_length=adu_len,
            checksum=checksum,
            app_name=name,
        )
        return info, self.LAYOUT.size
