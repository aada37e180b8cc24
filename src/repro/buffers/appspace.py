"""Application address-space model.

Section 6 of the paper argues that the general case of delivery is *not*
a linear region: "the data in the ADU [must] be separated into different
values which are stored in different variables of some program".  This
module models that: an :class:`ApplicationAddressSpace` is a set of named
:class:`Region` destinations (file extents, RPC argument slots, a video
frame slab), and a :class:`ScatterMap` describes how one ADU's bytes fan
out across regions.

The paper's outboard-processor argument (§6) falls out of this model: to
perform the final move, the mover needs the scatter map, whose size grows
with the data — which is why presentation/delivery belongs with the
application, not on an outboard processor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffers.chain import BufferChain
from repro.errors import BufferError_
from repro.machine.accounting import DATAPATH


@dataclass(frozen=True)
class Region:
    """A named destination region inside the application.

    Attributes:
        name: application-level identifier ("file", "arg0", "frame-12").
        data: backing storage.
        offset: start of the region within ``data``.
        length: region size in bytes.
    """

    name: str
    data: bytearray
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise BufferError_("region offset/length must be >= 0")
        if self.offset + self.length > len(self.data):
            raise BufferError_(
                f"region {self.name!r} [{self.offset}, "
                f"{self.offset + self.length}) exceeds its buffer"
            )


@dataclass(frozen=True)
class ScatterEntry:
    """One piece of an ADU's fan-out: source slice → region slice."""

    source_offset: int
    region_name: str
    region_offset: int
    length: int


class ScatterMap:
    """How an ADU's bytes are distributed into application regions.

    The map is pure description; :meth:`ApplicationAddressSpace.deliver`
    executes it.  Entry count is the measure of delivery complexity the
    outboard-processor ablation uses.
    """

    def __init__(self, entries: list[ScatterEntry] | None = None):
        self.entries: list[ScatterEntry] = list(entries or [])

    @classmethod
    def linear(cls, region_name: str, region_offset: int, length: int) -> "ScatterMap":
        """The simple case: the whole ADU lands contiguously."""
        return cls([ScatterEntry(0, region_name, region_offset, length)])

    def add(
        self, source_offset: int, region_name: str, region_offset: int, length: int
    ) -> None:
        """Append a fan-out entry."""
        if source_offset < 0 or region_offset < 0 or length < 0:
            raise BufferError_("scatter entries must have non-negative fields")
        self.entries.append(
            ScatterEntry(source_offset, region_name, region_offset, length)
        )

    @property
    def total_bytes(self) -> int:
        """Bytes the map delivers."""
        return sum(entry.length for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class ApplicationAddressSpace:
    """Named regions an application exposes for ADU delivery."""

    def __init__(self, label: str = "app"):
        self.label = label
        self._regions: dict[str, Region] = {}
        self.bytes_delivered = 0

    def add_region(self, name: str, length: int) -> Region:
        """Create and register a fresh region of ``length`` bytes."""
        if name in self._regions:
            raise BufferError_(f"region {name!r} already exists in {self.label}")
        region = Region(name, bytearray(length), 0, length)
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        if name not in self._regions:
            raise BufferError_(f"no region {name!r} in {self.label}")
        return self._regions[name]

    def region_names(self) -> list[str]:
        """All registered region names."""
        return list(self._regions)

    def deliver(self, payload: bytes | BufferChain, scatter: ScatterMap) -> int:
        """Execute a scatter map: move ADU bytes into their regions.

        Returns the number of bytes moved.  This is the real "move to
        application address space" manipulation; the stage layer charges
        a copy pass for it.  A :class:`BufferChain` payload is gathered
        straight from its segments into the regions — the chain is never
        pre-joined, so the move is the datapath's *only* copy.
        """
        is_chain = isinstance(payload, BufferChain)
        moved = 0
        for entry in scatter.entries:
            if entry.source_offset + entry.length > len(payload):
                raise BufferError_(
                    f"scatter entry reads [{entry.source_offset}, "
                    f"{entry.source_offset + entry.length}) beyond payload "
                    f"of {len(payload)} bytes"
                )
            region = self.region(entry.region_name)
            if entry.region_offset + entry.length > region.length:
                raise BufferError_(
                    f"scatter entry writes past region {region.name!r} "
                    f"(offset {entry.region_offset}, length {entry.length}, "
                    f"region length {region.length})"
                )
            start = region.offset + entry.region_offset
            if is_chain:
                payload.copy_into(
                    memoryview(region.data)[start : start + entry.length],
                    src_offset=entry.source_offset,
                    length=entry.length,
                )
            else:
                piece = payload[
                    entry.source_offset : entry.source_offset + entry.length
                ]
                DATAPATH.record_copy(entry.length, label="deliver")
                region.data[start : start + entry.length] = piece
            moved += entry.length
        self.bytes_delivered += moved
        return moved

    def read_region(self, name: str) -> bytes:
        """The current contents of a region."""
        region = self.region(name)
        return bytes(region.data[region.offset : region.offset + region.length])
