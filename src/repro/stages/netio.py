"""Network I/O stages: moving data to/from the net.

"The most obvious and unavoidable manipulation function is the actual
transfer of the data in or out of the network itself, which usually
involves some sort of serial-to-parallel transformation.  This function
is usually performed in custom hardware" (paper §3).

These stages model the extraction (receive) and injection (send) passes.
With ``hardware_offload=True`` (the default, matching the paper) the CPU
cost is zero but a memory *write* pass still happens — the DMA engine
fills host memory, and that bandwidth is consumed either way.  They are
marked non-fusable: software cannot join a loop that hardware runs, with
the one classical exception (a NIC that checksums on the fly) modelled by
:attr:`NetworkExtractStage.checksums_in_hardware`.
"""

from __future__ import annotations

from repro.buffers.chain import BufferChain
from repro.machine.accounting import DATAPATH
from repro.machine.costs import CostVector
from repro.stages.base import Facts, Stage

_DMA_WRITE = CostVector(writes_per_word=1.0)
_DMA_READ = CostVector(reads_per_word=1.0)
_PIO_COPY = CostVector(reads_per_word=1.0, writes_per_word=1.0, alu_per_word=1.0)


class NetworkExtractStage(Stage):
    """Serial-to-parallel extraction of arriving data into host memory."""

    name = "net-extract"
    category = "netio"
    provides = frozenset({Facts.EXTRACTED})
    fusable = False

    def __init__(self, hardware_offload: bool = True, checksums_in_hardware: bool = False):
        self.hardware_offload = hardware_offload
        self.checksums_in_hardware = checksums_in_hardware
        # Offloaded DMA costs the CPU nothing; programmed I/O is a copy.
        self.cost = CostVector() if hardware_offload else _PIO_COPY
        self.memory_traffic = _DMA_WRITE

    def apply(self, data):
        if isinstance(data, BufferChain):
            # The DMA engine already filled the chain's pool buffers; the
            # extraction leaves the data exactly where it landed.
            DATAPATH.record_zero_copy()
            return data
        return bytes(data)


class NetworkInjectStage(Stage):
    """Parallel-to-serial injection of outgoing data into the network."""

    name = "net-inject"
    category = "netio"
    requires = frozenset()
    fusable = False

    def __init__(self, hardware_offload: bool = True):
        self.hardware_offload = hardware_offload
        self.cost = CostVector() if hardware_offload else _PIO_COPY
        self.memory_traffic = _DMA_READ

    def apply(self, data):
        if isinstance(data, BufferChain):
            # Injection serializes the chain onto the wire segment by
            # segment (the NIC gathers); no host-memory copy happens.
            DATAPATH.record_zero_copy()
            return data
        return bytes(data)
