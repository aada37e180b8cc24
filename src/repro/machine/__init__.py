"""Machine cost model.

The paper's quantitative argument is made in *memory cycles per word*: data
manipulation touches every byte of a packet, so its cost is dominated by
memory reads and writes, while transfer control executes a handful of
instructions per packet.  CPython wall-clock cannot expose those effects,
so this package makes them explicit: data-manipulation stages declare how
many reads, writes, ALU operations and procedure calls they perform per
32-bit word, and a :class:`MachineProfile` prices those operations in
cycles for a concrete machine.

Profiles for the paper's two machines (µVax III and MIPS R2000) are
calibrated from Table 1 plus the integrated-loop measurement; the
derivation lives in :mod:`repro.machine.profile`.  Every other number in
the reproduction is *predicted* from these profiles, not fitted.
"""

from repro.machine.costs import CostVector, ZERO_COST
from repro.machine.profile import (
    MachineProfile,
    MICROVAX_III,
    MIPS_R2000,
    SUPERSCALAR,
    PROFILES,
    profile_by_name,
)
from repro.machine.accounting import CycleLedger, LedgerEntry
from repro.machine.throughput import combined_serial_mbps
from repro.machine.cache import DirectMappedCache, CacheStats

__all__ = [
    "CostVector",
    "ZERO_COST",
    "MachineProfile",
    "MICROVAX_III",
    "MIPS_R2000",
    "SUPERSCALAR",
    "PROFILES",
    "profile_by_name",
    "CycleLedger",
    "LedgerEntry",
    "combined_serial_mbps",
    "DirectMappedCache",
    "CacheStats",
]
