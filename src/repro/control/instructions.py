"""Instruction accounting for transfer-control operations.

The paper (§4): the in-band control path of an efficient TCP is "tens,
not hundreds of instructions" — header parse, demultiplex, an in-order
check, acknowledgement computation, some flow-control arithmetic.  The
budgets below are straight-line instruction estimates for each operation,
in line with the per-operation counts reported for the Berkeley BSD TCP
path in Clark/Jacobson/Romkey/Salwen (the paper's reference [3]).

Transports record against these budgets as they run, so E5 measures the
modelled control cost of *actual protocol executions*, not a hand-waved
constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.errors import ReproError


@dataclass(frozen=True)
class InstructionCosts:
    """Straight-line instruction budgets per control operation."""

    header_parse: int = 10
    demux_lookup: int = 12
    sequence_check: int = 5
    ack_compute: int = 15
    flow_window_update: int = 20
    congestion_update: int = 12
    timer_set: int = 8
    timer_cancel: int = 4
    timestamp: int = 4
    reassembly_bookkeeping: int = 10

    @cached_property
    def budgets(self) -> dict[str, int]:
        """Every operation's budget by name, resolved once per costs
        object (every counter sharing it reads the same table)."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}


DEFAULT_COSTS = InstructionCosts()


@dataclass
class InstructionCounter:
    """Accumulates control-path instruction counts by operation."""

    costs: InstructionCosts = field(default_factory=lambda: DEFAULT_COSTS)
    by_operation: dict[str, int] = field(default_factory=dict)
    packets_processed: int = 0

    def record(self, *operations: str, times: int = 1) -> int:
        """Charge each of ``operations`` ``times`` times, in order;
        returns instructions added.  One layer event that performs
        several control operations charges them in one call."""
        if times < 0:
            raise ReproError("times must be >= 0")
        budgets = self.costs.budgets
        by_operation = self.by_operation
        added = 0
        try:
            for operation in operations:
                cost = budgets[operation] * times
                by_operation[operation] = by_operation.get(operation, 0) + cost
                added += cost
        except KeyError as error:
            raise ReproError(f"unknown control operation {error.args[0]!r}") from None
        return added

    def note_packet(self) -> None:
        """Count one packet through the control path (for per-packet averages)."""
        self.packets_processed += 1

    @property
    def total(self) -> int:
        """All instructions recorded."""
        return sum(self.by_operation.values())

    def per_packet(self) -> float:
        """Average control instructions per packet processed."""
        if self.packets_processed == 0:
            return 0.0
        return self.total / self.packets_processed

    def merge(self, other: "InstructionCounter") -> None:
        """Fold another counter's records into this one."""
        for operation, count in other.by_operation.items():
            self.by_operation[operation] = self.by_operation.get(operation, 0) + count
        self.packets_processed += other.packets_processed
