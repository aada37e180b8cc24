"""Copy-family stages: plain copies, retransmission buffering, and the
move into application address space.

The copy is the paper's reference manipulation ("almost an absolute upper
limit on the throughput that can possibly be achieved for any CPU") and
the unit everything else is compared to.
"""

from __future__ import annotations

from repro.buffers.appspace import ApplicationAddressSpace, ScatterMap
from repro.buffers.chain import BufferChain
from repro.errors import StageError
from repro.machine.accounting import DATAPATH
from repro.machine.costs import COPY_COST
from repro.stages.base import Facts, Stage


class CopyStage(Stage):
    """A word-aligned copy from one memory region to another.

    On the chain datapath the copy degenerates to a reference pass: the
    chain flows through untouched and the avoided copy is recorded.
    """

    category = "transport"
    cost = COPY_COST

    def __init__(self, name: str = "copy", category: str | None = None):
        self.name = name
        if category is not None:
            self.category = category

    def apply(self, data):
        if isinstance(data, BufferChain):
            DATAPATH.record_zero_copy()
            return data
        return bytes(data)

    def to_word_kernel(self):
        """Lower to a word kernel for the compiled fast path."""
        from repro.ilp.kernels import WordKernel

        return WordKernel(
            name=self.name,
            cost=self.cost,
            transform=lambda words: words,
            preserves_data=True,
        )


class BufferForRetransmitStage(Stage):
    """Sender-side retransmission buffering (one of the six manipulations).

    Keeps a reference to everything that passes through, so a lost unit
    could be sent again.  An ALF sender whose application recomputes
    lost data omits this stage entirely — that is one of the recovery
    options §5 requires the architecture to permit, and skipping the
    stage is exactly how its cost disappears.  The stage prices the save
    on a :class:`~repro.core.stack.ProtocolStack` send path; the live
    ALF sender keeps each outstanding ADU itself.

    On the chain datapath the save is a reference snapshot
    (:meth:`~repro.buffers.chain.BufferChain.share` bumps segment
    refcounts, so pool buffers cannot recycle underneath it) and no
    bytes move.
    """

    name = "retransmit-buffer"
    category = "transport"
    cost = COPY_COST

    def __init__(self):
        self._saved: list[bytes | BufferChain] = []
        self._total = 0

    def apply(self, data):
        if isinstance(data, BufferChain):
            saved: bytes | BufferChain = data.share()
        else:
            saved = bytes(data)
        self._saved.append(saved)
        self._total += len(saved)
        return data

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently retained."""
        return self._total

    def reset(self) -> None:
        for unit in self._saved:
            if isinstance(unit, BufferChain):
                unit.release()
        self._saved.clear()
        self._total = 0


class MoveToAppStage(Stage):
    """The final move into (possibly scattered) application memory.

    Requires a complete, verified ADU — this is a stage-two manipulation
    in the paper's two-stage receive structure.  The scatter map is set
    per-ADU via :meth:`set_destination`; a linear map models file
    transfer, a many-entry map models RPC argument delivery.
    """

    name = "move-to-app"
    category = "application"
    cost = COPY_COST
    requires = frozenset({Facts.ADU_COMPLETE, Facts.VERIFIED})
    provides = frozenset({Facts.DELIVERED})

    def __init__(self, app_space: ApplicationAddressSpace):
        self.app_space = app_space
        self._scatter: ScatterMap | None = None

    def set_destination(self, scatter: ScatterMap) -> None:
        """Arm the stage with the current ADU's scatter map."""
        self._scatter = scatter

    def apply(self, data):
        if self._scatter is None:
            raise StageError(
                f"{self.name}: no scatter map set; the sender must specify "
                "the ADU's disposition in terms meaningful to the receiver"
            )
        # deliver() gathers chains straight into the regions — on the
        # chain datapath this move is the path's only copy.
        self.app_space.deliver(data, self._scatter)
        return data

    def reset(self) -> None:
        self._scatter = None
