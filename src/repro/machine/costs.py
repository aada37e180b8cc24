"""Cost vectors: machine-independent operation counts for a data pass.

A :class:`CostVector` says *what work* a manipulation performs, per 32-bit
word of data it processes, plus fixed per-invocation work.  It is priced in
cycles by a :class:`repro.machine.profile.MachineProfile`, which knows what
each operation costs on a given machine.

Keeping counts (not cycles) in the stages means one stage definition yields
predictions for every machine profile, which is exactly how the paper
argues: the same manipulation loop is measured on a µVax and an R2000.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineModelError


@dataclass(frozen=True)
class CostVector:
    """Operation counts for one data-manipulation pass.

    Per-word fields are averages over a long run (unrolled loops give
    fractional amortized counts), so floats are used throughout.

    Attributes:
        reads_per_word: memory loads per 32-bit word processed.
        writes_per_word: memory stores per word.
        alu_per_word: register-to-register operations per word
            (adds, xors, shifts, compares and taken branches folded in).
        calls_per_word: procedure call/returns per word.  Zero for tuned
            unrolled loops; large for interpretive codecs such as the
            ISODE-style toolkit profile.
        per_call_ops: fixed ALU-equivalent setup work per invocation
            (loop setup, register save/restore), independent of length.
    """

    reads_per_word: float = 0.0
    writes_per_word: float = 0.0
    alu_per_word: float = 0.0
    calls_per_word: float = 0.0
    per_call_ops: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "reads_per_word",
            "writes_per_word",
            "alu_per_word",
            "calls_per_word",
            "per_call_ops",
        ):
            value = getattr(self, name)
            if value < 0:
                raise MachineModelError(f"{name} must be >= 0, got {value}")

    def __add__(self, other: "CostVector") -> "CostVector":
        """Component-wise sum: the cost of doing both passes' work.

        Note this is the *fused* combination: adding two vectors and
        pricing the sum is NOT the same as pricing them separately,
        because a fused loop may drop redundant reads/writes first (see
        :meth:`fuse_after`).  Plain ``+`` performs no such elimination.
        """
        return CostVector(
            self.reads_per_word + other.reads_per_word,
            self.writes_per_word + other.writes_per_word,
            self.alu_per_word + other.alu_per_word,
            self.calls_per_word + other.calls_per_word,
            self.per_call_ops + other.per_call_ops,
        )

    def fuse_after(self, upstream: "CostVector") -> "CostVector":
        """Cost of running *this* pass fused into ``upstream``'s loop.

        This is the heart of Integrated Layer Processing: when two
        manipulations run in one loop, the downstream stage consumes the
        word while it is still in a register, so one read is saved; and
        if the upstream stage only produced the word for the downstream
        stage to consume, its write is also saved (the executor decides
        that part — see :mod:`repro.ilp.fusion`).  Here we model the
        conservative, always-valid saving: the downstream read of the
        value just produced is free.
        """
        saved_reads = min(self.reads_per_word, 1.0)
        return CostVector(
            upstream.reads_per_word + self.reads_per_word - saved_reads,
            upstream.writes_per_word + self.writes_per_word,
            upstream.alu_per_word + self.alu_per_word,
            upstream.calls_per_word + self.calls_per_word,
            upstream.per_call_ops + self.per_call_ops,
        )

    def scaled(self, factor: float) -> "CostVector":
        """All per-word counts multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise MachineModelError(f"scale factor must be >= 0, got {factor}")
        return CostVector(
            self.reads_per_word * factor,
            self.writes_per_word * factor,
            self.alu_per_word * factor,
            self.calls_per_word * factor,
            self.per_call_ops,
        )


ZERO_COST = CostVector()

# The canonical passes the paper measures.  Op counts are the natural ones
# for a hand-coded unrolled loop: a copy loads and stores each word; the
# Internet checksum loads each word and does an add plus an add-with-carry.
COPY_COST = CostVector(reads_per_word=1.0, writes_per_word=1.0)
CHECKSUM_COST = CostVector(reads_per_word=1.0, alu_per_word=2.0)
