"""Compile-once ILP fast path: cached fusion plans + batched execution.

The planner in :mod:`repro.ilp.fusion` is correct but was being invoked
*per ADU*: every unit of steady-state traffic re-derived the same fusion
groups and re-assembled the same loop — the per-unit control overhead
the paper says should be amortized (§6).  This module moves planning to
compile time:

* :class:`PipelineCompiler` runs ``plan_fusion`` **once** for a
  (pipeline, machine profile, speculative) triple, lowers each fusable
  group to word kernels where the stages support it, and precomputes the
  per-word and per-invocation cycle prices of every group;
* :class:`CompiledPlan` is the immutable result.  ``execute`` replays
  the plan over a live pipeline's stages (the general path — identical
  semantics to the old per-ADU executor, minus the planning);
  ``run``/``run_batch`` drive the lowered kernel form directly;
* :class:`PlanCache` is a thread-safe LRU keyed by the *structural
  signature* of the pipeline (stage types, names, costs, facts — never
  the pipeline's display name, which transports mint per ADU) plus the
  profile name, initial facts and speculative flag, with hit / miss /
  eviction counters surfaced via ``repro stats``;
* :meth:`CompiledPlan.run_batch` packs many ADUs into one padded 2-D
  word array so each kernel makes a single vectorized pass over the
  whole batch — one interpreter dispatch per kernel per *batch* instead
  of per ADU.

Byte-identity with the unbatched path is maintained exactly: rows carry
their true byte lengths, and between integrated loops the padding is
re-zeroed just as the unbatched path's store/reload through bytes does.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.buffers.chain import BufferChain
from repro.errors import PipelineError
from repro.ilp.fusion import fused_group_cost, plan_fusion
from repro.ilp.kernels import PAD_LANES, Array, WordKernel, gather_words, pack_native
from repro.ilp.kernels import words_to_bytes as unpack_words
from repro.machine.accounting import (
    AtomicCacheStats,
    DATAPATH,
    integrity_counters,
)
from repro.ilp.pipeline import Pipeline
from repro.ilp.report import ExecutionReport, StageExecution
from repro.machine.costs import CostVector
from repro.machine.profile import MachineProfile
from repro.stages.base import Stage
from repro.units import bytes_to_words as words_covering

StageSignature = tuple


def stage_signature(stage: Stage) -> StageSignature:
    """Structural identity of one stage for plan-cache keys.

    Two stages with equal signatures must plan identically *and* lower
    to the same kernel behaviour.  Parameterized lowerable stages
    (e.g. :class:`~repro.stages.encrypt.WordXorStage`) expose a
    ``lowering_token`` so their parameters enter the key.
    """
    cost = stage.cost
    token = getattr(stage, "lowering_token", None)
    return (
        type(stage).__qualname__,
        stage.name,
        stage.category,
        (
            cost.reads_per_word,
            cost.writes_per_word,
            cost.alu_per_word,
            cost.calls_per_word,
            cost.per_call_ops,
        ),
        tuple(sorted(stage.requires)),
        tuple(sorted(stage.provides)),
        bool(stage.fusable),
        token() if callable(token) else None,
    )


@dataclass(frozen=True)
class PlanKey:
    """Cache key: what a compiled plan depends on — and nothing else.

    Deliberately excludes the pipeline's display name: the transports
    mint a fresh ``adu-<seq>`` name per unit, and keying on it would
    defeat the cache entirely.
    """

    stages: tuple[StageSignature, ...]
    profile_name: str
    initial_facts: frozenset[str]
    speculative: bool


def plan_key(
    pipeline: Pipeline, profile: MachineProfile, speculative: bool = False
) -> PlanKey:
    """The cache key for compiling ``pipeline`` on ``profile``."""
    return PlanKey(
        stages=tuple(stage_signature(stage) for stage in pipeline.stages),
        profile_name=profile.name,
        initial_facts=pipeline.initial_facts,
        speculative=bool(speculative),
    )


@dataclass(frozen=True)
class CompiledGroup:
    """One integrated loop, with its prices precomputed.

    Attributes:
        label: joined stage names, as in execution reports.
        category: ledger category of the loop (its first stage's).
        start, stop: the group's slice of the pipeline's stage list.
        cost: fused per-word cost vector of the loop.
        cycles_per_word: ``cost`` priced on the compiling profile.
        cycles_per_invocation: fixed setup cycles per loop entry.
        memory_pass: whether the loop touches memory at all.
        kernels: lowered word kernels, or None when any stage in the
            group has no kernel form (the group then runs on the stage
            path only).
    """

    label: str
    category: str
    start: int
    stop: int
    cost: CostVector
    cycles_per_word: float
    cycles_per_invocation: float
    memory_pass: bool
    kernels: tuple[WordKernel, ...] | None


@dataclass
class BatchResult:
    """Outcome of :meth:`CompiledPlan.run_batch`.

    Attributes:
        outputs: transformed payloads, one per input ADU, byte-identical
            to running each ADU through :meth:`CompiledPlan.run`.
        observations: kernel name → per-ADU observation list (e.g. the
            checksum of every ADU in the batch).
        plan: the plan that ran the batch.
        lengths: true byte length of every input ADU.
    """

    outputs: list[bytes]
    observations: dict[str, list[int]]
    plan: "CompiledPlan" = field(repr=False)
    lengths: list[int] = field(repr=False)

    @property
    def n_adus(self) -> int:
        """Number of ADUs in the batch."""
        return len(self.outputs)

    @cached_property
    def report(self) -> ExecutionReport:
        """One modelled execution report for the whole batch; its cycle
        totals equal the sum of the per-ADU reports.  Priced on first
        access — the transports never read it."""
        return self.plan._batch_report(self.lengths)


def _pack_batch(
    adus: Sequence[bytes | BufferChain],
) -> tuple[Array, list[int], Array | None, Array | None, bool]:
    """Pack ADUs into one (adu, word) array of their native byte images.

    Rows may be ``bytes`` or scatter-gather :class:`BufferChain`s.  A
    single aligned row held in one buffer (``bytes``, or a one-segment
    chain) is viewed in place: no gather, no masks.  Otherwise every
    row's pieces — a chain's segments or a byte row, plus a zero pad for
    a row shorter than the batch width — are joined into one writable
    buffer, the batch's single gather (recorded as ``batch-gather``; the
    chains' references are untouched).  The kernels then transform that
    buffer in place.

    Returns ``(words, lengths, word_keep, byte_keep, owned)``:

    * ``words`` — shape (n, W) uint32, W = max words over the batch,
      short rows zero-padded;
    * ``lengths`` — true byte length per row;
    * ``word_keep`` — mask zeroing the whole words a row does not own
      (its columns beyond ceil(len/4)).  Applied after every transform
      so that batch-only padding can never leak into an observation —
      the unbatched path has no such words at all;
    * ``byte_keep`` — additionally zeroes the sub-word pad bytes of a
      row's final partial word.  Applied between integrated loops,
      mirroring the unbatched path's store/reload through bytes;
    * ``owned`` — False when ``words`` views the caller's row in place
      (kernels must not write it), True for the gather buffer.

    Both masks are None when every row is exactly ``W * 4`` bytes: no
    row then owns a pad byte, so there is nothing to re-zero.
    """
    rows = [
        adu.memoryviews() if isinstance(adu, BufferChain) else [adu]
        for adu in adus
    ]
    lengths = [
        len(row[0]) if len(row) == 1 else sum(map(len, row)) for row in rows
    ]
    if len(rows) == 1 and len(rows[0]) == 1:
        length = lengths[0]
        if length and not length % 4:
            words = np.frombuffer(rows[0][0], dtype=np.uint32)
            return words.reshape(1, -1), lengths, None, None, False
    width = max((max(lengths) + 3) // 4, 1)
    row_bytes = width * 4
    pieces: list[bytes | memoryview] = []
    ragged = False
    for row, length in zip(rows, lengths):
        pieces.extend(row)
        if length != row_bytes:
            pieces.append(bytes(row_bytes - length))
            ragged = True
    DATAPATH.record_copy(sum(lengths), label="batch-gather")
    words = np.frombuffer(bytearray().join(pieces), dtype=np.uint32)
    words = words.reshape(-1, width)
    if not ragged:
        return words, lengths, None, None, True

    sizes = np.array(lengths, dtype=np.int64)
    nwords = (sizes + 3) // 4
    word_keep = np.where(
        np.arange(width)[None, :] < nwords[:, None], 0xFFFFFFFF, 0
    ).astype(np.uint32)
    byte_keep = word_keep.copy()
    rem = sizes % 4
    partial = np.nonzero(rem)[0]
    if partial.size:
        # A row keeping `rem` bytes of its last word keeps every lane of
        # that word's native image but the pad lanes.
        keep = (~PAD_LANES[rem[partial]] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        byte_keep[partial, nwords[partial] - 1] = keep
    return words, lengths, word_keep, byte_keep, True


def _unpack_batch(
    words: Array,
    lengths: Sequence[int],
    rows: Sequence[bytes | BufferChain] | None = None,
) -> list[bytes]:
    """Row-wise inverse of :func:`_pack_batch`: one ``tobytes`` hand-off
    per row (truncated to its true length), recorded as one
    ``batch-unpack`` copy per row.  ``rows`` are the batch's inputs when
    no kernel transformed them: a ``bytes`` row is then its own output."""
    row_bytes = 4 * words.shape[1]
    image = memoryview(np.ascontiguousarray(words).reshape(-1)).cast("B")
    outputs = []
    copied = handed = 0
    for index, length in enumerate(lengths):
        if rows is not None and type(rows[index]) is bytes:
            outputs.append(rows[index])
            continue
        start = index * row_bytes
        outputs.append(image[start : start + length].tobytes())
        copied += length
        handed += 1
    if handed:
        DATAPATH.record_copy(copied, label="batch-unpack", count=handed)
    return outputs


def _observer_limit(groups: Sequence[CompiledGroup]) -> int | None:
    """Byte prefix a pure-observer plan needs, or None for the whole ADU.

    The compile-time condition for the covered-gather fast path: every
    kernel preserves the data (no transform will run) *and* every
    finalizer declares a :attr:`~repro.ilp.kernels.WordKernel.coverage_limit`.
    The limit is the furthest byte any finalizer can read — a
    ``headers_only`` integrity policy yields its prefix length, ``none``
    yields 0, and the batch executor packs only that much of each row.
    """
    limit = 0
    for group in groups:
        if group.kernels is None:
            return None
        for kernel in group.kernels:
            if not kernel.preserves_data:
                return None
            if kernel.finalize is not None:
                if kernel.coverage_limit is None:
                    return None
                limit = max(limit, kernel.coverage_limit)
    return limit


def _transform(kernel: WordKernel, words: Array, owned: bool) -> Array:
    """Apply a transforming kernel: in place on an array the executor
    owns, else into a fresh output array (which the executor then owns)."""
    if owned and kernel.inplace is not None:
        return kernel.inplace(words)
    return kernel.transform(words)


def _run_loop(
    kernels: Sequence[WordKernel],
    reads: bool,
    data,
    words: Array,
    length: int,
    owned: bool,
    observations: dict[str, int],
) -> bytes:
    """One integrated loop over one ADU's native ``words``, packed from
    ``data`` (None when gathered from a chain); returns its output.

    Each kernel's finalizer observes the data the kernel sees, before its
    transform; transforms after the first (and the first, on a padded
    pack or a gather buffer) rewrite the loop's own array in place.  A
    loop in which nothing transforms returns a ``bytes`` input itself,
    and a ``reads`` loop over a zero-copy view records its one read pass.
    """
    transformed = False
    for kernel in kernels:
        if kernel.finalize is not None:
            observations[kernel.name] = kernel.finalize(words, length)
        if not kernel.preserves_data:
            words = _transform(kernel, words, owned)
            owned = transformed = True
    if transformed or type(data) is not bytes:
        return unpack_words(words, length)
    if reads and not owned:
        DATAPATH.record_read_pass(length)
    return data


class CompiledPlan:
    """An immutable, reusable execution plan for one pipeline shape.

    Built by :class:`PipelineCompiler`; shared freely across threads and
    flows (it holds no mutable state — per-run state lives in the live
    stages passed to :meth:`execute`).
    """

    __slots__ = (
        "key",
        "profile",
        "groups",
        "speculative_facts",
        "pipeline_name",
        "n_stages",
        "fully_lowered",
        "_observer_limit",
        "_finalizers",
        "_loops",
    )

    def __init__(
        self,
        key: PlanKey,
        profile: MachineProfile,
        groups: tuple[CompiledGroup, ...],
        speculative_facts: frozenset[str],
        pipeline_name: str,
    ):
        self.key = key
        self.profile = profile
        self.groups = groups
        self.speculative_facts = speculative_facts
        # The name of the pipeline the plan was compiled from; batch
        # reports carry it (per-ADU reports use the live pipeline's).
        self.pipeline_name = pipeline_name
        self.n_stages = len(key.stages)
        # True when every group has a kernel form, enabling run() and
        # run_batch().
        self.fully_lowered = all(group.kernels is not None for group in groups)
        self._observer_limit = _observer_limit(groups)
        self._finalizers = tuple(
            kernel
            for group in groups
            if group.kernels is not None
            for kernel in group.kernels
            if kernel.finalize is not None
        )
        # Per lowered loop, what the kernel executors consult per call:
        # (kernels, whether a finalizer's read is charged by the
        # executor, whether the loop can stream over a chain).
        self._loops = (
            tuple(
                (
                    group.kernels,
                    any(kernel.read_pass for kernel in group.kernels),
                    self._group_streams(group),
                )
                for group in groups
            )
            if self.fully_lowered
            else ()
        )

    @property
    def n_loops(self) -> int:
        """Number of integrated loops the plan executes."""
        return len(self.groups)

    def _require_lowered(self) -> None:
        if not self.fully_lowered:
            unlowered = [g.label for g in self.groups if g.kernels is None]
            raise PipelineError(
                f"plan for {self.pipeline_name!r} is not fully lowered "
                f"(stage-path groups: {unlowered}); use execute() instead"
            )

    def execute(self, pipeline: Pipeline, data: bytes) -> tuple[bytes, ExecutionReport]:
        """Run the live ``pipeline``'s stages under this plan's grouping.

        Semantics are identical to planning + executing per ADU — the
        stages really run, stateful ones included — but the fusion plan
        and all cycle prices come precomputed.
        """
        stages = pipeline.stages
        if len(stages) != len(self.key.stages):
            raise PipelineError(
                f"plan compiled for {len(self.key.stages)} stages cannot "
                f"execute a {len(stages)}-stage pipeline"
            )
        report = ExecutionReport(
            pipeline_name=pipeline.name,
            mode="integrated",
            profile=self.profile,
            payload_bytes=len(data),
            speculative_facts=set(self.speculative_facts),
        )
        for group in self.groups:
            pass_bytes = len(data)
            for stage in stages[group.start : group.stop]:
                data = stage.apply(data)
                pass_bytes = max(pass_bytes, len(data))
            cycles = (
                words_covering(pass_bytes) * group.cycles_per_word
                + group.cycles_per_invocation
            )
            report.executions.append(
                StageExecution(
                    label=group.label,
                    category=group.category,
                    n_bytes=pass_bytes,
                    cycles=cycles,
                    memory_pass=group.memory_pass,
                )
            )
        return data, report

    def run(self, data: bytes) -> tuple[bytes, dict[str, int]]:
        """Kernel fast path for one ADU: one fused pass per loop.

        Requires :attr:`fully_lowered`.  Returns (output bytes,
        observations keyed by kernel name).  Each loop views the
        payload's native byte image in place (:func:`pack_native`
        copies only a padded tail); the first transform allocates the
        loop's one output array, and later transforms rewrite it in
        place.  A loop in which no kernel transforms returns its
        ``bytes`` input itself — nothing is unpacked — and its read is
        recorded as a read pass.
        """
        if not self.fully_lowered:
            self._require_lowered()
        observations: dict[str, int] = {}
        for kernels, reads, _ in self._loops:
            words, length, owned = pack_native(data)
            data = _run_loop(kernels, reads, data, words, length, owned, observations)
        return data, observations

    @staticmethod
    def _group_streams(group: CompiledGroup) -> bool:
        """Whether every kernel in ``group`` can run on the chain path:
        observers need a ``chain_finalize``, transformers a
        ``chain_transform``."""
        return all(
            (kernel.preserves_data or kernel.chain_transform is not None)
            and (kernel.finalize is None or kernel.chain_finalize is not None)
            for kernel in group.kernels
        )

    def run_chain(
        self, chain: BufferChain
    ) -> tuple[BufferChain | bytes, dict[str, int]]:
        """Kernel fast path over a scatter-gather chain.

        Groups whose kernels are all *chain-capable* run without ever
        gathering: observers (checksum) make one read pass over the
        segments via ``chain_finalize``, and transforming kernels with a
        ``chain_transform`` (encrypt/decrypt) stream segment-by-segment
        into a fresh chain with the same geometry — the scatter-gather
        structure survives the whole group.  As in the word loop, each
        kernel's observation is taken on its *pre-transform* data.  The
        first group with a chain-incapable kernel gathers the chain into
        words once (:func:`~repro.ilp.kernels.gather_words` — one pass,
        no intermediate ``bytes``) and execution continues on the
        materialized form.

        Returns (output, observations).  The output is the input chain
        itself when nothing transformed, a **new caller-owned chain**
        (release it when spent; the input's references are untouched)
        when a streaming transform ran, or ``bytes`` when a group
        materialized.  Observations are identical to
        ``run(chain.linearize())``.
        """
        if not self.fully_lowered:
            self._require_lowered()
        observations: dict[str, int] = {}
        data: BufferChain | bytes = chain
        owned = False  # do we own `data` (an intermediate chain we made)?
        for kernels, reads, streams in self._loops:
            if streams and isinstance(data, BufferChain):
                for kernel in kernels:
                    if kernel.chain_finalize is not None:
                        observations[kernel.name] = kernel.chain_finalize(data)
                    if kernel.chain_transform is not None:
                        transformed = kernel.chain_transform(data)
                        if owned:
                            data.release()
                        data = transformed
                        owned = True
                continue
            if isinstance(data, BufferChain):
                words, length = gather_words(data)
                if owned:
                    data.release()
                    owned = False
                data, words_owned = None, True
            else:
                words, length, words_owned = pack_native(data)
            data = _run_loop(
                kernels, reads, data, words, length, words_owned, observations
            )
        return data, observations

    def run_batch(self, adus: Sequence[bytes | BufferChain]) -> BatchResult:
        """Run many ADUs through the plan in one vectorized pass per kernel.

        Payloads — ``bytes`` or scatter-gather chains, freely mixed —
        are packed into a single padded 2-D array of their native byte
        images by one gather into a writable buffer (chain segments join
        it directly, no per-ADU linearize; a single aligned row in one
        buffer is viewed with no gather at all); each kernel's transform
        (in place on the gather buffer) and (vectorized) finalizer then
        touch the whole batch at once.  Pad masks are applied only when
        some row is not exactly the batch width, and the batch's
        execution report is priced only when read.  Outputs are one
        ``bytes`` hand-off per row, or the row itself for a ``bytes`` row
        no kernel transformed.  Outputs and observations are byte- and
        value-identical to calling :meth:`run` per ADU; input chains'
        references are untouched.
        """
        if not self.fully_lowered:
            self._require_lowered()
        if not adus:
            raise PipelineError("run_batch needs at least one ADU")
        if self._observer_limit is not None:
            return self._run_batch_covered(adus, self._observer_limit)
        words, lengths, word_keep, byte_keep, owned = _pack_batch(adus)
        observations: dict[str, list[int]] = {}
        transformed = False
        last = len(self._loops) - 1
        for index, (kernels, reads, _) in enumerate(self._loops):
            for kernel in kernels:
                if kernel.finalize is not None:
                    observations[kernel.name] = self._observe(kernel, words, lengths)
                if kernel.preserves_data:
                    continue
                words = _transform(kernel, words, owned)
                owned = transformed = True
                if word_keep is not None:
                    # A short row's unused columns must stay zero: the
                    # unbatched path has no such words, so nothing a
                    # kernel writes there may survive to be observed.
                    np.bitwise_and(words, word_keep, out=words)
            if reads and not owned:
                DATAPATH.record_read_pass(sum(lengths))
            if byte_keep is not None and transformed and index != last:
                # Between loops the unbatched path stores to bytes and
                # reloads, which re-zeroes each row's sub-word padding.
                np.bitwise_and(words, byte_keep, out=words)
        outputs = _unpack_batch(words, lengths, None if transformed else adus)
        return BatchResult(outputs, observations, self, lengths)

    @staticmethod
    def _observe(kernel: WordKernel, words: Array, lengths: list[int]) -> list[int]:
        """One finalizer observation per row of the packed batch (the
        scalar finalizer for a one-row batch)."""
        if len(lengths) == 1:
            return [kernel.finalize(words[0], lengths[0])]
        if kernel.batch_finalize is not None:
            return kernel.batch_finalize(words, np.array(lengths, dtype=np.int64))
        return [
            kernel.finalize(words[i, :], length) for i, length in enumerate(lengths)
        ]

    def _run_batch_covered(
        self, adus: Sequence[bytes | BufferChain], limit: int
    ) -> BatchResult:
        """Observer-only batch with the gather truncated to ``limit`` bytes.

        No kernel will transform, so each output *is* its input's bytes
        (chains linearize once — the same single materialization the
        delivery path would otherwise perform).  Only the covered prefix
        of each row is packed for the finalizers: a ``headers_only``
        policy folds a few words per ADU, a ``none`` policy folds
        nothing, and the payload body never crosses the pack.  Bytes the
        truncation never packed are charged to the integrity counters as
        skipped.
        """
        outputs: list[bytes] = []
        heads: list[bytes] = []
        skipped = 0
        for payload in adus:
            if isinstance(payload, BufferChain):
                data = payload.linearize()
            elif isinstance(payload, bytes):
                data = payload
            else:
                data = bytes(payload)
                DATAPATH.record_copy(len(data), label="batch-bytes")
            outputs.append(data)
            if len(data) > limit:
                skipped += len(data) - limit
                data = data[:limit]
            heads.append(data)
        if skipped:
            integrity_counters().record_skipped(skipped)
        words, lengths, _, _, _ = _pack_batch(heads)
        observations = {
            kernel.name: self._observe(kernel, words, lengths)
            for kernel in self._finalizers
        }
        return BatchResult(outputs, observations, self, [len(out) for out in outputs])

    def _batch_report(self, lengths: Sequence[int]) -> ExecutionReport:
        n = len(lengths)
        total_words = sum((length + 3) // 4 for length in lengths)
        total_bytes = sum(lengths)
        report = ExecutionReport(
            pipeline_name=self.pipeline_name,
            mode="integrated-batch",
            profile=self.profile,
            payload_bytes=total_bytes,
            speculative_facts=set(self.speculative_facts),
        )
        for group in self.groups:
            cycles = (
                total_words * group.cycles_per_word
                + n * group.cycles_per_invocation
            )
            report.executions.append(
                StageExecution(
                    label=group.label,
                    category=group.category,
                    n_bytes=total_bytes,
                    cycles=cycles,
                    memory_pass=group.memory_pass,
                )
            )
        return report


def _lower_group(stages: Sequence[Stage]) -> tuple[WordKernel, ...] | None:
    """Lower a fused group to kernels, or None if any stage cannot."""
    kernels: list[WordKernel] = []
    for stage in stages:
        hook = getattr(stage, "to_word_kernel", None)
        kernel = hook() if callable(hook) else None
        if kernel is None:
            return None
        kernels.append(kernel)
    return tuple(kernels)


class PipelineCompiler:
    """Compiles a pipeline into a :class:`CompiledPlan` for one profile.

    Args:
        profile: machine to price the plan on.
        speculative: permit facts produced inside a loop to satisfy
            requirements inside the same loop (as in
            :class:`~repro.ilp.executor.IntegratedExecutor`).
    """

    def __init__(self, profile: MachineProfile, speculative: bool = False):
        self.profile = profile
        self.speculative = bool(speculative)

    def compile(self, pipeline: Pipeline) -> CompiledPlan:
        """Plan fusion once and lower the result."""
        plan = plan_fusion(
            pipeline.stages, pipeline.initial_facts, speculative=self.speculative
        )
        groups: list[CompiledGroup] = []
        cursor = 0
        for group_stages in plan.groups:
            cost = fused_group_cost(group_stages)
            start, stop = cursor, cursor + len(group_stages)
            cursor = stop
            groups.append(
                CompiledGroup(
                    label="+".join(stage.name for stage in group_stages),
                    category=group_stages[0].category,
                    start=start,
                    stop=stop,
                    cost=cost,
                    cycles_per_word=self.profile.cycles_per_word(cost),
                    cycles_per_invocation=cost.per_call_ops * self.profile.alu_cycles,
                    memory_pass=cost.reads_per_word > 0 or cost.writes_per_word > 0,
                    kernels=_lower_group(group_stages),
                )
            )
        return CompiledPlan(
            key=plan_key(pipeline, self.profile, self.speculative),
            profile=self.profile,
            groups=tuple(groups),
            speculative_facts=frozenset(plan.speculative_facts),
            pipeline_name=pipeline.name,
        )


class PlanCacheStats(AtomicCacheStats):
    """Hit/miss/eviction counters for one :class:`PlanCache`.

    The shared cache is public and process-wide, so a caller outside the
    simulator may read it from several threads; the counters are atomic
    for them: increments go through lock-guarded record methods rather
    than bare ``+=`` on plain ints (which can lose updates between
    bytecodes under concurrent access).
    """


class PlanCache:
    """Thread-safe LRU cache of compiled plans.

    Keyed by :func:`plan_key`; compilation happens under the lock, so
    concurrent lookups of the same key compile exactly once.

    :meth:`get_configured` additionally maps a caller's *configuration
    token* to the :class:`PlanKey` its pipeline produced, so an endpoint
    whose configuration was seen before fetches its plan without
    building a pipeline or a key.  The plan still comes from the same
    LRU: hits, misses, recency and evictions count exactly as a
    :meth:`get_or_compile` of the same pipeline would, and a token whose
    plan was evicted compiles again.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise PipelineError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[PlanKey, CompiledPlan] = OrderedDict()
        self._configured: dict[Hashable, PlanKey] = {}
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def get_or_compile(
        self,
        pipeline: Pipeline,
        profile: MachineProfile,
        speculative: bool = False,
    ) -> CompiledPlan:
        """The cached plan for this pipeline shape, compiling on miss."""
        key = plan_key(pipeline, profile, speculative)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.record_hit()
                return plan
            self.stats.record_miss()
            plan = PipelineCompiler(profile, speculative=speculative).compile(pipeline)
            # Keyed by the plan's own key object, so a configuration
            # token's key finds it by identity.
            self._plans[plan.key] = plan
            while len(self._plans) > self.capacity:
                evicted, _ = self._plans.popitem(last=False)
                self.stats.record_eviction()
                self._forget(evicted)
            return plan

    def get_configured(
        self,
        token: Hashable,
        build: Callable[[], Pipeline],
        profile: MachineProfile,
    ) -> CompiledPlan:
        """The cached plan for a configuration ``token``.

        ``token`` must determine the plan key of ``build()`` on
        ``profile``: two tokens may share a plan, but one token never
        names two.  A known token whose plan is still cached is one hit;
        otherwise ``build()`` runs through :meth:`get_or_compile` and the
        token learns the key.
        """
        with self._lock:
            key = self._configured.get(token)
            plan = self._plans.get(key) if key is not None else None
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.record_hit()
                return plan
        plan = self.get_or_compile(build(), profile)
        with self._lock:
            if plan.key in self._plans:
                self._configured[token] = plan.key
        return plan

    def _forget(self, key: PlanKey) -> None:
        """Drop the tokens of an evicted key (caller holds the lock)."""
        stale = [token for token, known in self._configured.items() if known == key]
        for token in stale:
            del self._configured[token]

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._configured.clear()
            self.stats = PlanCacheStats()

    def snapshot(self) -> dict[str, float]:
        """Stats plus occupancy, for ``repro stats`` and benches."""
        with self._lock:
            data = self.stats.as_dict()
            data["entries"] = len(self._plans)
            data["capacity"] = self.capacity
            return data


_SHARED_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide cache the executors and transports default to."""
    return _SHARED_CACHE
