"""ALF receiver: out-of-order ADU delivery with named losses.

Stage one of the paper's two-stage receive structure: fragments are
examined to determine "which ADU they belong to (the demultiplexing
control operation) and where in the ADU they go (the re-ordering control
operation)".  The moment an ADU completes — regardless of other ADUs —
it is verified and handed up.  ACKs carry ADU names — a cumulative
point, the ADUs received above it, and the missing set — so the sender's
application can reason about losses in its own terms.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.buffers.chain import BufferChain
from repro.control.ack import SelectiveAckTracker
from repro.control.instructions import InstructionCounter
from repro.errors import FramingError
from repro.core.adu import AduFragment, reassemble_fragments
from repro.ilp.compiler import CompiledPlan, PlanCache, shared_plan_cache
from repro.integrity import IntegrityPolicy, integrity_token
from repro.machine.accounting import integrity_counters, pacing_counters
from repro.machine.profile import MIPS_R2000, MachineProfile
from repro.presentation.compiler import schema_fingerprint
from repro.stages.encrypt import WordXorStage, cipher_token
from repro.stages.presentation import PresentationBinding, PresentationConvertStage
from repro.transport.alf.fec import FecDecoder, FecFragment
from repro.transport.alf.sender import WIRE_CHECKSUM, wire_pipeline
from repro.transport.drain import ReadyAdu, SharedDrainEngine
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import Tracer
from repro.transport.base import DeliveredAdu, TransportStats

PROTOCOL = "alf"

DeliverFn = Callable[[DeliveredAdu], None]


@dataclass
class _PartialAdu:
    total: int
    name: dict[str, Any]
    fragments: dict[int, AduFragment] = field(default_factory=dict)
    first_seen: float = 0.0
    fec: FecDecoder | None = None
    # Fragment-relative (lo, hi) corruption hints from the PHY, keyed by
    # fragment index; mapped to ADU offsets when the ADU completes.
    corrupt_hints: dict[int, tuple[int, int]] = field(default_factory=dict)


class AlfReceiver:
    """Receives fragments, delivers complete ADUs immediately.

    Args:
        loop: simulation event loop.
        host: local host (binds flow ``flow_id``).
        peer: the sender's host name (ACK destination).
        flow_id: association identifier.
        deliver: called with a :class:`DeliveredAdu` as soon as the ADU
            completes — this is the out-of-order delivery ALF exists for.
        ack_interval: seconds between ACK transmissions (an ACK is also
            sent on every completed ADU).
        expected_adus: when known, lets :attr:`complete` report overall
            transfer completion.
        machine: profile the compiled wire plan is priced on.
        plan_cache: plan cache to compile through; the wire pipeline's
            shape matches the sender's, so by default both ends of every
            flow share one cached plan.
        zero_copy: assemble completed ADUs as scatter-gather chains over
            the received fragment buffers and checksum them in place
            (one read pass, no join, no pack) — the delivered bytes are
            produced by a single linearize at the hand-off.  ``False``
            restores the layered path: join, pack to words, unpack.
            Delivered payloads are byte-identical either way.
        presentation: a :class:`PresentationBinding` (schema + local and
            wire codecs).  Verified ADUs are converted from the wire
            syntax into the local syntax before delivery — fused into
            the checksum's compiled pass when the conversion lowers to a
            word kernel, through the compiled codecs' streaming chain
            path otherwise.  The delivered payload is the local-syntax
            bytes (no chain loan — the wire-form buffers are released).
        encryption: a :class:`WordXorStage` (or a raw 32-bit key)
            matching the sender's: the wire plan becomes
            ``[checksum, decrypt, convert]`` — verify the ciphertext,
            decrypt, convert back, all in one compiled read pass.  On
            the zero-copy path the decrypt streams over the reassembled
            scatter-gather chain without linearizing it.
        batch_drain: queue completed ADUs instead of verifying each on
            arrival and drain them through :meth:`run_batch` — one
            vectorized verify+decrypt+convert pass over the whole queue,
            amortizing per-ADU dispatch the way the sender's
            ``send_batch`` does.  The drain is self-scheduling (a
            zero-delay event fires after the completing fragment's
            burst), so delivery order and ACK behaviour are preserved
            within a simulation timestep; corrupt ADUs are isolated
            row-by-row without discarding the batch.
        drain_engine: a host-level
            :class:`~repro.transport.drain.SharedDrainEngine` to drain
            through instead of self-draining: completed ADUs queue as
            ready rows and the engine coalesces them with every other
            flow sharing this flow's :attr:`drain_key` into one
            ``run_batch`` dispatch per drain epoch.  Implies the batched
            semantics of ``batch_drain``; the engine calls back into
            :meth:`resolve_drained` per row, so delivery, ACKs and
            per-flow corruption accounting are unchanged.
        integrity: an :class:`~repro.integrity.IntegrityPolicy`
            matching the sender's.  The wire plan's checksum covers
            only the policy's spans, and — the receive half of the
            bargain — damage the PHY flags in an *uncovered* region no
            longer kills the ADU: the checksum still matches, so the
            row delivers with :attr:`DeliveredAdu.corrupt_spans` naming
            the suspect ranges (the paper's ALF "ignore" recovery
            mode).  Damage inside a covered span still fails
            verification and is discarded for retransmission.  The
            policy fingerprint extends :attr:`drain_key`, so flows with
            different coverage never share a drain dispatch.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        flow_id: int,
        deliver: DeliverFn,
        ack_interval: float = 0.05,
        expected_adus: int | None = None,
        machine: MachineProfile | None = None,
        plan_cache: PlanCache | None = None,
        counter: InstructionCounter | None = None,
        tracer: Tracer | None = None,
        zero_copy: bool = True,
        presentation: PresentationBinding | None = None,
        encryption: WordXorStage | int | None = None,
        batch_drain: bool = False,
        drain_engine: SharedDrainEngine | None = None,
        integrity: IntegrityPolicy | None = None,
    ):
        self.loop = loop
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.deliver = deliver
        self.ack_interval = ack_interval
        self.expected_adus = expected_adus
        self.zero_copy = bool(zero_copy)
        self.machine = machine or MIPS_R2000
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.presentation = presentation
        self._convert: PresentationConvertStage | None = (
            presentation.receiver_stage() if presentation is not None else None
        )
        self._convert_fused = (
            self._convert is not None and self._convert.to_word_kernel() is not None
        )
        if isinstance(encryption, int):
            encryption = WordXorStage(encryption, name="decrypt")
        self._encrypt: WordXorStage | None = encryption
        self.integrity = integrity
        self.drain_engine = drain_engine
        self.batch_drain = bool(batch_drain) or drain_engine is not None
        self._wire_plan: CompiledPlan | None = None
        self.counter = counter or InstructionCounter()
        self.tracer = tracer or Tracer(enabled=False)
        self.stats = TransportStats()

        self.acks = SelectiveAckTracker(counter=self.counter)
        self._partial: dict[int, _PartialAdu] = {}
        self._ready: deque[ReadyAdu] = deque()
        self._drain_scheduled = False
        self._defer_acks = 0
        self._ack_pending = False
        self._closed = False
        self.out_of_order_deliveries = 0
        self.fec_recoveries = 0
        self.batch_drains = 0
        self.batch_drained_adus = 0

        host.bind(PROTOCOL, flow_id, self._on_fragment)
        if drain_engine is not None:
            drain_engine.register(self)
        if ack_interval > 0:
            self.loop.schedule(ack_interval, self._periodic_ack)

    @staticmethod
    def _discard_payload(payload) -> None:
        """Retire a chain payload's buffer references (no-op for bytes)."""
        if isinstance(payload, BufferChain):
            payload.release()

    def _release_fragments(self, partial: _PartialAdu) -> None:
        """Release every buffered fragment's chain references."""
        for fragment in partial.fragments.values():
            self._discard_payload(fragment.payload)
        partial.fragments.clear()

    def _on_fragment(self, packet: Packet) -> None:
        self.counter.note_packet()
        self.stats.segments_received += 1
        header = packet.header
        sequence = int(header["adu_seq"])

        if sequence in self.acks:
            self.stats.duplicates_discarded += 1
            self._discard_payload(packet.payload)
            # A retransmission of a delivered ADU means the sender
            # missed our acknowledgement — re-ACK, or a lost ACK
            # becomes an unbounded retransmit loop (the amplification
            # the pacing loop's convergence gate forbids).
            self._send_ack()
            return

        fragment = AduFragment(
            adu_sequence=sequence,
            index=int(header["frag"]),
            total=int(header["nfrags"]),
            adu_length=int(header["adu_len"]),
            adu_checksum=int(header["adu_csum"]),
            name=dict(header["name"]),
            payload=packet.payload,
        )

        self.counter.record("sequence_check")  # which ADU, where in it
        self.counter.record("reassembly_bookkeeping")

        partial = self._partial.get(sequence)
        if partial is None:
            partial = _PartialAdu(
                total=fragment.total, name=fragment.name, first_seen=self.loop.now
            )
            self._partial[sequence] = partial

        fec_info = header.get("fec")
        if fec_info is not None:
            # The XOR decoder works on materialized bytes; a chain
            # payload (e.g. from a DMA receive pool) is linearized here
            # and its buffers returned immediately.
            if isinstance(fragment.payload, BufferChain):
                chain = fragment.payload
                fragment = dataclasses.replace(fragment, payload=chain.linearize())
                chain.release()
            self._on_fec_unit(sequence, partial, fragment, fec_info)
            return

        if fragment.index in partial.fragments:
            self.stats.duplicates_discarded += 1
            self._discard_payload(fragment.payload)
            return
        partial.fragments[fragment.index] = fragment
        hint = header.get("phy_corrupt")
        if hint is not None:
            # The PHY's damage hint is fragment-relative; remember it
            # against the fragment we kept so _adu_corrupt_spans can
            # rebase it once every fragment length is known.
            lo, hi = hint
            partial.corrupt_hints[fragment.index] = (int(lo), int(hi))

        if len(partial.fragments) == partial.total:
            self._complete_adu(sequence, partial)

    def _on_fec_unit(
        self,
        sequence: int,
        partial: _PartialAdu,
        fragment: AduFragment,
        fec_info: dict[str, Any],
    ) -> None:
        """FEC path: feed the per-ADU decoder; deliver when recoverable."""
        if partial.fec is None:
            # The decoder needs the sender's fragmentation width to trim
            # recovered payloads; the FEC header carries it.
            partial.fec = FecDecoder(mtu=int(fec_info["mtu"]))
        partial.fec.add(
            FecFragment(
                fragment=fragment,
                group=int(fec_info["group"]),
                is_parity=bool(fec_info["is_parity"]),
                group_size=int(fec_info["group_size"]),
                group_base=int(fec_info["group_base"]),
            )
        )
        adu = partial.fec.try_reassemble()
        if adu is not None:
            self.fec_recoveries += partial.fec.recovered_fragments
            del self._partial[sequence]
            self._deliver_adu(adu.sequence, adu)

    @property
    def wire_plan(self) -> CompiledPlan:
        """The flow's compiled wire plan.  Without presentation or
        cipher its shape matches the sender's, so the shared cache
        serves both ends from one entry; with a fusable presentation
        binding and/or encryption it is [checksum, decrypt, convert]:
        one fused loop that verifies the wire (cipher-text) bytes,
        decrypts, and emits the local-syntax form."""
        if self._wire_plan is None:
            self._wire_plan = self.plan_cache.get_or_compile(
                wire_pipeline(
                    self._convert if self._convert_fused else None,
                    convert_after=True,
                    encrypt=self._encrypt,
                    integrity=self.integrity,
                ),
                self.machine,
            )
        return self._wire_plan

    @property
    def _plan_transforms(self) -> bool:
        """Whether the compiled wire plan rewrites the payload (fused
        conversion and/or decryption) rather than only observing it."""
        return self._convert_fused or self._encrypt is not None

    def _adu_corrupt_spans(self, partial: _PartialAdu) -> tuple[tuple[int, int], ...]:
        """Rebase the PHY's fragment-relative damage hints to ADU offsets.

        Only spans falling (at least partly) *outside* the integrity
        policy's coverage are returned — those are the ones a matching
        checksum says nothing about.  A hint wholly inside a covered
        span needs no flag: if the damage is real the checksum fails and
        the row is discarded; if it matches anyway the hint was false.
        Returns () without a tolerant policy.
        """
        if not partial.corrupt_hints:
            return ()
        policy = self.integrity
        if policy is None or not policy.tolerant:
            return ()
        offsets: dict[int, int] = {}
        base = 0
        for index in sorted(partial.fragments):
            offsets[index] = base
            base += len(partial.fragments[index].payload)
        spans = []
        for index, (lo, hi) in sorted(partial.corrupt_hints.items()):
            start = offsets.get(index)
            if start is None:  # hint for a fragment we never kept
                continue
            span = (start + lo, start + hi)
            if not policy.covers(*span):
                spans.append(span)
        return tuple(spans)

    def _complete_adu(self, sequence: int, partial: _PartialAdu) -> None:
        del self._partial[sequence]
        expected = next(iter(partial.fragments.values())).adu_checksum
        corrupt_spans = self._adu_corrupt_spans(partial)
        try:
            # Structural checks only; the checksum runs through the
            # compiled wire plan below.  On the zero-copy path the ADU
            # is a chain over the fragment buffers — no join happens.
            adu = reassemble_fragments(
                list(partial.fragments.values()),
                verify=False,
                as_chain=self.zero_copy,
            )
        except FramingError:
            self.stats.checksum_failures += 1
            self.tracer.emit(self.loop.now, "alf", "bad-adu", seq=sequence)
            self._release_fragments(partial)
            return
        if self.batch_drain:
            # Verification is deferred to the batched drain: the whole
            # queue runs through one CompiledPlan.run_batch call —
            # the host-wide engine's shared dispatch when registered,
            # this flow's own otherwise.
            self._ready.append(
                ReadyAdu(sequence, partial, adu, expected, corrupt_spans)
            )
            if self.drain_engine is not None:
                self.drain_engine.notify_ready(self)
            elif not self._drain_scheduled:
                self._drain_scheduled = True
                self.loop.schedule(0.0, self._auto_drain)
            return
        if isinstance(adu.payload, BufferChain):
            # Observer-only wire plans verify in place: one read pass
            # over the segments, zero materialization.  A fused
            # presentation/decrypt plan gathers that same single pass
            # (or streams the decrypt over the segments) and emits the
            # plaintext local-syntax form alongside the checksum.
            out, observations = self.wire_plan.run_chain(adu.payload)
        else:
            out, observations = self.wire_plan.run(adu.payload)
        if observations[WIRE_CHECKSUM] != expected:
            self.stats.checksum_failures += 1
            self.tracer.emit(self.loop.now, "alf", "bad-adu", seq=sequence)
            if isinstance(out, BufferChain) and out is not adu.payload:
                out.release()
            self._discard_payload(adu.payload)
            self._release_fragments(partial)
            return
        self._release_fragments(partial)
        plan_out = out if self._plan_transforms else None
        self._deliver_adu(
            sequence, adu, plan_out=plan_out, corrupt_spans=corrupt_spans
        )

    def _auto_drain(self) -> None:
        self._drain_scheduled = False
        self.run_batch()

    def run_batch(self) -> int:
        """Drain every completed-but-unverified ADU in one batched pass.

        The queued payloads — scatter-gather chains included — pack into
        one padded 2-D word array and the wire plan's
        :meth:`~repro.ilp.compiler.CompiledPlan.run_batch` verifies,
        decrypts and converts the whole queue with one vectorized pass
        per kernel, the receive-side mirror of the sender's
        ``send_batch``.  Partial failure is isolated per row: an ADU
        whose checksum does not match is dropped (counted in
        ``stats.checksum_failures``) without discarding the rest of the
        batch.  Batched deliveries hand the application the plan's
        output bytes (no chain loan — the fragment buffers are released
        here).  Returns the number of ADUs delivered.
        """
        ready = self._take_ready()
        if not ready:
            return 0
        batch = self.wire_plan.run_batch([entry.adu.payload for entry in ready])
        checksums = batch.observations[WIRE_CHECKSUM]
        self.batch_drains += 1
        delivered = 0
        for entry, checksum, out in zip(ready, checksums, batch.outputs):
            delivered += self.resolve_drained(entry, checksum, out)
        return delivered

    # ------------------------------------------------------------------
    # Host-level drain engine interface

    @property
    def drain_key(self) -> Hashable:
        """What must match for two flows to share one drain dispatch.

        Compiled wire-plan cache key × schema fingerprint × cipher
        token × integrity-policy fingerprint.  The plan key already
        folds in the fused conversion, cipher and checksum-coverage
        lowering tokens; the schema fingerprint additionally separates
        stage-path (non-fused) presentation bindings whose wire plans
        look identical, and the cipher and integrity tokens keep the
        group identity stable and human-attributable in traces.
        """
        binding = self.presentation
        schema_fp = (
            (
                schema_fingerprint(binding.schema),
                binding.local.name,
                binding.wire.name,
            )
            if binding is not None
            else None
        )
        return (
            self.wire_plan.key,
            schema_fp,
            cipher_token(self._encrypt),
            integrity_token(self.integrity),
        )

    @property
    def pending_ready(self) -> int:
        """Completed-but-unverified ADUs queued for the next drain."""
        return len(self._ready)

    def pop_ready(self) -> ReadyAdu:
        """Hand the oldest ready row to the drain engine (FIFO)."""
        return self._ready.popleft()

    def _take_ready(self) -> deque[ReadyAdu]:
        """Empty the ready queue outside an engine window, keeping a
        registered engine's backlog count exact."""
        ready, self._ready = self._ready, deque()
        if ready and self.drain_engine is not None:
            self.drain_engine.ready_discarded(self, len(ready))
        return ready

    def resolve_drained(self, entry: ReadyAdu, checksum: int, out) -> int:
        """Resolve one drained row: verify, then deliver exactly once.

        Called per row by both this flow's own :meth:`run_batch` and the
        shared engine's cross-flow dispatch.  A checksum mismatch
        penalizes only this flow (its ``stats.checksum_failures``); a
        verified row rides the normal delivery path, whose
        receipt-tracker dedupe guarantees exactly-once.  Returns ADUs
        delivered (0 or 1).
        """
        self.batch_drained_adus += 1
        if checksum != entry.expected:
            self.stats.checksum_failures += 1
            self.tracer.emit(self.loop.now, "alf", "bad-adu", seq=entry.sequence)
            self._discard_payload(entry.adu.payload)
            self._release_fragments(entry.partial)
            return 0
        self._release_fragments(entry.partial)
        before = len(self.acks)
        self._deliver_adu(
            entry.sequence,
            entry.adu,
            plan_out=out,
            corrupt_spans=entry.corrupt_spans,
        )
        return len(self.acks) - before

    def begin_drain_dispatch(self) -> None:
        """Start coalescing ACKs for one engine dispatch.

        A cross-flow dispatch can deliver many of this flow's ADUs
        back-to-back; sending the selective ACK once per delivery is
        per-ADU control overhead the batch already paid to avoid.  While
        bracketed, :meth:`_send_ack` latches instead of sending; the
        matching :meth:`finish_drain_dispatch` emits one ACK carrying
        the dispatch's whole delivered set.  Nests safely.
        """
        self._defer_acks += 1

    def finish_drain_dispatch(self) -> None:
        """End the ACK-coalescing bracket; flush the latched ACK."""
        self._defer_acks -= 1
        if self._defer_acks <= 0:
            self._defer_acks = 0
            if self._ack_pending:
                self._ack_pending = False
                self._send_ack()

    def discard_ready(self) -> None:
        """Release every queued ready row's buffer references.

        Used at teardown (engine shutdown or :meth:`close`) so flows
        with in-flight ready rows return their pooled segments.
        """
        for entry in self._take_ready():
            self._discard_payload(entry.adu.payload)
            self._release_fragments(entry.partial)

    @property
    def quiescent(self) -> bool:
        """True when no reassembly row is in flight.

        The migration safety gate from the zero-hop ingress design: a
        flow may only change shards at a train boundary when it holds
        no partially reassembled ADU and no ready-but-undrained row, so
        the move can never split an ADU's fragments across engines.
        """
        return not self._partial and not self._ready

    def rehome(self, loop, host, drain_engine=None) -> bool:
        """Move this flow to another shard's loop/host/engine.

        Refuses (returns ``False``) unless :attr:`quiescent` — the
        caller (``ShardedHost._commit_migration``) settles the source
        shard first, so a refusal means fragments arrived between the
        settle and the commit and the migration should be retried at a
        later train boundary.  On success the flow unbinds from its
        old host, re-binds on the new one, and re-registers with the
        target engine (or reverts to immediate drains when the target
        shard runs without one).
        """
        if self._closed or not self.quiescent:
            return False
        self.host.unbind(PROTOCOL, self.flow_id)
        if self.drain_engine is not None:
            self.drain_engine.unregister(self)
        self.loop = loop
        self.host = host
        host.bind(PROTOCOL, self.flow_id, self._on_fragment)
        if drain_engine is not None:
            self.drain_engine = drain_engine
            self.batch_drain = True
            drain_engine.register(self)
        else:
            self.drain_engine = None
        return True

    def close(self) -> None:
        """Tear the flow down: release buffers and unbind.

        Queued ready rows and partially reassembled ADUs release their
        fragment chains, the flow unbinds from the host, and a
        registered drain engine drops the flow from its plan group.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.discard_ready()
        for partial in list(self._partial.values()):
            self._release_fragments(partial)
        self._partial.clear()
        if self.drain_engine is not None:
            self.drain_engine.unregister(self)
        self.host.unbind(PROTOCOL, self.flow_id)

    def _deliver_adu(
        self,
        sequence: int,
        adu,
        plan_out: bytes | BufferChain | None = None,
        corrupt_spans: tuple[tuple[int, int], ...] = (),
    ) -> None:
        if sequence in self.acks:
            self.stats.duplicates_discarded += 1
            self._discard_payload(adu.payload)
            if isinstance(plan_out, BufferChain) and plan_out is not adu.payload:
                plan_out.release()
            return
        if self._plan_transforms and plan_out is None:
            # Direct deliveries (FEC recovery) arrive carrying verified
            # wire-syntax bytes; run the plan now to decrypt/convert.
            if isinstance(adu.payload, BufferChain):
                plan_out, _ = self.wire_plan.run_chain(adu.payload)
            else:
                plan_out, _ = self.wire_plan.run(adu.payload)
        in_order = sequence == self.acks.cumulative
        self.acks.on_adu(sequence)
        if not in_order:
            self.out_of_order_deliveries += 1

        chain = adu.payload if isinstance(adu.payload, BufferChain) else None
        if self._convert is not None and not self._convert_fused:
            # Stage-path conversion: the compiled codec decodes the
            # (decrypted) wire form and re-encodes in the local syntax.
            source = adu.payload if plan_out is None else plan_out
            payload = self._convert.apply(source)
            if isinstance(plan_out, BufferChain):
                plan_out.release()
            if chain is not None:
                # The wire-form buffers are spent; the delivered bytes
                # are the converted form, so there is no chain loan.
                chain.release()
                chain = None
        elif plan_out is not None:
            # The plan emitted the plaintext local-syntax form; the
            # wire-form buffers are spent, so there is no chain loan.
            if isinstance(plan_out, BufferChain):
                payload = plan_out.linearize()
                plan_out.release()
            else:
                payload = plan_out
            if chain is not None:
                chain.release()
                chain = None
        elif chain is not None:
            # The datapath's single copy: the verified chain becomes the
            # application's contiguous bytes here, and nowhere else.
            payload = chain.linearize()
        else:
            payload = adu.payload
        self.stats.bytes_delivered += len(payload)
        if corrupt_spans:
            # ALF "ignore" mode: the covered checksum matched, so the
            # damage sits in bytes the policy chose not to protect —
            # deliver, flagged, instead of forcing a retransmission.
            integrity_counters().record_tolerant_delivery(len(corrupt_spans))
            self.tracer.emit(self.loop.now, "alf", "tolerant-deliver",
                             seq=sequence, spans=len(corrupt_spans))
        self.tracer.emit(self.loop.now, "alf", "deliver-adu",
                         seq=sequence, in_order=in_order)
        self.deliver(
            DeliveredAdu(
                sequence=sequence,
                name=adu.name,
                payload=payload,
                arrival_time=self.loop.now,
                in_order=in_order,
                chain=chain,
                corrupt_spans=corrupt_spans,
            )
        )
        if chain is not None:
            # The loan ends with the callback: recycle the buffers.
            chain.release()
        self._send_ack()

    # ------------------------------------------------------------------
    # Acknowledgement

    def _periodic_ack(self) -> None:
        if len(self.acks) or self._partial:
            self._send_ack()
        self.loop.schedule(self.ack_interval, self._periodic_ack)

    def _send_ack(self) -> None:
        if self._defer_acks:
            self._ack_pending = True
            return
        self.counter.record("ack_compute")
        self.stats.acks_sent += 1
        sack = self.acks.ack_payload()
        # ADUs with fragments present — or complete and queued for the
        # batched drain — are in flight, not missing yet.
        pending = {entry.sequence for entry in self._ready}
        sack["missing"] = [
            sequence
            for sequence in sack["missing"]
            if sequence not in self._partial and sequence not in pending
        ]
        header: dict = {"sack": sack}
        if self.drain_engine is not None:
            # Piggyback the drain engine's pressure quantum (§3: the
            # rate is "computed on an out-of-band basis" — here, from
            # receive-side backlog).  Computed *here*, after the
            # coalescing latch above, so a latched ACK flushed by
            # finish_drain_dispatch carries the quantum current at
            # flush time, not the one when the first delivery latched.
            quantum = self.drain_engine.pressure_quantum
            header["dp"] = quantum
            pacing_counters().record_stamp(quantum)
        ack = Packet(
            src=self.host.name,
            dst=self.peer,
            protocol=PROTOCOL,
            flow_id=self.flow_id,
            header=header,
            payload=b"",
        )
        self.host.send(ack)

    # ------------------------------------------------------------------
    # Progress reporting

    @property
    def delivered_count(self) -> int:
        """Complete ADUs handed to the application."""
        return len(self.acks)

    @property
    def complete(self) -> bool:
        """True when every expected ADU has been delivered."""
        if self.expected_adus is None:
            return False
        return len(self.acks) >= self.expected_adus

    def missing_names(self) -> list[dict[str, Any]]:
        """Names of partially received ADUs (loss in application terms)."""
        return [dict(partial.name) for partial in self._partial.values()]
