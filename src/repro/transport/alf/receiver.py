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
from repro.core.adu import Adu, AduFragment, reassemble_fragments
from repro.ilp.compiler import CompiledPlan, PlanCache, shared_plan_cache
from repro.integrity import IntegrityPolicy, integrity_token
from repro.machine.accounting import integrity_counters
from repro.machine.profile import MIPS_R2000
from repro.presentation.compiler import schema_fingerprint
from repro.stages.encrypt import cipher_token
from repro.stages.presentation import PresentationBinding
from repro.transport.alf.fec import rebuild_erasure
from repro.transport.alf.wire import WIRE_CHECKSUM, WireConfig
from repro.transport.drain import ReadyAdu, SharedDrainEngine
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.transport.base import DeliveredAdu, TransportStats

PROTOCOL = "alf"

DeliverFn = Callable[[DeliveredAdu], None]


@dataclass
class _PartialAdu:
    total: int
    name: dict[str, Any]
    fragments: dict[int, AduFragment] = field(default_factory=dict)
    first_seen: float = 0.0
    # FEC parity units waiting on their group, keyed by the group's
    # first fragment index.
    parity: dict[int, bytes | BufferChain] = field(default_factory=dict)
    # Fragment-relative (lo, hi) corruption hints from the PHY, keyed by
    # fragment index; mapped to ADU offsets when the ADU completes.
    corrupt_hints: dict[int, tuple[int, int]] = field(default_factory=dict)


#: The reassembly record of an ADU with no fragment buffers to release:
#: one taken whole from a run (its chain came straight from the pool).
_NO_FRAGMENTS = _PartialAdu(total=0, name={})

#: What ``_partial`` holds for an ADU that is complete and queued for the
#: drain engine: its fragments belong to the ready row, and a late
#: fragment for it is dropped, not filed into a partial nothing completes.
_QUEUED = _PartialAdu(total=0, name={})


class AlfReceiver:
    """Receives fragments, delivers complete ADUs immediately.

    Args:
        loop: simulation event loop.
        host: local host (binds flow ``flow_id``).
        peer: the sender's host name (ACK destination).
        flow_id: association identifier.
        deliver: called with a :class:`DeliveredAdu` as soon as the ADU
            completes — this is the out-of-order delivery ALF exists for.
        ack_interval: seconds between repeats of the selective ACK, or
            0 for no timer.  Every delivery sends an ACK (one per flow
            per drain dispatch) and a retransmission of a delivered ADU
            is re-ACKed once, so the ACK repeats only while the flow is
            unresolved: it holds a partial ADU, has ready rows not yet
            drained, or has a gap below the highest ADU received.  The
            timer is armed when the flow becomes unresolved and re-arms
            only while it stays so; a caught-up or closed receiver
            schedules nothing.  Ticks keep the phase of a timer started
            at construction (whole intervals since then).
        expected_adus: when known, lets :attr:`complete` report overall
            transfer completion.
        plan_cache: plan cache to compile through; the wire pipeline's
            shape matches the sender's, so by default both ends of every
            flow share one cached plan.
        zero_copy: assemble completed ADUs as scatter-gather chains over
            the received fragment buffers and checksum them in place
            (one read pass, no join, no pack) — the delivered bytes are
            produced by a single linearize at the hand-off.  ``False``
            restores the layered path: the fragments are joined once and
            the checksum reads the joined bytes in place.  Either way an
            ADU costs one copy; delivered payloads are byte-identical.
        presentation: a :class:`PresentationBinding` (schema + local and
            wire codecs).  Verified ADUs are converted from the wire
            syntax into the local syntax before delivery — fused into
            the checksum's compiled pass when the conversion lowers to a
            word kernel, through the compiled codecs' streaming chain
            path otherwise.  The delivered payload is the local-syntax
            bytes (no chain loan — the wire-form buffers are released).
        encryption: the sender's 32-bit cipher key, or None for
            cleartext.  With a key the wire plan becomes
            ``[checksum, decrypt, convert]`` — verify the ciphertext,
            decrypt, convert back, all in one compiled read pass.  On
            the zero-copy path the decrypt streams over the reassembled
            scatter-gather chain without linearizing it.
        drain_engine: a host-level
            :class:`~repro.transport.drain.SharedDrainEngine` to verify
            through.  Without one, each completed ADU runs the wire plan
            on arrival (on the zero-copy path, one read pass over its
            chain).  With one, completed ADUs queue as ready rows and
            the engine coalesces them with every other flow sharing
            this flow's :attr:`drain_key` into one ``run_batch``
            dispatch per drain epoch.  Both routes end in
            :meth:`resolve_drained`, the one place that compares the
            checksum, counts failures, releases buffers and delivers.
            FEC-protected ADUs reassemble like any other (parity only
            rebuilds a group's single erasure), so the wire plan is the
            only verifier.
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
        plan_cache: PlanCache | None = None,
        tracer: Tracer | None = None,
        zero_copy: bool = True,
        presentation: PresentationBinding | None = None,
        encryption: int | None = None,
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
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.presentation = presentation
        self.integrity = integrity
        self.wire = WireConfig(
            True, presentation, encryption, integrity, MIPS_R2000, self.plan_cache
        )
        self.drain_engine = drain_engine
        self.counter = InstructionCounter()
        self.tracer = tracer or DISABLED_TRACER
        self.stats = TransportStats()

        self.acks = SelectiveAckTracker(counter=self.counter)
        # ADUs in reassembly, and _QUEUED for those awaiting the drain.
        self._partial: dict[int, _PartialAdu] = {}
        self._ready: deque[ReadyAdu] = deque()
        self._defer_acks = 0
        self._ack_pending = False
        # The ACK timer's next tick, on the grid of whole intervals since
        # construction, and whether an event for it is scheduled.
        self._ack_due = loop.now + ack_interval
        self._ack_armed = ack_interval <= 0  # no timer: never arm
        self._closed = False
        # (sequence, sender stamp) of the transmission last re-ACKed.
        self._reacked: tuple[int, object] | None = None
        self.out_of_order_deliveries = 0
        self.fec_recoveries = 0
        self.fec_erasures = 0

        host.bind(PROTOCOL, flow_id, self._on_fragment)
        if drain_engine is not None:
            drain_engine.register(self)

    @staticmethod
    def _discard_payload(payload) -> None:
        """Retire a chain payload's buffer references (no-op for bytes)."""
        if isinstance(payload, BufferChain):
            payload.release()

    def _release_fragments(self, partial: _PartialAdu) -> None:
        """Release every buffered fragment's and parity unit's chain
        references."""
        for fragment in partial.fragments.values():
            self._discard_payload(fragment.payload)
        partial.fragments.clear()
        if partial.parity:  # only an incomplete ADU still holds parity
            for parity in partial.parity.values():
                self._discard_payload(parity)
            partial.parity.clear()

    def _on_fragment(self, packet: Packet) -> None:
        self.counter.note_packet()
        self.stats.segments_received += 1
        header = packet.header
        sequence = int(header["adu_seq"])
        fec = header.get("fec")
        partial = self._partial.get(sequence)

        if sequence in self.acks or partial is _QUEUED:
            # The ADU is complete: delivered, or queued for the next
            # drain.  A new partial here would never complete.
            self._discard_payload(packet.payload)
            if fec is not None and fec["is_parity"]:
                return  # parity trailing a group that needed none
            self.stats.duplicates_discarded += 1
            if sequence in self.acks:
                # A retransmission of a delivered ADU means the sender
                # missed our acknowledgement — re-ACK, or a lost ACK
                # becomes an unbounded retransmit loop (the amplification
                # the pacing loop's convergence gate forbids).  Once per
                # transmission: its units share the sender's ``ts``
                # stamp, and the rest of them would restate the same
                # ACK.  A unit without a stamp is re-ACKed on its own.
                # A queued row's delivery ACKs it anyway.
                stamp = (sequence, header.get("ts"))
                if stamp[1] is None or stamp != self._reacked:
                    self._reacked = stamp
                    self._send_ack()
            return

        try:
            fragment = AduFragment(
                adu_sequence=sequence,
                index=int(header["frag"]),
                total=int(header["nfrags"]),
                adu_length=int(header["adu_len"]),
                adu_checksum=int(header["adu_csum"]),
                name=dict(header["name"]),
                payload=packet.payload,
            )
        except FramingError as error:
            # No ADU can hold this fragment: drop it (no ACK — it says
            # nothing about what arrived) and keep the flow running.
            self.stats.malformed_discarded += 1
            self._discard_payload(packet.payload)
            self.tracer.emit(self.loop.now, "alf", "malformed-fragment",
                             seq=sequence, reason=str(error))
            return

        self.counter.record("sequence_check")  # which ADU, where in it
        self.counter.record("reassembly_bookkeeping")

        if fec is not None and "phy_corrupt" in header:
            # A unit the PHY flags as damaged is an erasure: parity can
            # rebuild it, while XOR over damaged bytes could only make
            # compensating errors the checksum misses.
            self.fec_erasures += 1
            self._discard_payload(packet.payload)
            return

        if partial is None:
            partial = _PartialAdu(
                total=fragment.total, name=fragment.name, first_seen=self.loop.now
            )
            self._partial[sequence] = partial
            if not self._ack_armed:
                self._arm_ack_timer()

        if fec is not None and fec["is_parity"]:
            # Parity rides beside the fragments: held, keyed by its
            # group's first index (the unit's ``frag``), until the group
            # settles.
            if fragment.index in partial.parity:
                self.stats.duplicates_discarded += 1
                self._discard_payload(fragment.payload)
                return
            partial.parity[fragment.index] = fragment.payload
        elif fragment.index in partial.fragments:
            self.stats.duplicates_discarded += 1
            self._discard_payload(fragment.payload)
            return
        else:
            partial.fragments[fragment.index] = fragment
            hint = header.get("phy_corrupt")
            if hint is not None:
                # The PHY's damage hint is fragment-relative; remember it
                # against the fragment we kept so _adu_corrupt_spans can
                # rebase it once every fragment length is known.
                lo, hi = hint
                partial.corrupt_hints[fragment.index] = (int(lo), int(hi))
        if fec is not None:
            self._settle_group(partial, fragment, fec)

        if len(partial.fragments) == partial.total:
            self._complete_adu(sequence, partial)

    def _settle_group(
        self, partial: _PartialAdu, fragment: AduFragment, fec: dict[str, Any]
    ) -> None:
        """Use or drop the held parity of ``fragment``'s FEC group.

        Groups are runs of ``group_size`` fragments from index 0 (the
        last may be short).  A group with every data fragment present
        releases its parity unread.  A group missing exactly one
        rebuilds it from the parity into one fragment, the only place
        FEC materializes bytes.  A group missing more keeps the parity
        for a retransmission to complete.
        """
        size = int(fec["group_size"])
        base = fragment.index - fragment.index % size
        parity = partial.parity.get(base)
        if parity is None:
            return
        end = min(base + size, partial.total)
        fragments = partial.fragments
        survivors = [fragments[i].payload for i in range(base, end) if i in fragments]
        lost = end - base - len(survivors)
        if lost > 1:
            return
        del partial.parity[base]
        if lost:
            missing = next(i for i in range(base, end) if i not in fragments)
            # Every fragment is one MTU wide except the ADU's last.
            mtu = int(fec["mtu"])
            length = (
                mtu if missing < partial.total - 1
                else fragment.adu_length - mtu * missing
            )
            fragments[missing] = dataclasses.replace(
                fragment,
                index=missing,
                payload=rebuild_erasure(parity, survivors, length),
            )
            self.fec_recoveries += 1
        self._discard_payload(parity)

    def receive_run(self, packets: list[Packet], start: int) -> int:
        """Take one whole ADU from a burst in a single call.

        The ADU's fragments must be ``packets[start:start + n]``, indices
        ``0..n-1`` in order, with ``n >= 1``: byte payloads with no FEC
        unit or PHY damage hint, for an ADU this flow has not delivered,
        begun or queued, and room in the pool for all of them.  The
        pool then DMAs the run in one call and its segments *are* the
        ADU's chain — no fragment records, no per-fragment share.  A
        single-fragment ADU is a run of one, whether it arrives alone
        (:meth:`Host.receive`) or inside a burst.
        Returns ``n``, or 0 to leave the packets to :meth:`_on_fragment`,
        which then behaves as it always has.
        """
        header = packets[start].header
        total = int(header["nfrags"])
        end = start + total
        pool = self.host.rx_pool
        if (
            total < 1
            or end > len(packets)
            or pool is None
            or not self.zero_copy
        ):
            return 0
        sequence = int(header["adu_seq"])
        if sequence in self.acks or sequence in self._partial:
            return 0
        checksum = header["adu_csum"]
        flow_id, protocol = self.flow_id, PROTOCOL
        payloads = []
        append = payloads.append
        for index, packet in enumerate(packets[start:end]):
            fields = packet.header
            payload = packet.payload
            if (
                packet.flow_id != flow_id
                or packet.protocol != protocol
                or fields["frag"] != index
                or fields["adu_seq"] != sequence
                or fields["nfrags"] != total
                or fields["adu_csum"] != checksum
                or "fec" in fields
                or "phy_corrupt" in fields
                or isinstance(payload, BufferChain)
                or not payload
            ):
                return 0
            append(payload)
        if sum(map(len, payloads)) != header["adu_len"]:
            return 0
        chain = pool.dma_chain(payloads)
        if chain is None:
            return 0
        self.counter.packets_processed += total
        self.counter.record("sequence_check", total)
        self.counter.record("reassembly_bookkeeping", total)
        self.stats.segments_received += total
        adu = Adu(sequence, chain, dict(header["name"]))
        self._finish_adu(sequence, _NO_FRAGMENTS, adu, int(checksum), ())
        return total

    @property
    def wire_plan(self) -> CompiledPlan:
        """The flow's compiled wire plan, resolved once per
        configuration.  Without presentation or cipher its shape matches
        the sender's, so the shared cache serves both ends from one
        entry; with a fusable presentation binding and/or encryption it
        is [checksum, decrypt, convert]: one fused loop that verifies the
        wire (cipher-text) bytes, decrypts, and emits the local-syntax
        form."""
        return self.wire.plan

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
        self._finish_adu(sequence, partial, adu, expected, corrupt_spans)

    def _finish_adu(
        self,
        sequence: int,
        partial: _PartialAdu,
        adu: Adu,
        expected: int,
        corrupt_spans: tuple[tuple[int, int], ...],
    ) -> None:
        """Queue a reassembled ADU for the drain engine, or verify it
        now; either way :meth:`resolve_drained` settles it."""
        entry = ReadyAdu(sequence, partial, adu, expected, corrupt_spans)
        if self.drain_engine is not None:
            self._ready.append(entry)
            self._partial[sequence] = _QUEUED
            if not self._ack_armed:
                self._arm_ack_timer()
            self.drain_engine.notify_ready(self)
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
        # An observer-only plan's output is the ADU itself: delivery
        # hands up the ADU's own bytes (a chain's single linearize).
        plan_out = out if self.wire.transforms else None
        self.resolve_drained(entry, observations[WIRE_CHECKSUM], plan_out)

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
            cipher_token(self.wire.encrypt),
            integrity_token(self.integrity),
        )

    @property
    def pending_ready(self) -> int:
        """Completed-but-unverified ADUs queued for the next drain."""
        return len(self._ready)

    def pop_ready(self) -> ReadyAdu:
        """Hand the oldest ready row to the drain engine (FIFO).  Its
        sequence leaves the queue: the row either delivers or, failing
        verification, leaves the ADU receivable again."""
        entry = self._ready.popleft()
        del self._partial[entry.sequence]
        return entry

    def resolve_drained(self, entry: ReadyAdu, checksum: int, out) -> int:
        """Resolve one verified row: compare, then deliver exactly once.

        The single end of both receive routes: :meth:`_finish_adu`
        calls it for an ADU verified on arrival, the shared engine per
        row of its cross-flow dispatch.  ``out`` is the plan's output
        when the plan transforms (None otherwise).  A checksum mismatch
        penalizes only this flow (its ``stats.checksum_failures``) and
        releases the row's buffers, plan output included; a verified
        row rides the normal delivery path, whose receipt-tracker
        dedupe guarantees exactly-once.  Returns ADUs delivered (0 or 1).
        """
        if checksum != entry.expected:
            self.stats.checksum_failures += 1
            self.tracer.emit(self.loop.now, "alf", "bad-adu", seq=entry.sequence)
            self._discard_payload(out)
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
        ready, self._ready = self._ready, deque()
        if ready and self.drain_engine is not None:
            # Keep the engine's backlog count exact.
            self.drain_engine.ready_discarded(self, len(ready))
        for entry in ready:
            del self._partial[entry.sequence]
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
        target engine (or verifies on arrival when the target shard runs
        without one).
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
            self._discard_payload(plan_out)
            return
        in_order = sequence == self.acks.cumulative
        self.acks.on_adu(sequence)
        if not in_order:
            self.out_of_order_deliveries += 1
            if not self._ack_armed and self.acks.has_gaps:
                self._arm_ack_timer()

        chain = adu.payload if isinstance(adu.payload, BufferChain) else None
        convert = self.wire.staged_convert
        if convert is not None:
            # Stage-path conversion: the compiled codec decodes the
            # (decrypted) wire form and re-encodes in the local syntax.
            source = adu.payload if plan_out is None else plan_out
            payload = convert.apply(source)
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
        if self.tracer.enabled:
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

    def _arm_ack_timer(self) -> None:
        """Schedule the timer's next tick: the flow just became
        unresolved.  Ticks that passed while it was caught up would have
        sent nothing; skipping them keeps the phase.  The loop schedules
        by relative delay, so the tick lands on the grid to the last bit
        once ``now >= due / 2`` (always, one interval into the run);
        before that it can land one ulp off."""
        now = self.loop.now
        due = self._ack_due
        while due <= now:
            due += self.ack_interval
        self._ack_due = due
        self._ack_armed = True
        self.loop.schedule(due - now, self._periodic_ack)

    def _periodic_ack(self) -> None:
        if self._closed:
            return
        # Repeat only what can still drive repair; a caught-up flow's
        # last delivery ACK already said everything this one would, and
        # its timer goes quiet until the flow is unresolved again.
        self._ack_due = self.loop.now + self.ack_interval
        if self._partial or self._ready or self.acks.has_gaps:
            self._send_ack()
            self.loop.schedule(self.ack_interval, self._periodic_ack)
        else:
            self._ack_armed = False

    def _send_ack(self) -> None:
        if self._defer_acks:
            self._ack_pending = True
            return
        self.counter.record("ack_compute")
        self.stats.acks_sent += 1
        sack = self.acks.ack_payload()
        # ADUs with fragments present — or complete and queued for the
        # drain engine — are in flight, not missing yet.
        sack["missing"] = [
            sequence for sequence in sack["missing"] if sequence not in self._partial
        ]
        header: dict = {"sack": sack}
        if self.drain_engine is not None:
            # Piggyback the drain engine's pressure quantum (§3: the
            # rate is "computed on an out-of-band basis" — here, from
            # receive-side backlog).  Computed *here*, after the
            # coalescing latch above, so a latched ACK flushed by
            # finish_drain_dispatch carries the quantum current at
            # flush time, not the one when the first delivery latched.
            header["dp"] = self.drain_engine.pressure_quantum
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
        return [
            dict(partial.name)
            for partial in self._partial.values()
            if partial is not _QUEUED
        ]
