"""ALF sender: fragments ADUs, repairs per the application's policy.

The sender keeps per-ADU state, not a byte stream.  ACKs from the
receiver name ADUs (a cumulative point, the ADUs received above it, and
the missing set); repair of a missing ADU
follows the :class:`RecoveryMode`: retransmit a buffered copy, ask the
application to recompute it, or let it go.  A coarse timer covers tail
loss (an ADU whose every fragment — or whose ACK — vanished).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.buffers.chain import BufferChain
from repro.control.instructions import InstructionCounter
from repro.core.adu import Adu, fragment_payloads
from repro.errors import TransportError
from repro.ilp.compiler import CompiledPlan, PlanCache, shared_plan_cache
from repro.integrity import IntegrityPolicy
from repro.machine.profile import MIPS_R2000
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.stages.presentation import PresentationBinding
from repro.transport.alf.fec import group_parity
from repro.transport.alf.recovery import RecoveryMode
from repro.transport.alf.wire import WIRE_CHECKSUM, WireConfig
from repro.transport.base import TransportStats
from repro.transport.pacing import TrainPacer

PROTOCOL = "alf"

#: A callback that regenerates a lost ADU from its sequence number.
RecomputeFn = Callable[[int], Adu]


@dataclass
class _Outstanding:
    adu: Adu | None          # None in APP_RECOMPUTE / NO_RETRANSMIT modes
    name: dict[str, Any]
    length: int
    last_sent: float
    attempts: int = 1


class AlfSender:
    """Sends ADUs; repairs losses per the application's recovery policy.

    An ADU is fragmented by its payload's type (see
    :func:`~repro.core.adu.fragment_payloads`): ``bytes`` into views, a
    :class:`BufferChain` into refcounted chain windows — either way
    fragmentation costs no data pass.

    Args:
        loop: simulation event loop.
        host: local host (binds flow ``flow_id`` for ACKs).
        peer: destination host name.
        flow_id: association identifier.
        mtu: maximum fragment payload (the transmission-unit size).
        recovery: the application's chosen :class:`RecoveryMode`.
        recompute: required in APP_RECOMPUTE mode — regenerates an ADU.
        rto: repair timer period for tail loss.
        max_attempts: give up on an ADU after this many transmissions.
        max_outstanding: flow-control window in ADUs — further ADUs
            queue at the sender until acknowledgements open slots
            (ignored in NO_RETRANSMIT mode, which has no
            acknowledgements to open them).
        fec_group: enable transmission-unit FEC (footnote 10): one XOR
            parity unit per this many data fragments, letting the
            receiver repair a single loss per group with no round trip.
        plan_cache: plan cache to compile through (defaults to the
            process-wide shared cache, so all flows reuse one plan).
        presentation: a :class:`PresentationBinding` (schema + local and
            wire codecs).  ADUs are handed in encoded in the *local*
            syntax; the sender converts them to the *wire* syntax fused
            into the same compiled pass as the checksum whenever the
            schema-compiled conversion lowers to a word kernel (fixed
            layouts), and through the compiled codecs' streaming paths
            otherwise.  The converted form is memoized per ADU, so
            retransmissions pay no second conversion.
        encryption: a 32-bit cipher key, or None for cleartext.  Its
            word-XOR stage is fused into the wire plan after conversion
            and before the checksum: the sender's plan is ``[convert,
            encrypt, checksum]``, one integrated read pass emitting
            ciphertext whose checksum covers the wire bytes.  On a :class:`BufferChain` ADU the
            cipher streams over the chain segment-by-segment (no
            linearize); the ciphertext is memoized per ADU like the
            converted form, so retransmissions pay no second pass.
        integrity: an :class:`~repro.integrity.IntegrityPolicy`
            restricting the wire checksum to covered spans (SAP-style
            selective integrity).  The receiver must run the same
            policy — sessions negotiate it in INIT.  Incompatible with
            a partial policy + FEC (parity repair verifies full
            checksums).
        pacing: a :class:`~repro.transport.pacing.TrainPacer` shaping
            this flow's egress into rate-paced packet trains (§3
            rate-based flow control).  Wire units route through the
            pacer's token bucket and leave as back-to-back tagged
            trains; drain-pressure quanta piggybacked on ACKs
            (``header["dp"]``) feed its AIMD loop.
        on_complete: called when every ADU is acknowledged or abandoned.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        flow_id: int,
        mtu: int = 1024,
        recovery: RecoveryMode = RecoveryMode.TRANSPORT_BUFFER,
        recompute: RecomputeFn | None = None,
        rto: float = 0.2,
        max_attempts: int = 20,
        max_outstanding: int | None = None,
        fec_group: int | None = None,
        plan_cache: PlanCache | None = None,
        presentation: PresentationBinding | None = None,
        encryption: int | None = None,
        integrity: IntegrityPolicy | None = None,
        pacing: TrainPacer | None = None,
        tracer: Tracer | None = None,
        on_complete: Callable[[], None] | None = None,
    ):
        if mtu <= 0:
            raise TransportError("mtu must be positive")
        if recovery is RecoveryMode.APP_RECOMPUTE and recompute is None:
            raise TransportError("APP_RECOMPUTE mode needs a recompute callback")
        if fec_group is not None and integrity is not None and integrity.tolerant:
            # FEC reassembly verifies recovered fragments against the
            # full ADU checksum; a partial-coverage policy would reject
            # every successfully repaired ADU.
            raise TransportError(
                "FEC requires full integrity coverage "
                f"(policy is {integrity.fingerprint!r})"
            )
        self.loop = loop
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.mtu = mtu
        self.recovery = recovery
        self.recompute = recompute
        self.rto = rto
        self.max_attempts = max_attempts
        if max_outstanding is not None and max_outstanding <= 0:
            raise TransportError("max_outstanding must be positive")
        if recovery is RecoveryMode.NO_RETRANSMIT:
            max_outstanding = None
        self.max_outstanding = max_outstanding
        if fec_group is not None and fec_group <= 0:
            raise TransportError("fec_group must be positive")
        self.fec_group = fec_group
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.presentation = presentation
        self.integrity = integrity
        # Conversion joins the checksum loop when it lowers to a word
        # kernel; otherwise it runs on the compiled codecs' stage path.
        self.wire = WireConfig(
            False, presentation, encryption, integrity, MIPS_R2000, self.plan_cache
        )
        # The wire plan, held once the first ADU resolves it.
        self._plan: CompiledPlan | None = None
        self.pacing = pacing
        if pacing is not None:
            pacing.bind(host.send)
        # sequence -> (wire payload, checksum, parity); the payload is
        # None when it is the ADU's own (see _wire_form), and the parity
        # None until an FEC flow first cuts the ADU (see _wire_units).
        self._wire: dict[
            int, tuple[bytes | BufferChain | None, int, list[bytes] | None]
        ] = {}
        self._pending: list[Adu] = []
        self.counter = InstructionCounter()
        self.tracer = tracer or DISABLED_TRACER
        self.on_complete = on_complete
        self.stats = TransportStats()

        self.adus_sent = 0
        self.adus_recomputed = 0
        self.adus_abandoned: set[int] = set()
        self._outstanding: dict[int, _Outstanding] = {}
        # Every sequence send_adu has taken, queued or sent, at or above
        # the highest ACK cumulative point seen; one below that point
        # was taken and delivered.  An abandoned sequence leaves the set
        # and may be sent again.
        self._accepted: set[int] = set()
        self._acked_up_to = 0
        self._closed = False
        self._completed = False
        self._timer_armed = False

        host.bind(PROTOCOL, flow_id, self._on_ack_packet)

    # ------------------------------------------------------------------
    # Application interface

    def send_adu(self, adu: Adu) -> None:
        """Transmit one ADU (fragmented as needed).

        With ``max_outstanding`` set, ADUs beyond the window queue here
        and go out as acknowledgements open slots.
        """
        if self._closed:
            raise TransportError("sender is closed")
        if adu.sequence < self._acked_up_to or adu.sequence in self._accepted:
            raise TransportError(f"ADU {adu.sequence} already sent")
        self._accepted.add(adu.sequence)
        if (
            self.max_outstanding is not None
            and len(self._outstanding) >= self.max_outstanding
        ):
            self._pending.append(adu)
            return
        self._dispatch(adu)

    @property
    def wire_plan(self) -> CompiledPlan:
        """The flow's compiled wire plan — resolved once per
        configuration, cached across flows; steady-state traffic never
        re-plans.  With a fusable presentation binding and/or an
        encryption stage the plan is [convert, encrypt, checksum]: one
        fused loop that converts, encrypts, and checksums the wire
        (cipher-text) bytes."""
        return self.wire.plan

    def _wire_form(self, adu: Adu) -> tuple[bytes | BufferChain, int]:
        """The ADU's on-the-wire payload and checksum, memoized.

        Without a presentation binding or cipher the plan only observes:
        the payload goes out as handed in and one read pass yields the
        checksum.  Otherwise conversion, encryption and checksum run as a
        single fused pass — streamed over a :class:`BufferChain` ADU, so
        the ciphertext keeps the segment geometry.  Either way the result
        is remembered until the ADU is acknowledged, so retransmissions
        pay nothing."""
        memo = self._wire.get(adu.sequence)
        if memo is None:
            source = adu.payload
            wire = self.wire
            convert = wire.staged_convert
            if convert is not None:
                # Variable layout (e.g. a TLV wire syntax): convert through
                # the compiled codecs' streaming path first; encryption and
                # checksum still run fused over the converted bytes.
                source = convert.apply(source)
            plan = self._plan
            if plan is None:
                plan = self._plan = wire.plan
            if isinstance(source, BufferChain):
                payload, observations = plan.run_chain(source)
            else:
                payload, observations = plan.run(source)
            # The ADU's own payload is stored as None: the memo holds
            # only what the sender made, and never releases the
            # application's chain.
            memo = (
                None if payload is adu.payload else payload,
                observations[WIRE_CHECKSUM],
                None,
            )
            self._wire[adu.sequence] = memo
        payload, checksum, _ = memo
        return (adu.payload if payload is None else payload), checksum

    def _drop_wire_memo(self, sequence: int) -> None:
        """Forget an ADU's memoized wire form, releasing a ciphertext
        chain the plan made."""
        payload, _, _ = self._wire.pop(sequence, (None, 0, None))
        if isinstance(payload, BufferChain):
            payload.release()

    def _dispatch(self, adu: Adu) -> None:
        keep = adu if self.recovery is RecoveryMode.TRANSPORT_BUFFER else None
        if self.recovery is not RecoveryMode.NO_RETRANSMIT:
            # adu, name, length, last_sent
            self._outstanding[adu.sequence] = _Outstanding(
                keep, dict(adu.name), len(adu.payload), self.loop.now
            )
        self.adus_sent += 1
        self._transmit(adu)
        if self.recovery is RecoveryMode.NO_RETRANSMIT:
            # Nothing outstanding to retransmit; drop the wire-form memo.
            self._drop_wire_memo(adu.sequence)
        if not self._timer_armed:
            self._arm_timer()

    def _pump_pending(self) -> None:
        while self._pending and (
            self.max_outstanding is None
            or len(self._outstanding) < self.max_outstanding
        ):
            self._dispatch(self._pending.pop(0))

    def close(self) -> None:
        """No more ADUs; completion fires when none remain outstanding."""
        self._closed = True
        self._maybe_complete()

    @property
    def outstanding_count(self) -> int:
        """ADUs awaiting acknowledgement."""
        return len(self._outstanding)

    @property
    def queued_count(self) -> int:
        """ADUs held back by the flow-control window."""
        return len(self._pending)

    @property
    def buffered_bytes(self) -> int:
        """Bytes held for retransmission (zero outside buffering mode)."""
        return sum(
            len(entry.adu.payload)
            for entry in self._outstanding.values()
            if entry.adu is not None
        )

    # ------------------------------------------------------------------
    # Transmission

    def _transmit(self, adu: Adu) -> None:
        """Send one ADU: build all its wire units' packets in one loop and
        hand them to the host as one run (§5: the ADU is the unit the
        sender processes; §4: pay the per-call control cost per burst).
        The host and link then walk the run packet by packet, so the
        wire sees exactly what per-fragment sends would put on it.  A
        paced flow submits the packets to its pacer one at a time
        instead: the pacer's token bucket decides when each leaves."""
        now, src, dst, flow_id = self.loop.now, self.host.name, self.peer, self.flow_id
        packets = []
        append = packets.append
        sent_bytes = 0
        for header, payload in self._wire_units(adu):
            header["ts"] = now
            append(Packet(src, dst, PROTOCOL, flow_id, header, payload))
            sent_bytes += len(payload)
        self.stats.segments_sent += len(packets)
        self.stats.bytes_sent += sent_bytes
        if self.pacing is None:
            self.host.send(packets)
        else:
            for packet in packets:
                self.pacing.submit(packet, on_release=self._on_paced_release)
        if self.tracer.enabled:
            self.tracer.emit(now, "alf", "send-adu",
                             seq=adu.sequence, length=len(adu.payload))

    def _on_paced_release(self, packet: Packet) -> None:
        """A paced fragment reached the wire: restart its ADU's repair
        clock — queueing delay inside the pacer is not network time."""
        entry = self._outstanding.get(packet.header.get("adu_seq"))
        if entry is not None:
            entry.last_sent = self.loop.now

    def _wire_units(self, adu: Adu) -> list[tuple[dict, Any]]:
        """(header, payload) pairs for one ADU: its fragments in order,
        each FEC group's parity unit right after the group's last.

        Every header is one :meth:`_header` built per call, copied per
        unit with the unit's own index and its own copy of the ADU's
        name.  A group is a run of ``fec_group`` fragments from index 0
        (the last may be short); every FEC unit's header carries the
        group size and MTU the receiver needs to rebuild an erasure,
        and a parity unit's ``frag`` is its group's first index.  The
        parity comes from the memoized wire form once per ADU and is
        kept in its ``_wire`` entry, so retransmissions reuse it."""
        payload, checksum = self._wire_form(adu)
        sequence, name = adu.sequence, adu.name
        pieces = fragment_payloads(payload, self.mtu)
        total = len(pieces)
        template = self._header(sequence, 0, total, len(payload), checksum, name)
        size = self.fec_group
        if size is not None:
            wire, _, parity = self._wire[sequence]
            if parity is None:
                parity = [
                    group_parity(pieces[base : base + size])
                    for base in range(0, total, size)
                ]
                self._wire[sequence] = (wire, checksum, parity)
            template["fec"] = {"group_size": size, "mtu": self.mtu, "is_parity": False}
            parity_tag = {**template["fec"], "is_parity": True}
        units = []
        append = units.append
        for index, piece in enumerate(pieces):
            append(({**template, "frag": index, "name": {**name}}, piece))
            if size is not None and (index % size == size - 1 or index == total - 1):
                base = index - index % size
                header = {**template, "frag": base, "name": {**name}, "fec": parity_tag}
                append((header, parity[base // size]))
        return units

    @staticmethod
    def _header(sequence, index, total, length, checksum, name) -> dict:
        """One wire unit's header: enough for the receiver to place the
        fragment and rebuild and verify its ADU with no other state."""
        return {
            "adu_seq": sequence,
            "frag": index,
            "nfrags": total,
            "adu_len": length,
            "adu_csum": checksum,
            "name": name,
        }

    # ------------------------------------------------------------------
    # ACK processing and repair

    def _on_ack_packet(self, packet: Packet) -> None:
        self.counter.packets_processed += 1
        self.stats.acks_received += 1
        quantum = packet.header.get("dp")
        if quantum is not None and self.pacing is not None:
            self.pacing.on_pressure(int(quantum))
        sack = packet.header["sack"]
        # Everything below the ACK's cumulative point has arrived, and
        # earlier ACKs already retired what lay below the point they
        # carried: only the stretch this ACK newly covers, plus the ADUs
        # it lists above its point, can still be outstanding.  A
        # reordered, older ACK covers no new stretch.
        cumulative = sack["cum"]
        covered = range(self._acked_up_to, cumulative)
        self._acked_up_to = max(self._acked_up_to, cumulative)
        outstanding = self._outstanding
        retired = 0
        for sequence in itertools.chain(covered, sack["received"]):
            if outstanding.pop(sequence, None) is not None:
                retired += 1
                self._drop_wire_memo(sequence)
        # The ACK's control cost in one charge: parse, demultiplex, and a
        # sequence check per ADU it retired.
        self.counter.record(
            "header_parse", "demux_lookup", *("sequence_check",) * retired
        )
        self._accepted.difference_update(covered)

        for sequence in sack["missing"]:
            self._repair(sequence)

        if self._pending:
            self._pump_pending()
        if self._closed:
            self._maybe_complete()

    def _repair(self, sequence: int) -> None:
        entry = self._outstanding.get(sequence)
        if entry is None:
            return  # already acked, abandoned, or never buffered
        if self.pacing is not None and self.pacing.holds(self.flow_id, sequence):
            return  # still queued in the pacer — not lost, not even sent
        # Debounce: a missing report races with an in-flight repair.
        if self.loop.now - entry.last_sent < self.rto / 2:
            return
        if entry.attempts >= self.max_attempts:
            self._abandon(sequence)
            return
        entry.attempts += 1
        entry.last_sent = self.loop.now
        if self.recovery is RecoveryMode.TRANSPORT_BUFFER:
            assert entry.adu is not None
            self.stats.retransmissions += 1
            if self.tracer.enabled:
                self.tracer.emit(self.loop.now, "alf", "retransmit", seq=sequence)
            self._transmit(entry.adu)
        elif self.recovery is RecoveryMode.APP_RECOMPUTE:
            assert self.recompute is not None
            adu = self.recompute(sequence)
            if adu.sequence != sequence:
                raise TransportError(
                    f"recompute returned ADU {adu.sequence}, wanted {sequence}"
                )
            self.adus_recomputed += 1
            self.stats.retransmissions += 1
            self.tracer.emit(self.loop.now, "alf", "recompute", seq=sequence)
            # The application regenerated the payload; convert, encrypt
            # and checksum it fresh.
            self._drop_wire_memo(sequence)
            self._transmit(adu)

    def _abandon(self, sequence: int) -> None:
        self._outstanding.pop(sequence, None)
        self._drop_wire_memo(sequence)
        self.adus_abandoned.add(sequence)
        self._accepted.discard(sequence)
        self.tracer.emit(self.loop.now, "alf", "abandon", seq=sequence)
        self._pump_pending()

    def _on_timer(self) -> None:
        self._timer_armed = False
        if not self._outstanding:
            self._maybe_complete()
            return
        stale = [
            sequence
            for sequence, entry in self._outstanding.items()
            if self.loop.now - entry.last_sent >= self.rto
        ]
        for sequence in stale:
            self.counter.record("timer_set")
            self._repair_stale(sequence)
        self._arm_timer()

    def _repair_stale(self, sequence: int) -> None:
        """Timer-driven repair skips the debounce (the ADU is stale)."""
        entry = self._outstanding.get(sequence)
        if entry is None:
            return
        entry.last_sent = -1e9  # defeat the debounce
        self._repair(sequence)

    def _arm_timer(self) -> None:
        if not self._timer_armed and self._outstanding:
            self._timer_armed = True
            self.loop.schedule(self.rto, self._on_timer)

    def _maybe_complete(self) -> None:
        if (
            self._closed
            and not self._completed
            and not self._outstanding
            and self._pending
        ):
            self._pump_pending()
        if (
            self._closed
            and not self._completed
            and not self._outstanding
            and not self._pending
        ):
            self._completed = True
            if self.on_complete is not None:
                self.on_complete()
