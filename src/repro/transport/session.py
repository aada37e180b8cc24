"""Association establishment for ALF transports.

The paper deliberately sets aside "session initiation, service location,
and so on" (§3) to focus on the data-transfer phase — but a usable
transport needs them, and the *contents* of the handshake are dictated by
the paper's data-transfer design: the peers must agree on

* the conversion plan (§5 negotiation: identity / sender-converts /
  canonical), which requires exchanging local syntaxes;
* the recovery mode (§5's three options), chosen by the sending
  application;
* the transmission-unit size (MTU) that ADUs are fragmented into.

The handshake is a loss-tolerant two-way exchange over the ``session``
protocol: the initiator retransmits INIT until ACCEPT arrives (or gives
up), then both sides construct their configured ALF endpoints.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TransportError
from repro.ilp.compiler import PlanCache, shared_plan_cache
from repro.integrity import IntegrityPolicy, integrity_token
from repro.net.host import Host
from repro.net.packet import Packet
from repro.presentation.abstract import ASType
from repro.presentation.compiler import schema_fingerprint
from repro.presentation.lwts import LwtsCodec
from repro.presentation.negotiate import ConversionPlan, LocalSyntax, negotiate
from repro.sim.eventloop import Event, EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.stages.encrypt import cipher_token
from repro.stages.presentation import PresentationBinding
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.base import DeliveredAdu
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import TrainPacer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.net.shard import ShardedHost

PROTOCOL = "session"

_flow_ids = itertools.count(1000)

#: The INIT fields a listener checks or reads, in memo-key order.
_OFFER_FIELDS = (
    "schema", "schema_fp", "cipher", "integrity", "presentation", "recovery",
    "mtu", "syntax_name", "byte_order", "allow_direct",
)


@functools.lru_cache(maxsize=64)
def _accepted_plan(
    local: LocalSyntax, peer: LocalSyntax, schema: ASType, allow_direct: bool
) -> ConversionPlan:
    """The initiator's negotiated plan, once per syntax pair and schema."""
    return negotiate(local, peer, schema, allow_direct=allow_direct)


@dataclass(frozen=True)
class SessionConfig:
    """What the initiator proposes for an association.

    Attributes:
        schema_name: key into both sides' schema registries.
        recovery: the sending application's recovery policy.
        mtu: transmission-unit payload size.
        local_syntax: the initiator's data representation.
        allow_direct: offer single-step sender-side conversion.
    """

    schema_name: str
    recovery: RecoveryMode = RecoveryMode.TRANSPORT_BUFFER
    mtu: int = 1024
    local_syntax: LocalSyntax = field(
        default_factory=lambda: LocalSyntax("initiator", "big")
    )
    allow_direct: bool = True


@dataclass
class Session:
    """An established association (either side's view).

    Attributes:
        flow_id: the data flow's demultiplexing id.
        config: the agreed parameters.
        plan: the negotiated conversion plan.
        sender: the data sender (initiator side only); its ``wire_plan``
            is the association's wire pass on this side.
        receiver: the data receiver (listener side only); likewise.
    """

    flow_id: int
    config: SessionConfig
    plan: ConversionPlan
    sender: AlfSender | None = None
    receiver: AlfReceiver | None = None


class SessionListener:
    """Accepts INITs on a host and builds receiving sessions.

    Each offered configuration is checked and negotiated once: the
    listener memoizes an accepted offer (every INIT field it checks or
    reads) with the config, plan and presentation binding it decided,
    and later sessions of that offer share them.  The listener's own
    configuration is therefore fixed at construction.

    Args:
        loop: event loop.
        host: local host.
        schemas: registry of abstract syntaxes this side understands.
        local_syntax: this host's data representation.
        deliver: called with every :class:`DeliveredAdu` of any accepted
            session (sessions are distinguished by flow id in the name).
        on_session: called with each established :class:`Session`.
        plan_cache: plan cache shared with the ALF endpoints this
            listener builds (defaults to the process-wide cache).
        presentation: fuse schema-compiled presentation conversion into
            the association's wire plans.  The accepted session's schema
            (from the registry) and the negotiated transfer codec become
            a :class:`PresentationBinding` on the ALF receiver, so
            verify + convert run as one compiled pass and delivered
            payloads arrive in this host's local syntax.  Both ends must
            choose alike — a receiver decoding bytes the sender never
            converted delivers garbage that still checksums — so the
            INIT carries the initiator's choice and a mismatch is
            rejected with a clear reason.
        encryption: 32-bit cipher key this listener requires, or None
            for cleartext.  Fused into the ALF receivers' wire plans
            ([checksum, decrypt, convert]); INITs whose cipher id does
            not match this configuration are rejected with a clear
            reason.
        integrity: the :class:`~repro.integrity.IntegrityPolicy` this
            listener requires.  Both ends must compute the checksum
            over the same covered spans or every ADU would "fail"
            verification, so the INIT carries the initiator's policy
            fingerprint and a mismatch is rejected with a clear reason
            (like the cipher check).  Accepted flows' receivers run the
            policy's corrupt-tolerant delivery.
        drain_engine: a :class:`~repro.transport.drain.SharedDrainEngine`
            to register accepted flows with (several listeners — or
            hand-built receivers — can share one): flows whose wire plans
            share a shape coalesce into one ``run_batch`` dispatch per
            drain epoch.  Without one, accepted receivers verify each
            ADU on arrival.
        sharded: a :class:`~repro.net.shard.ShardedHost` to place
            accepted flows on: each accepted receiver is built on its
            flow's home shard (that shard's host and drain engine),
            so the machine's flows divide across independent receive
            stacks.  The caller keeps ownership and shuts it down.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        schemas: dict[str, ASType],
        local_syntax: LocalSyntax | None = None,
        deliver: Callable[[int, DeliveredAdu], None] | None = None,
        on_session: Callable[[Session], None] | None = None,
        plan_cache: PlanCache | None = None,
        tracer: Tracer | None = None,
        presentation: bool = False,
        encryption: int | None = None,
        integrity: IntegrityPolicy | None = None,
        drain_engine: SharedDrainEngine | None = None,
        sharded: "ShardedHost | None" = None,
    ):
        self.loop = loop
        self.host = host
        self.schemas = dict(schemas)
        self.local_syntax = local_syntax or LocalSyntax("listener", "little")
        self.deliver = deliver
        self.on_session = on_session
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.tracer = tracer or DISABLED_TRACER
        self.presentation = bool(presentation)
        self.encryption = encryption
        self.integrity = integrity
        self.drain_engine = drain_engine
        self.sharded = sharded
        self.sessions: dict[int, Session] = {}
        self.rejected = 0
        # Offered configuration (the INIT's _OFFER_FIELDS) -> what its
        # accepted sessions share; see _admit.
        self._offers: dict[tuple, tuple] = {}
        self._closed = False
        host.bind_protocol(PROTOCOL, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        header = packet.header
        if header.get("kind") != "init":
            return
        flow_id = int(header["flow_id"])
        if flow_id in self.sessions:
            self._send_accept(packet.src, flow_id)  # duplicate INIT
            return
        # An offer seen before costs one lookup: its checks passed, and
        # what they decided is immutable and shared by its sessions.
        key = tuple(map(header.get, _OFFER_FIELDS))
        offer = self._offers.get(key)
        if offer is None:
            offer = self._admit(packet.src, flow_id, header)
            if offer is None:
                return
            self._offers[key] = offer
        config, plan, binding = offer
        session = Session(flow_id=flow_id, config=config, plan=plan)
        rx_loop, rx_host, rx_engine = self.loop, self.host, self.drain_engine
        if self.sharded is not None:
            # The flow lives on its home shard: its host demuxes the
            # flow's fragments and its engine drains the flow's ADUs.
            # Timers run on the one loop the shards share.
            shard = self.sharded.shard_for("alf", flow_id)
            rx_loop, rx_host, rx_engine = shard.loop, shard.host, shard.engine
        session.receiver = AlfReceiver(
            rx_loop,
            rx_host,
            packet.src,
            flow_id,
            deliver=functools.partial(self._deliver, flow_id),
            plan_cache=self.plan_cache,
            presentation=binding,
            encryption=self.encryption,
            drain_engine=rx_engine,
            integrity=self.integrity,
        )
        self.sessions[flow_id] = session
        if self.sharded is not None:
            # Register with the rebalancer's flow ledger so a bucket
            # migration can rehome this receiver at a train boundary.
            self.sharded.register_flow("alf", flow_id, session.receiver)
        self.tracer.emit(self.loop.now, "session", "accepted", flow_id=flow_id)
        self._send_accept(packet.src, flow_id)
        if self.on_session is not None:
            self.on_session(session)

    def _admit(
        self, peer: str, flow_id: int, header: dict
    ) -> tuple[SessionConfig, ConversionPlan, PresentationBinding | None] | None:
        """Check a new offer against this listener's configuration.

        Returns what an accepted session of this offer is built from:
        its config, negotiated plan and presentation binding.  On a
        mismatch, sends the REJECT and returns None.
        """
        schema_name = header["schema"]
        if schema_name not in self.schemas:
            self.rejected += 1
            self._send_reject(peer, flow_id, f"unknown schema {schema_name!r}")
            return None
        # Schema *revision* check: the name alone is not identity — a
        # field added on one side would otherwise garble every decode.
        local_fp = schema_fingerprint(self.schemas[schema_name])
        peer_fp = header.get("schema_fp")
        if peer_fp is not None and peer_fp != local_fp:
            self.rejected += 1
            self._send_reject(
                peer,
                flow_id,
                f"schema fingerprint mismatch for {schema_name!r}: "
                f"initiator has {peer_fp}, listener has {local_fp} "
                "(schema revisions differ)",
            )
            return None
        # Cipher check: both ends must run the same cipher and key, or
        # decrypted payloads would be garbage that still checksums.
        local_cipher = cipher_token(self.encryption)
        peer_cipher = header.get("cipher")
        if peer_cipher != local_cipher:
            self.rejected += 1
            self._send_reject(
                peer,
                flow_id,
                f"cipher mismatch: initiator offers "
                f"{peer_cipher or 'cleartext'}, listener requires "
                f"{local_cipher or 'cleartext'}",
            )
            return None
        # Integrity-coverage check: the checksum must be computed over
        # the same spans at both ends, or every ADU would "fail" verify
        # (or worse, damage in a span one side thinks is covered would
        # slip through).  A missing header means full coverage —
        # pre-policy initiators interoperate with full-coverage
        # listeners.
        local_integrity = integrity_token(self.integrity)
        peer_integrity = header.get("integrity", "full")
        if peer_integrity != local_integrity:
            self.rejected += 1
            self._send_reject(
                peer,
                flow_id,
                f"integrity policy mismatch: initiator offers "
                f"{peer_integrity!r}, listener requires {local_integrity!r}",
            )
            return None
        # Presentation check: a receiver converting bytes the sender
        # never converted (or the reverse) delivers garbage that still
        # checksums.  A missing header means no conversion.
        peer_presentation = header.get("presentation", False)
        if peer_presentation != self.presentation:
            self.rejected += 1
            self._send_reject(
                peer,
                flow_id,
                f"presentation mismatch: initiator offers "
                f"presentation={peer_presentation}, listener requires "
                f"presentation={self.presentation}",
            )
            return None
        config = SessionConfig(
            schema_name=schema_name,
            recovery=RecoveryMode(header["recovery"]),
            mtu=int(header["mtu"]),
            local_syntax=LocalSyntax(header["syntax_name"], header["byte_order"]),
            allow_direct=bool(header["allow_direct"]),
        )
        schema = self.schemas[schema_name]
        plan = negotiate(
            config.local_syntax,
            self.local_syntax,
            schema,
            allow_direct=config.allow_direct,
        )
        binding = None
        if self.presentation:
            binding = PresentationBinding(
                schema=schema,
                local=LwtsCodec(byte_order=self.local_syntax.byte_order),
                wire=plan.codec,
            )
        return config, plan, binding

    def _deliver(self, flow_id: int, adu: DeliveredAdu) -> None:
        if self.deliver is not None:
            self.deliver(flow_id, adu)

    def close(self) -> None:
        """Tear the listener down: close every accepted flow's receiver
        (releasing in-flight buffers, unregistering from the drain
        engine) and unbind the session protocol so a fresh listener can
        bind on the same host.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for flow_id, session in self.sessions.items():
            if session.receiver is not None:
                if self.sharded is not None:
                    self.sharded.unregister_flow("alf", flow_id)
                session.receiver.close()
        self.host.unbind_protocol(PROTOCOL)

    def _send_accept(self, peer: str, flow_id: int) -> None:
        self.host.send(
            Packet(
                src=self.host.name,
                dst=peer,
                protocol=PROTOCOL,
                flow_id=flow_id,
                header={
                    "kind": "accept",
                    "flow_id": flow_id,
                    "syntax_name": self.local_syntax.name,
                    "byte_order": self.local_syntax.byte_order,
                },
            )
        )

    def _send_reject(self, peer: str, flow_id: int, reason: str) -> None:
        self.host.send(
            Packet(
                src=self.host.name,
                dst=peer,
                protocol=PROTOCOL,
                flow_id=flow_id,
                header={"kind": "reject", "flow_id": flow_id, "reason": reason},
            )
        )


class SessionInitiator:
    """Opens an association and builds the sending session.

    Args:
        loop: event loop.
        host: local host.
        peer: the listener's host name.
        config: proposed association parameters.
        schemas: this side's schema registry (must contain the proposal).
        on_established: called with the :class:`Session` once ACCEPTed.
        on_failed: called with a reason string on reject or timeout.
        handshake_timeout: per-INIT retransmit interval.
        max_attempts: INIT attempts before giving up.
        recompute: forwarded to the ALF sender (APP_RECOMPUTE mode).
        plan_cache: plan cache shared with the ALF sender this initiator
            builds (defaults to the process-wide cache).
        presentation: fuse schema-compiled presentation conversion into
            the association's wire plans.  The proposed schema and the
            negotiated transfer codec become a
            :class:`PresentationBinding` on the ALF sender, so ADUs
            handed in local syntax are converted to the wire syntax in
            the same compiled pass as the checksum.  The INIT carries
            the choice; a listener that chose otherwise rejects the
            handshake.
        encryption: 32-bit cipher key, or None for cleartext.  Fused
            into the ALF sender's wire plan ([convert, encrypt,
            checksum]); the INIT carries the cipher id (a key
            fingerprint, never the key) so a listener with a different
            cipher config rejects the handshake.
        integrity: the :class:`~repro.integrity.IntegrityPolicy` this
            side proposes.  The INIT carries the policy fingerprint; a
            listener configured differently rejects the handshake, so
            coverage can never silently disagree between the ends.
        pacing: a :class:`TrainPacer` shaping the session's egress
            into rate-paced packet trains, or None for none.  It is
            handed to the ALF sender once the handshake completes, and
            drain-pressure quanta on the listener's ACKs drive its AIMD
            rate loop.
        pacing_auto_rate: seed the pacer's rate from the handshake's
            round-trip sample (one shaped train per round trip).
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        config: SessionConfig,
        schemas: dict[str, ASType],
        on_established: Callable[[Session], None] | None = None,
        on_failed: Callable[[str], None] | None = None,
        handshake_timeout: float = 0.1,
        max_attempts: int = 10,
        recompute: Callable[[int], Any] | None = None,
        plan_cache: PlanCache | None = None,
        tracer: Tracer | None = None,
        presentation: bool = False,
        encryption: int | None = None,
        integrity: IntegrityPolicy | None = None,
        pacing: TrainPacer | None = None,
        pacing_auto_rate: bool = False,
    ):
        if config.schema_name not in schemas:
            raise TransportError(
                f"proposing unknown schema {config.schema_name!r}"
            )
        self.loop = loop
        self.host = host
        self.peer = peer
        self.config = config
        self.schemas = dict(schemas)
        self.on_established = on_established
        self.on_failed = on_failed
        self.handshake_timeout = handshake_timeout
        self.max_attempts = max_attempts
        self.recompute = recompute
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.tracer = tracer or DISABLED_TRACER
        self.presentation = bool(presentation)
        self.encryption = encryption
        self.integrity = integrity
        self.pacing = pacing
        self.pacing_auto_rate = bool(pacing_auto_rate)

        self.flow_id = next(_flow_ids)
        self.session: Session | None = None
        self.failed_reason: str | None = None
        self.init_rtt: float | None = None
        self._attempts = 0
        self._init_sent_at = loop.now
        self._init_timer: Event | None = None
        self._schema_fp = schema_fingerprint(schemas[config.schema_name])
        host.bind(PROTOCOL, self.flow_id, self._on_packet)
        self._send_init()

    @property
    def established(self) -> bool:
        """Whether the handshake has completed."""
        return self.session is not None

    def _send_init(self) -> None:
        self._init_timer = None  # fired, or never armed
        if self._attempts >= self.max_attempts:
            self._fail("handshake timed out")
            return
        self._attempts += 1
        # Karn's rule for the handshake sample: a retransmitted INIT is
        # ambiguous — the ACCEPT may answer any earlier copy — so only
        # the first attempt arms the stopwatch, and a retransmitted
        # handshake yields no RTT sample at all.
        if self._attempts == 1:
            self._init_sent_at = self.loop.now
        self.host.send(
            Packet(
                src=self.host.name,
                dst=self.peer,
                protocol=PROTOCOL,
                flow_id=self.flow_id,
                header={
                    "kind": "init",
                    "flow_id": self.flow_id,
                    "schema": self.config.schema_name,
                    "schema_fp": self._schema_fp,
                    "cipher": cipher_token(self.encryption),
                    "integrity": integrity_token(self.integrity),
                    "presentation": self.presentation,
                    "recovery": self.config.recovery.value,
                    "mtu": self.config.mtu,
                    "syntax_name": self.config.local_syntax.name,
                    "byte_order": self.config.local_syntax.byte_order,
                    "allow_direct": self.config.allow_direct,
                },
            )
        )
        self._init_timer = self.loop.schedule(self.handshake_timeout, self._send_init)

    def _end_handshake(self) -> None:
        """Stop the INIT timer and unbind: once ACCEPTed, rejected or
        timed out, the initiator has nothing left to hear, and a late
        ACCEPT is the host's to count as undeliverable."""
        if self._init_timer is not None:
            self._init_timer.cancel()
            self._init_timer = None
        self.host.unbind(PROTOCOL, self.flow_id)

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.header.get("kind")
        if kind == "reject":
            self._fail(str(packet.header.get("reason", "rejected")))
            return
        if kind != "accept" or self.established:
            return
        self._end_handshake()
        if self._attempts == 1:
            self.init_rtt = max(self.loop.now - self._init_sent_at, 0.0)
        if (
            self.pacing_auto_rate
            and self.pacing is not None
            and self.init_rtt is not None
            and self.init_rtt > 0.0
        ):
            # One shaped train per measured round trip: the INIT/ACCEPT
            # sample replaces the operator's blind 125 KB/s default as
            # the AIMD starting point (clamped to the pacer's bounds).
            pacer = self.pacing
            seeded = pacer.seed_rate(
                pacer.target_train * pacer.mtu / self.init_rtt
            )
            self.tracer.emit(self.loop.now, "session", "auto-rate",
                             flow_id=self.flow_id, rtt=self.init_rtt,
                             rate=seeded)
        receiver_syntax = LocalSyntax(
            packet.header["syntax_name"], packet.header["byte_order"]
        )
        plan = _accepted_plan(
            self.config.local_syntax,
            receiver_syntax,
            self.schemas[self.config.schema_name],
            self.config.allow_direct,
        )
        session = Session(flow_id=self.flow_id, config=self.config, plan=plan)
        schema = (
            self.schemas[self.config.schema_name] if self.presentation else None
        )
        binding = None
        if schema is not None:
            binding = PresentationBinding(
                schema=schema,
                local=LwtsCodec(byte_order=self.config.local_syntax.byte_order),
                wire=plan.codec,
            )
        session.sender = AlfSender(
            self.loop,
            self.host,
            self.peer,
            self.flow_id,
            mtu=self.config.mtu,
            recovery=self.config.recovery,
            recompute=self.recompute,
            plan_cache=self.plan_cache,
            presentation=binding,
            encryption=self.encryption,
            integrity=self.integrity,
            pacing=self.pacing,
        )
        self.session = session
        self.tracer.emit(self.loop.now, "session", "established",
                         flow_id=self.flow_id, attempts=self._attempts)
        if self.on_established is not None:
            self.on_established(session)

    def _fail(self, reason: str) -> None:
        if self.failed_reason is None and not self.established:
            self._end_handshake()
            self.failed_reason = reason
            self.tracer.emit(self.loop.now, "session", "failed", reason=reason)
            if self.on_failed is not None:
                self.on_failed(reason)
