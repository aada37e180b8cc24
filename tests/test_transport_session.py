"""Association establishment."""

import pytest

from repro.bench.workloads import integer_array
from repro.core.adu import Adu
from repro.errors import TransportError
from repro.integrity import IntegrityPolicy
from repro.net.packet import Packet
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32, Int64
from repro.presentation.compiler import schema_fingerprint
from repro.presentation.lwts import LwtsCodec
from repro.presentation.negotiate import LocalSyntax
from repro.transport import session as session_module
from repro.transport.alf import RecoveryMode
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import TrainPacer
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)

SCHEMAS = {"ints": ArrayOf(Int32())}


def make_pair(loss_rate=0.0, seed=1, **config_kwargs):
    path = two_hosts(seed=seed, loss_rate=loss_rate)
    delivered = []
    listener = SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.append((fid, adu)),
    )
    config = SessionConfig(schema_name="ints", **config_kwargs)
    initiator = SessionInitiator(
        path.loop, path.a, "b", config, SCHEMAS,
    )
    return path, listener, initiator, delivered


def test_handshake_establishes_both_sides():
    path, listener, initiator, _ = make_pair()
    path.loop.run(until=5)
    assert initiator.established
    assert initiator.session is not None
    assert initiator.session.sender is not None
    assert initiator.session.flow_id in listener.sessions
    assert listener.sessions[initiator.session.flow_id].receiver is not None


def test_negotiation_agrees_on_both_sides():
    path, listener, initiator, _ = make_pair()
    path.loop.run(until=5)
    session = initiator.session
    peer = listener.sessions[session.flow_id]
    assert session.plan.strategy == peer.plan.strategy == "sender-converts"
    assert session.plan.codec.name == peer.plan.codec.name


def test_identity_when_syntaxes_match():
    path, listener, initiator, _ = make_pair(
        local_syntax=LocalSyntax("init-le", "little")
    )
    path.loop.run(until=5)
    assert initiator.session.plan.strategy == "identity"


def test_data_flows_after_establishment():
    path, listener, initiator, delivered = make_pair()
    established = []
    initiator.on_established = lambda s: established.append(s)
    path.loop.run(until=5)
    session = initiator.session
    session.sender.send_adu(Adu(0, b"\x01\x02\x03\x04", {"n": 0}))
    path.loop.run(until=10)
    assert len(delivered) == 1
    assert delivered[0][0] == session.flow_id
    assert delivered[0][1].payload == b"\x01\x02\x03\x04"


def test_handshake_survives_loss():
    path, listener, initiator, _ = make_pair(loss_rate=0.4, seed=3)
    path.loop.run(until=30)
    assert initiator.established


def test_unknown_schema_rejected():
    path = two_hosts(seed=1)
    SessionListener(path.loop, path.b, SCHEMAS)
    failures = []
    SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="video"),
        {"video": ArrayOf(Int32())},  # initiator knows it, listener doesn't
        on_failed=failures.append,
    )
    path.loop.run(until=5)
    assert failures and "unknown schema" in failures[0]


def test_initiator_must_know_its_own_schema():
    path = two_hosts(seed=1)
    with pytest.raises(TransportError, match="unknown schema"):
        SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name="nope"), SCHEMAS,
        )


def test_handshake_times_out_on_black_hole():
    path = two_hosts(seed=2, loss_rate=1.0)
    SessionListener(path.loop, path.b, SCHEMAS)
    failures = []
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="ints"), SCHEMAS,
        on_failed=failures.append, max_attempts=3,
    )
    path.loop.run(until=30)
    assert not initiator.established
    assert failures == ["handshake timed out"]


@pytest.mark.parametrize("outcome", ["accept", "reject", "timeout"])
def test_initiator_unbinds_when_the_handshake_ends(outcome):
    path = two_hosts(seed=2, loss_rate=1.0 if outcome == "timeout" else 0.0)
    SessionListener(path.loop, path.b, SCHEMAS)
    schemas = {"video": ArrayOf(Int32())} if outcome == "reject" else SCHEMAS
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name=next(iter(schemas))),
        schemas, max_attempts=3,
    )
    assert ("session", initiator.flow_id) in path.a.bound_flows()
    path.loop.run(until=30)
    assert initiator.established == (outcome == "accept")
    assert not [key for key in path.a.bound_flows() if key[0] == "session"]
    if outcome == "accept":
        # A late duplicate ACCEPT finds no handler on the initiator's host.
        before = path.a.undeliverable
        path.b.send(Packet(
            src="b", dst="a", protocol="session", flow_id=initiator.flow_id,
            header={"kind": "accept", "flow_id": initiator.flow_id,
                    "syntax_name": "listener", "byte_order": "little"},
        ))
        path.loop.run(until=path.loop.now + 1)
        assert path.a.undeliverable == before + 1


def test_duplicate_init_is_idempotent():
    """Loss of the ACCEPT causes INIT retransmission; the listener must
    not create a second session."""
    path = two_hosts(seed=4, reverse_loss_rate=0.5)
    listener = SessionListener(path.loop, path.b, SCHEMAS)
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
    )
    path.loop.run(until=30)
    assert initiator.established
    assert len(listener.sessions) == 1


def test_pacing_auto_rate_seeds_from_init_rtt():
    path = two_hosts(seed=3)
    SessionListener(path.loop, path.b, SCHEMAS)
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="ints"), SCHEMAS,
        pacing=TrainPacer(path.loop), pacing_auto_rate=True,
    )
    path.loop.run(until=5)
    assert initiator.established
    assert initiator.init_rtt is not None and initiator.init_rtt > 0
    pacer = initiator.pacing
    expected = pacer.target_train * pacer.mtu / initiator.init_rtt
    expected = max(
        pacer.min_rate_bytes_per_s,
        min(pacer.max_rate_bytes_per_s, expected),
    )
    # One shaped train per measured round trip, not the blind default.
    assert pacer.rate_bytes_per_s == pytest.approx(expected)
    assert pacer.rate_bytes_per_s != 125_000.0


def test_pacing_auto_rate_off_keeps_configured_default():
    path = two_hosts(seed=3)
    SessionListener(path.loop, path.b, SCHEMAS)
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="ints"), SCHEMAS,
        pacing=TrainPacer(path.loop),
    )
    path.loop.run(until=5)
    assert initiator.established
    assert initiator.init_rtt is not None  # sampled either way
    assert initiator.pacing.rate_bytes_per_s == 125_000.0


def test_pacing_auto_rate_skips_retransmitted_handshake():
    # Karn's rule: once the INIT is retransmitted, the ACCEPT could be
    # answering any earlier copy — the sample is ambiguous, so the
    # handshake yields no RTT and the pacer keeps its configured rate.
    path = two_hosts(seed=5, reverse_loss_rate=0.5)
    SessionListener(path.loop, path.b, SCHEMAS)
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="ints"), SCHEMAS,
        pacing=TrainPacer(path.loop), pacing_auto_rate=True,
    )
    path.loop.run(until=30)
    assert initiator.established
    assert initiator._attempts > 1  # the seed really forced a resend
    assert initiator.init_rtt is None
    assert initiator.pacing.rate_bytes_per_s == 125_000.0


def test_pacing_auto_rate_without_pacer_is_harmless():
    path = two_hosts(seed=3)
    SessionListener(path.loop, path.b, SCHEMAS)
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(schema_name="ints"), SCHEMAS,
        pacing_auto_rate=True,
    )
    path.loop.run(until=5)
    assert initiator.established
    assert initiator.pacing is None


def test_recovery_mode_travels():
    path, listener, initiator, _ = make_pair(
        recovery=RecoveryMode.NO_RETRANSMIT
    )
    path.loop.run(until=5)
    peer = listener.sessions[initiator.session.flow_id]
    assert peer.config.recovery is RecoveryMode.NO_RETRANSMIT


def test_shared_drain_listener_delivers_end_to_end():
    path = two_hosts(seed=5)
    delivered = []
    listener = SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.append((fid, adu)),
        drain_engine=SharedDrainEngine(path.loop),
    )
    initiators = [
        SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name="ints"), SCHEMAS,
        )
        for _ in range(3)
    ]
    path.loop.run(until=5)
    assert all(i.established for i in initiators)
    assert listener.drain_engine is not None
    assert listener.drain_engine.flow_count == 3
    payload = b"\x01\x02\x03\x04"
    for initiator in initiators:
        initiator.session.sender.send_adu(Adu(0, payload, {"n": 0}))
    path.loop.run(until=10)
    listener.drain_engine.flush()
    assert sorted(fid for fid, _ in delivered) == sorted(
        i.session.flow_id for i in initiators
    )
    assert all(adu.payload == payload for _, adu in delivered)


def test_listener_close_frees_slot_for_rebinding():
    path = two_hosts(seed=6)
    listener = SessionListener(
        path.loop, path.b, SCHEMAS, drain_engine=SharedDrainEngine(path.loop)
    )
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
    )
    path.loop.run(until=5)
    assert initiator.established
    listener.close()
    assert listener.drain_engine.flow_count == 0
    # The protocol slot is free again: a fresh listener can bind and
    # accept a new association on the same host.
    delivered = []
    relisten = SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.append((fid, adu)),
    )
    fresh = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
    )
    path.loop.run(until=15)
    assert fresh.established
    fresh.session.sender.send_adu(Adu(0, b"\x09\x08\x07\x06", {"n": 0}))
    path.loop.run(until=20)
    assert [adu.payload for _, adu in delivered] == [b"\x09\x08\x07\x06"]


def test_sharded_listener_delivers_and_tears_down_clean():
    path = two_hosts(seed=7)
    delivered = []
    sharded = ShardedHost(path.b, 2)
    listener = SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.append((fid, adu)),
        sharded=sharded,
    )
    assert listener.sharded is sharded
    initiators = [
        SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name="ints"), SCHEMAS,
        )
        for _ in range(4)
    ]
    path.loop.run(until=5)
    assert all(i.established for i in initiators)
    payload = b"\x01\x02\x03\x04"
    for initiator in initiators:
        initiator.session.sender.send_adu(Adu(0, payload, {"n": 0}))
    path.loop.run(until=10)
    listener.sharded.drain()
    assert sorted(fid for fid, _ in delivered) == sorted(
        i.session.flow_id for i in initiators
    )
    assert all(adu.payload == payload for _, adu in delivered)
    # Each flow's receiver lives on its home shard's engine.
    assert sum(s.engine.flow_count for s in listener.sharded.shards) == 4
    for initiator in initiators:
        home = listener.sharded.shard_for("alf", initiator.session.flow_id)
        assert home.engine.delivered_total > 0 or home.engine.flow_count > 0
    listener.close()
    assert all(s.engine.flow_count == 0 for s in sharded.shards)
    # The caller owns the sharded host and shuts it down itself.
    sharded.shutdown()
    assert all(s.leak_report() == [] for s in sharded.shards)


# ----------------------------------------------------------------------
# The listener's offer memo: one check per offered configuration


def count_calls(monkeypatch, name):
    """Count calls to ``repro.transport.session.<name>``."""
    original = getattr(session_module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(session_module, name, counted)
    return calls


def test_one_configuration_negotiates_and_fingerprints_once(monkeypatch):
    schema_fingerprint.cache_clear()
    session_module._accepted_plan.cache_clear()
    negotiations = count_calls(monkeypatch, "negotiate")
    path = two_hosts(seed=8)
    listener = SessionListener(path.loop, path.b, SCHEMAS)
    initiators = [
        SessionInitiator(
            path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
        )
        for _ in range(8)
    ]
    path.loop.run(until=5)
    assert all(initiator.established for initiator in initiators)
    assert len(listener.sessions) == 8
    # One fingerprint computation for the one schema (the memo's
    # misses), whichever side asks, and one negotiation per side — not
    # one per session.
    assert schema_fingerprint.cache_info().misses == 1
    assert len(negotiations) == 2
    sessions = list(listener.sessions.values())
    assert all(s.config is sessions[0].config for s in sessions)
    assert all(s.plan is sessions[0].plan for s in sessions)


def first_reason(warm, schemas=SCHEMAS, **initiator_kwargs):
    """The REJECT reason one INIT gets; ``warm`` accepts a session of the
    default configuration first, so its offer is memoized."""
    path = two_hosts(seed=9)
    listener = SessionListener(path.loop, path.b, SCHEMAS)
    if warm:
        accepted = SessionInitiator(
            path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
        )
        path.loop.run(until=2)
        assert accepted.established and len(listener._offers) == 1
    failures = []
    rejected = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"), schemas,
        on_failed=failures.append, **initiator_kwargs,
    )
    path.loop.run(until=path.loop.now + 2)
    assert not rejected.established
    assert len(listener.sessions) == int(warm)
    return failures[0]


@pytest.mark.parametrize(
    "mismatch, reason",
    [
        ({"schemas": {"ints": ArrayOf(Int64())}}, "schema fingerprint mismatch"),
        ({"encryption": 0x1234}, "cipher mismatch"),
        ({"integrity": IntegrityPolicy.headers_only(8)}, "integrity policy mismatch"),
        ({"presentation": True}, "presentation mismatch"),
    ],
)
def test_memo_hit_keeps_rejecting_mismatches(mismatch, reason):
    cold = first_reason(warm=False, **mismatch)
    warm = first_reason(warm=True, **mismatch)
    assert reason in cold
    assert warm == cold


@pytest.mark.parametrize("listener_converts", [True, False])
def test_presentation_mismatch_is_rejected(listener_converts):
    # One end converting to and from the negotiated wire syntax while
    # the other sends or delivers raw bytes would hand up garbage that
    # still checksums: the handshake must refuse it, in both directions.
    path = two_hosts(seed=12)
    listener = SessionListener(
        path.loop, path.b, SCHEMAS, presentation=listener_converts,
    )
    failures = []
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
        presentation=not listener_converts, on_failed=failures.append,
    )
    path.loop.run(until=2)
    assert not initiator.established
    assert listener.sessions == {}
    assert listener.rejected == 1
    assert len(failures) == 1
    assert "presentation mismatch" in failures[0]


def test_duplicate_init_after_memo_hit_reaccepts():
    path = two_hosts(seed=10)
    listener = SessionListener(path.loop, path.b, SCHEMAS)
    initiators = [
        SessionInitiator(
            path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
        )
        for _ in range(2)
    ]
    path.loop.run(until=2)
    assert all(initiator.established for initiator in initiators)
    flow_id = initiators[1].flow_id  # built from the memoized offer
    accepts = []
    path.a.unbind("session", flow_id)
    path.a.bind("session", flow_id, accepts.append)
    init = Packet(
        src="a", dst="b", protocol="session", flow_id=flow_id,
        header={
            "kind": "init", "flow_id": flow_id, "schema": "ints",
            "schema_fp": schema_fingerprint(SCHEMAS["ints"]),
            "cipher": None, "integrity": "full", "presentation": False,
            "recovery": RecoveryMode.TRANSPORT_BUFFER.value, "mtu": 1024,
            "syntax_name": "initiator", "byte_order": "big",
            "allow_direct": True,
        },
    )
    path.a.send(init)
    path.loop.run(until=path.loop.now + 1)
    assert [packet.header["kind"] for packet in accepts] == ["accept"]
    assert len(listener.sessions) == 2
    assert len(listener._offers) == 1


def test_shared_offer_sessions_deliver_exact_with_presentation_and_cipher():
    key = 0x6B8B4567
    schema = SCHEMAS["ints"]
    local, delivered_as = LwtsCodec(byte_order="big"), LwtsCodec(byte_order="little")
    path = two_hosts(seed=11)
    delivered = {}
    listener = SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.setdefault(fid, []).append(
            (adu.sequence, bytes(adu.payload))
        ),
        presentation=True, encryption=key,
        drain_engine=SharedDrainEngine(path.loop),
    )
    initiators = [
        SessionInitiator(
            path.loop, path.a, "b", SessionConfig(schema_name="ints"), SCHEMAS,
            presentation=True, encryption=key,
        )
        for _ in range(4)
    ]
    path.loop.run(until=2)
    assert all(initiator.established for initiator in initiators)
    receivers = [listener.sessions[i.flow_id].receiver for i in initiators]
    assert len(listener._offers) == 1
    assert all(r.presentation is receivers[0].presentation for r in receivers)
    assert all(r.wire.encrypt is receivers[0].wire.encrypt for r in receivers)
    expected = {}
    for index, initiator in enumerate(initiators):
        for sequence in range(3):
            value = integer_array(16, seed=7 * index + sequence)
            initiator.session.sender.send_adu(
                Adu(sequence, local.encode(value, schema), {"n": sequence})
            )
            expected.setdefault(initiator.flow_id, []).append(
                (sequence, delivered_as.encode(value, schema))
            )
    path.loop.run(until=path.loop.now + 2)
    listener.drain_engine.flush()
    assert {fid: sorted(adus) for fid, adus in delivered.items()} == expected
