"""The full §6 single-pass secure pipeline.

Covers the fused encryption fast path end to end: the streaming
``xor_chain`` kernel, checksum correctness over partial-word tails (the
fused loop's padding must not leak into the sum), compiled-vs-interpreted
equivalence, ciphertext on the wire, the drain engine's batched verify
with per-row failure isolation, and the
handshake's schema-fingerprint / cipher negotiation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.core.adu import Adu, fragment_adu
from repro.ilp.compiler import PipelineCompiler, PlanCache
from repro.ilp.kernels import xor_chain
from repro.ilp.pipeline import Pipeline
from repro.machine.accounting import datapath_counters
from repro.machine.profile import MIPS_R2000
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.stages.checksum import ChecksumComputeStage, internet_checksum
from repro.stages.encrypt import WordXorStage, secure_counters
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.alf.receiver import PROTOCOL
from repro.transport.alf.wire import wire_pipeline
from repro.transport.drain import SharedDrainEngine
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
    cipher_token,
)

KEY = 0xA5C3F00D


def compile_plan(stages, name="secure"):
    return PipelineCompiler(MIPS_R2000).compile(Pipeline(stages, name=name))


def chain_of(data: bytes, cuts) -> BufferChain:
    chain = BufferChain()
    prev = 0
    for cut in list(cuts) + [len(data)]:
        if cut > prev:
            chain.append(Segment.wrap(data[prev:cut]))
        prev = cut
    return chain


# ----------------------------------------------------------------------
# xor_chain: the streaming cipher kernel


@given(
    data=st.binary(max_size=2048),
    key=st.integers(min_value=0, max_value=0xFFFFFFFF),
    splits=st.lists(st.integers(min_value=0, max_value=2048), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_xor_chain_matches_interpreted(data, key, splits):
    cuts = sorted(c for c in splits if c < len(data))
    chain = chain_of(data, cuts)
    out = xor_chain(chain, key)
    assert out.linearize() == WordXorStage(key).apply(data)
    back = xor_chain(out, key)
    assert back.linearize() == data  # self-inverse
    chain.release()
    out.release()
    back.release()


def test_xor_chain_is_segment_geometry_independent():
    data = bytes(random.Random(3).randbytes(1001))
    flat = xor_chain(chain_of(data, []), KEY).linearize()
    for cuts in ([1], [500], [1, 2, 3], [7, 100, 505, 999]):
        assert xor_chain(chain_of(data, cuts), KEY).linearize() == flat


# ----------------------------------------------------------------------
# Checksum over partial-word tails: the fused loop pads the final word,
# the cipher transform writes into that padding, and the checksum must
# still cover exactly the true bytes.


@given(
    data=st.binary(min_size=1, max_size=512),
    key=st.integers(min_value=1, max_value=0xFFFFFFFF),
)
@settings(max_examples=80, deadline=None)
def test_fused_checksum_covers_exactly_the_wire_bytes(data, key):
    plan = compile_plan(
        [WordXorStage(key, name="encrypt"), ChecksumComputeStage()]
    )
    out, observations = plan.run(data)
    ciphertext = WordXorStage(key).apply(data)
    assert out == ciphertext
    assert observations["checksum-internet"] == internet_checksum(ciphertext)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 1001, 1002, 1003, 4096])
def test_sender_receiver_plans_agree_on_unaligned_tails(length):
    data = bytes(random.Random(length).randbytes(length))
    sender = compile_plan(
        [WordXorStage(KEY, name="encrypt"), ChecksumComputeStage()]
    )
    receiver = compile_plan(
        [ChecksumComputeStage(), WordXorStage(KEY, name="decrypt")]
    )
    wire, sent = sender.run(data)
    back, received = receiver.run(wire)
    assert back == data
    assert sent["checksum-internet"] == received["checksum-internet"]


def test_batch_finalize_masks_partial_words_per_row():
    plan = compile_plan(
        [WordXorStage(KEY, name="encrypt"), ChecksumComputeStage()]
    )
    rows = [bytes(random.Random(i).randbytes(97 + i)) for i in range(9)]
    batch = plan.run_batch(rows)
    for row, output, checksum in zip(
        rows, batch.outputs, batch.observations["checksum-internet"]
    ):
        assert output == WordXorStage(KEY).apply(row)
        assert checksum == internet_checksum(output)


# ----------------------------------------------------------------------
# Fusion shape and streaming execution


def test_secure_wire_pipeline_compiles_to_one_group_each_direction():
    plan_cache = PlanCache(capacity=8)
    sender = plan_cache.get_or_compile(
        wire_pipeline(encrypt=WordXorStage(KEY, name="encrypt")), MIPS_R2000
    )
    receiver = plan_cache.get_or_compile(
        wire_pipeline(
            convert_after=True, encrypt=WordXorStage(KEY, name="decrypt")
        ),
        MIPS_R2000,
    )
    assert len(sender.groups) == 1
    assert len(receiver.groups) == 1


def test_run_chain_streams_encryption_without_gathering():
    plan = compile_plan(
        [WordXorStage(KEY, name="encrypt"), ChecksumComputeStage()]
    )
    data = bytes(random.Random(9).randbytes(3000))
    chain = chain_of(data, [700, 1900])
    counters = datapath_counters()
    counters.reset()
    before = secure_counters().snapshot()
    out, observations = plan.run_chain(chain)
    after = secure_counters().snapshot()
    snap = counters.snapshot()
    counters.reset()
    ciphertext = WordXorStage(KEY).apply(data)
    assert out.linearize() == ciphertext
    assert observations["checksum-internet"] == internet_checksum(ciphertext)
    # The cipher streamed segment-by-segment: no word gather happened.
    assert snap["copies_by_label"].get("gather-words", 0) == 0
    assert after["chain_passes"] == before["chain_passes"] + 1
    out.release()


# ----------------------------------------------------------------------
# End-to-end encrypted transport


def run_transfer(zero_copy, drained, n_adus=12, loss_rate=0.0, seed=7):
    """An encrypted transfer, verified on arrival or (``drained``)
    through a drain engine."""
    path = two_hosts(seed=seed, loss_rate=loss_rate, bandwidth_bps=1e9)
    rng = random.Random(seed)
    payloads = [rng.randbytes(4000 + i) for i in range(n_adus)]
    wire_snapshots = []
    forward = path.b.receive

    def sniff(packet):
        if packet.payload:
            payload = packet.payload
            wire_snapshots.append(
                payload.tobytes()
                if isinstance(payload, BufferChain)
                else bytes(payload)
            )
        forward(packet)

    path.a_to_b.connect(sniff)
    delivered = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: delivered.__setitem__(d.sequence, d.payload),
        zero_copy=zero_copy, encryption=KEY,
        drain_engine=SharedDrainEngine(path.loop) if drained else None,
    )
    sender = AlfSender(path.loop, path.a, "b", 1, mtu=1500, encryption=KEY)
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(sequence=i, payload=payload, name={"i": i}))
    path.loop.run(until=120.0)
    return payloads, delivered, wire_snapshots, receiver


@pytest.mark.parametrize("zero_copy", [False, True])
@pytest.mark.parametrize("drained", [False, True])
def test_encrypted_transfer_delivers_plaintext(zero_copy, drained):
    payloads, delivered, wire, receiver = run_transfer(zero_copy, drained)
    assert {i: p for i, p in enumerate(payloads)} == delivered
    if drained:
        assert receiver.drain_engine.counters.dispatches >= 1
        assert receiver.drain_engine.delivered_total == len(payloads)


@pytest.mark.parametrize("zero_copy", [False, True])
def test_wire_carries_ciphertext_not_plaintext(zero_copy):
    payloads, delivered, wire, _ = run_transfer(zero_copy, drained=False)
    joined = b"".join(wire)
    ciphertext = WordXorStage(KEY).apply(payloads[0])
    assert payloads[0][:512] not in joined
    assert ciphertext[:512] in joined


def test_encrypted_transfer_survives_loss_with_retransmission():
    payloads, delivered, _, _ = run_transfer(
        zero_copy=True, drained=True, loss_rate=0.08, seed=13
    )
    assert {i: p for i, p in enumerate(payloads)} == delivered


def test_encryption_composes_with_fec():
    path = two_hosts(seed=11, loss_rate=0.06, bandwidth_bps=50e6)
    n_adus = 30
    rng = random.Random(4)
    payloads = [rng.randbytes(2234) for _ in range(n_adus)]
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, d.payload),
        expected_adus=n_adus, ack_interval=0.0, encryption=KEY,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=500,
        recovery=RecoveryMode.NO_RETRANSMIT, fec_group=4, encryption=KEY,
    )
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(i, payload, {"i": i}))
    sender.close()
    path.loop.run(until=120)
    assert got, "nothing delivered"
    assert all(got[seq] == payloads[seq] for seq in got)
    assert receiver.fec_recoveries > 0


# ----------------------------------------------------------------------
# Engine-drained batch: partial-failure isolation


def make_fragments(payloads, mtu=1024):
    cipher = WordXorStage(KEY)
    packets = []
    for sequence, payload in enumerate(payloads):
        ciphertext = cipher.apply(payload)
        adu = Adu(sequence=sequence, payload=ciphertext, name={"i": sequence})
        checksum = internet_checksum(ciphertext)
        for fragment in fragment_adu(adu, mtu, checksum=checksum):
            packets.append(
                Packet(
                    src="a", dst="b", protocol=PROTOCOL, flow_id=1,
                    header=AlfSender._header(
                        fragment.adu_sequence, fragment.index, fragment.total,
                        fragment.adu_length, fragment.adu_checksum, fragment.name,
                    ),
                    payload=fragment.payload,
                )
            )
    return packets


def test_run_batch_isolates_corrupt_adus():
    path = two_hosts(seed=5)
    delivered = {}
    engine = SharedDrainEngine(path.loop)
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: delivered.__setitem__(d.sequence, d.payload),
        zero_copy=False, encryption=KEY, drain_engine=engine,
    )
    rng = random.Random(21)
    payloads = [rng.randbytes(3000 + i) for i in range(8)]
    packets = make_fragments(payloads)
    # Corrupt one fragment of ADU 3: its checksum row must fail without
    # taking down the rest of the batch.
    for packet in packets:
        if packet.header["adu_seq"] == 3 and packet.header["frag"] == 0:
            flipped = bytearray(packet.payload)
            flipped[10] ^= 0xFF
            packet.payload = bytes(flipped)
            break
    for packet in packets:
        receiver._on_fragment(packet)
    drained = engine.flush()
    assert drained == 7
    assert engine.counters.dispatches == 1
    assert engine.counters.corrupt_rows == 1
    assert receiver.stats.checksum_failures == 1
    assert 3 not in delivered
    assert {i: payloads[i] for i in delivered} == delivered
    assert len(delivered) == 7


def test_run_batch_empty_queue_is_noop():
    path = two_hosts(seed=5)
    engine = SharedDrainEngine(path.loop)
    AlfReceiver(
        path.loop, path.b, "a", 1, deliver=lambda d: None,
        encryption=KEY, drain_engine=engine,
    )
    assert engine.flush() == 0
    assert engine.counters.dispatches == 0


# ----------------------------------------------------------------------
# Session negotiation: schema fingerprint + cipher id


SCHEMAS = {"ints": ArrayOf(Int32())}


def test_session_with_matching_cipher_delivers():
    path = two_hosts(seed=1)
    delivered = []
    SessionListener(
        path.loop, path.b, SCHEMAS,
        deliver=lambda fid, adu: delivered.append(adu),
        encryption=KEY, drain_engine=SharedDrainEngine(path.loop),
    )
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"),
        SCHEMAS, encryption=KEY,
    )
    path.loop.run(until=5)
    assert initiator.established
    initiator.session.sender.send_adu(
        Adu(0, b"\x01\x02\x03\x04\x05\x06\x07\x08", {"n": 0})
    )
    path.loop.run(until=10)
    assert len(delivered) == 1
    assert delivered[0].payload == b"\x01\x02\x03\x04\x05\x06\x07\x08"


def test_session_rejects_cipher_mismatch_with_clear_reason():
    path = two_hosts(seed=2)
    listener = SessionListener(path.loop, path.b, SCHEMAS, encryption=KEY)
    failures = []
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"),
        SCHEMAS, encryption=None, on_failed=lambda r: failures.append(r),
    )
    path.loop.run(until=10)
    assert not initiator.established
    assert listener.rejected >= 1
    assert failures and "cipher mismatch" in failures[0]
    assert "cleartext" in failures[0]


def test_session_rejects_schema_fingerprint_mismatch():
    path = two_hosts(seed=3)
    # Same schema *name*, different shape: the fingerprints disagree.
    listener = SessionListener(
        path.loop, path.b, {"ints": ArrayOf(Int32(), fixed_count=8)}
    )
    failures = []
    initiator = SessionInitiator(
        path.loop, path.a, "b", SessionConfig(schema_name="ints"),
        SCHEMAS, on_failed=lambda r: failures.append(r),
    )
    path.loop.run(until=10)
    assert not initiator.established
    assert listener.rejected >= 1
    assert failures and "schema fingerprint mismatch" in failures[0]


def test_cipher_token_never_exposes_the_key():
    token = cipher_token(KEY)
    assert token is not None and token.startswith("word-xor/")
    assert f"{KEY:x}" not in token
    assert str(KEY) not in token
    assert cipher_token(None) is None
    assert cipher_token(WordXorStage(KEY)) == token
    # Distinct keys get distinct tokens (fingerprint, not constant).
    assert cipher_token(KEY + 1) != token
