"""Property tests for corrupt-tolerant delivery (the ALF "ignore" mode).

Two invariants, checked end-to-end across randomized payloads, damage
positions and policies:

* **Uncovered damage is survivable.**  With a tolerant policy and every
  packet's uncovered region damaged in flight, every ADU still arrives,
  carries ``corrupt_spans`` naming the damaged ranges, and is
  byte-identical to the original *outside* those ranges — with zero
  checksum failures and zero repair traffic.
* **Covered damage is always fatal.**  Damage inside the covered region
  is never delivered: the coverage checksum catches every single-bit
  flip there, no matter the policy or payload.

Both hold on the serial two-host path (real Link corruption with the
``corrupt_span``-pinned PHY hint) and through a sharded host
(hand-damaged packets with explicit ``phy_corrupt`` hints riding each
shard's shared drain engine).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.adu import Adu
from repro.ilp.compiler import PlanCache
from repro.integrity import IntegrityPolicy
from repro.machine.profile import MIPS_R2000
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.wire import WIRE_CHECKSUM, wire_pipeline

HEADER_BYTES = 64
PAYLOAD_MAX = 1024

_PLANS = PlanCache(capacity=64)


def tolerant_policy() -> IntegrityPolicy:
    return IntegrityPolicy.headers_only(HEADER_BYTES)


def payload_of(length: int, seed: int) -> bytes:
    return bytes(((seed * 41 + k * 7) & 0xFF) for k in range(length))


# --- serial path: real Link corruption ---------------------------------

def run_serial(
    policy: IntegrityPolicy,
    payloads: list[bytes],
    corrupt_span: tuple[int, int],
    seed: int,
):
    path = two_hosts(
        seed=seed,
        bandwidth_bps=1e9,
        corrupt_rate=1.0,
        corrupt_span=corrupt_span,
    )
    delivered: list = []
    receiver = AlfReceiver(
        path.loop,
        path.b,
        "a",
        1,
        delivered.append,
        ack_interval=0.01,
        expected_adus=len(payloads),
        integrity=policy,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=PAYLOAD_MAX, integrity=policy
    )
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(i, payload, {"i": i}))
    path.loop.run(until=5.0)
    return delivered, receiver, sender


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=HEADER_BYTES + 2, max_value=PAYLOAD_MAX),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=HEADER_BYTES, max_value=PAYLOAD_MAX - 2),
    st.integers(min_value=0, max_value=2**16),
)
def test_serial_uncovered_damage_delivers_flagged(specs, span_lo, seed):
    # Every packet is corrupted (rate 1.0) somewhere past the covered
    # header prefix; every ADU must still arrive, flagged, and be
    # byte-identical outside the flagged ranges.
    policy = tolerant_policy()
    payloads = [payload_of(length, seed + i) for i, (length, _) in enumerate(specs)]
    shortest = min(len(p) for p in payloads)
    span = (min(span_lo, shortest - 1), shortest)
    delivered, receiver, sender = run_serial(policy, payloads, span, seed)
    assert len(delivered) == len(payloads)
    assert receiver.stats.checksum_failures == 0
    assert sender.stats.retransmissions == 0
    for adu in delivered:
        original = payloads[adu.sequence]
        assert adu.corrupt_spans, "corrupted delivery must be flagged"
        patched = bytearray(original)
        for lo, hi in adu.corrupt_spans:
            assert not policy.covers(lo, hi)
            patched[lo:hi] = adu.payload[lo:hi]
        assert bytes(patched) == adu.payload


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=HEADER_BYTES + 16, max_value=PAYLOAD_MAX),
    st.integers(min_value=0, max_value=HEADER_BYTES - 1),
    st.integers(min_value=0, max_value=2**16),
)
def test_serial_covered_damage_never_accepted(length, span_lo, seed):
    # Rate-1.0 damage pinned inside the covered prefix: every copy (and
    # every retransmission) is damaged, so nothing may ever deliver —
    # and every attempt must be counted as a checksum failure.
    policy = tolerant_policy()
    payloads = [payload_of(length, seed)]
    span = (span_lo, HEADER_BYTES)
    delivered, receiver, sender = run_serial(policy, payloads, span, seed)
    assert delivered == []
    assert receiver.stats.checksum_failures > 0
    assert sender.stats.retransmissions > 0


# --- sharded path: explicit PHY hints ----------------------------------

def damaged_packet(
    plan, flow_id: int, payload: bytes, span: tuple[int, int]
) -> Packet:
    """A single-fragment data packet checksummed clean, then damaged in
    ``span`` with the matching PHY hint — what a corrupting link emits."""
    _, observations = plan.run(payload)
    mutated = bytearray(payload)
    for index in range(*span):
        mutated[index] ^= 0x80
    return Packet(
        src="a",
        dst="b",
        protocol="alf",
        flow_id=flow_id,
        header={
            "adu_seq": 0,
            "frag": 0,
            "nfrags": 1,
            "adu_len": len(payload),
            "adu_csum": observations[WIRE_CHECKSUM],
            "name": {"seq": 0},
            "phy_corrupt": span,
        },
        payload=bytes(mutated),
    )


def run_sharded(policy: IntegrityPolicy, packets: list[Packet], n_flows: int):
    front = Host(EventLoop(), "b")
    sharded = ShardedHost(
        front,
        2,
        rng=RngStreams(3),
        pool_buffers=n_flows * 2,
        buffer_size=PAYLOAD_MAX,
        max_rows=1024,
        protocols=(),
    )
    ack_rng = RngStreams(4)
    for shard in sharded.shards:
        sink = Host(shard.loop, "a")
        ack = Link(
            shard.loop,
            ack_rng.stream(f"ack-{shard.index}"),
            name=f"b->a/{shard.index}",
        )
        ack.connect(sink.receive)
        shard.host.add_link("a", ack)
    delivered: dict[int, list] = {}
    receivers = {}
    for flow_id in range(n_flows):
        shard = sharded.shard_for("alf", flow_id)
        receivers[flow_id] = AlfReceiver(
            shard.loop,
            shard.host,
            "a",
            flow_id,
            deliver=lambda d, fid=flow_id: delivered.setdefault(
                fid, []
            ).append(d),
            ack_interval=0,
            drain_engine=shard.engine,
            integrity=policy,
        )
    sharded.receive_burst(packets)
    sharded.drain()
    leaks = sharded.shutdown()
    assert all(report == [] for report in leaks.values()), leaks
    return delivered, receivers


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=HEADER_BYTES + 16, max_value=PAYLOAD_MAX),
    st.data(),
)
def test_sharded_uncovered_damage_delivers_flagged(
    n_flows, length, data
):
    policy = tolerant_policy()
    plan = _PLANS.get_or_compile(
        wire_pipeline(None, integrity=policy), MIPS_R2000
    )
    originals = {}
    packets = []
    for flow_id in range(n_flows):
        payload = payload_of(length, flow_id + 1)
        lo = data.draw(
            st.integers(min_value=HEADER_BYTES, max_value=length - 1),
            label=f"span_lo[{flow_id}]",
        )
        hi = data.draw(
            st.integers(min_value=lo + 1, max_value=length),
            label=f"span_hi[{flow_id}]",
        )
        originals[flow_id] = (payload, (lo, hi))
        packets.append(damaged_packet(plan, flow_id, payload, (lo, hi)))
    delivered, _ = run_sharded(policy, packets, n_flows)
    for flow_id, (payload, span) in originals.items():
        rows = delivered.get(flow_id, [])
        assert len(rows) == 1, f"flow {flow_id} lost its damaged ADU"
        adu = rows[0]
        assert adu.corrupt_spans == (span,)
        patched = bytearray(payload)
        lo, hi = span
        patched[lo:hi] = adu.payload[lo:hi]
        assert bytes(patched) == adu.payload
        # The damage really is present in the delivered bytes.
        assert adu.payload[lo:hi] != payload[lo:hi]


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=HEADER_BYTES + 16, max_value=PAYLOAD_MAX),
    st.data(),
)
def test_sharded_covered_damage_never_accepted(n_flows, length, data):
    policy = tolerant_policy()
    plan = _PLANS.get_or_compile(
        wire_pipeline(None, integrity=policy), MIPS_R2000
    )
    packets = []
    for flow_id in range(n_flows):
        payload = payload_of(length, flow_id + 1)
        lo = data.draw(
            st.integers(min_value=0, max_value=HEADER_BYTES - 1),
            label=f"span_lo[{flow_id}]",
        )
        packets.append(damaged_packet(plan, flow_id, payload, (lo, lo + 1)))
    delivered, receivers = run_sharded(policy, packets, n_flows)
    assert delivered == {}
    for flow_id, receiver in receivers.items():
        assert receiver.stats.checksum_failures == 1, flow_id
