"""Whole-ADU runs on the receive path, checked against per-fragment delivery.

A run that is exactly one ADU's fragments ``0..n-1`` in order, with
``n >= 1``, is DMA'd in one pool call and reassembled in one receiver
call.  Anything else falls back to the per-fragment path.  Each case here
feeds the same packets four ways: as the given bursts through
``Host.receive_burst``; as one-packet bursts; packet by packet through
``Host.receive``; and through the reference, the per-fragment path alone
(no run is ever offered, so each packet is DMA'd by ``Host._dma`` and
handed to ``_on_fragment``).  One-packet bursts and single packets form a
run when the packet is a whole single-fragment ADU.  Every observable —
delivered bytes and spans, drops, demux memo hits, control-instruction
counts, DMA counts, receiver statistics, ACKs and the pool's leak report
— must match the reference.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.buffers.pool import BufferPool
from repro.core.adu import Adu
from repro.integrity import IntegrityPolicy
from repro.machine.accounting import datapath_counters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.topology import sharded_ingress
from repro.sim.eventloop import EventLoop
from repro.sim.trace import Tracer
from repro.transport.alf.receiver import PROTOCOL, AlfReceiver
from repro.transport.alf.sender import AlfSender
from repro.transport.drain import SharedDrainEngine

FLOW = 1
MTU = 64
FEEDS = ("burst", "one_packet_bursts", "receive", "reference")


def wire_packets(n_adus=2, adu_bytes=256, flow=FLOW, **sender_kwargs) -> list[Packet]:
    """The wire units an ALF sender emits for ``n_adus`` ADUs."""
    loop = EventLoop()
    sender = AlfSender(loop, Host(loop, "a"), "b", flow, mtu=MTU, **sender_kwargs)
    packets = []
    for sequence in range(n_adus):
        payload = random.Random(sequence).randbytes(adu_bytes)
        adu = Adu(sequence, payload, {"i": sequence})
        for header, data in sender._wire_units(adu):
            packets.append(Packet(src="a", dst="b", protocol=PROTOCOL,
                                  flow_id=flow, header=header,
                                  payload=bytes(data)))
    return packets


class FragmentOnlyReceiver(AlfReceiver):
    """An ALF receiver the host never offers a run: fragments only."""

    receive_run = None


@contextmanager
def counting(cls, name, calls: Counter):
    """Count calls to ``cls.name`` into ``calls[name]`` while active."""
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    setattr(cls, name, wrapper)
    try:
        yield
    finally:
        setattr(cls, name, original)


def run_case(bursts, feed, flows=(FLOW,), pool_buffers=64, buffer_size=256,
             rx_pool=True, zero_copy=True, drained=False, integrity=None,
             close_on_deliver=False):
    """Feed ``bursts`` (lists of packets) one way; return what was
    observed and how many times each mechanism ran.  ``drained``
    verifies through a drain engine instead of on arrival."""
    loop = EventLoop()
    pool = BufferPool(pool_buffers, buffer_size, label="rx") if rx_pool else None
    host = Host(loop, "b", rx_pool=pool)
    acks = []
    ack_link = Link(loop, random.Random(0), bandwidth_bps=1e9,
                    propagation_delay=1e-6)
    ack_link.connect(lambda p: acks.append((p.flow_id, p.header["sack"])))
    host.add_link("a", ack_link)
    delivered = []
    receivers: dict[int, AlfReceiver] = {}
    calls: Counter = Counter()
    engine = SharedDrainEngine(loop) if drained else None

    def deliver(adu, flow):
        delivered.append((adu.sequence, bytes(adu.payload), adu.corrupt_spans,
                          flow))
        if close_on_deliver:
            receivers[flow].close()

    # The reference feed offers no run: the per-fragment path alone.
    # The host looks ``receive_run`` up when the flow binds, so the
    # reference receiver has none from the start.
    receiver_type = FragmentOnlyReceiver if feed == "reference" else AlfReceiver
    with counting(AlfReceiver, "_on_fragment", calls):
        for flow in flows:
            receivers[flow] = receiver_type(
                loop, host, "a", flow,
                deliver=lambda adu, flow=flow: deliver(adu, flow),
                ack_interval=0, drain_engine=engine, integrity=integrity,
                zero_copy=zero_copy,
            )
        if pool is not None:
            dma_chain = pool.dma_chain

            def counted_dma(payload):
                calls["dma_chain"] += 1
                return dma_chain(payload)

            pool.dma_chain = counted_dma
        dma = datapath_counters()
        writes, written = dma.dma_writes, dma.dma_bytes
        for burst in bursts:
            if feed == "burst":
                host.receive_burst(burst)
            elif feed == "one_packet_bursts":
                for packet in burst:
                    host.receive_burst([packet])
            else:
                for packet in burst:
                    host.receive(packet)
            loop.run()
    stats = {flow: dataclasses.asdict(r.stats) for flow, r in receivers.items()}
    observed = {
        "delivered": delivered,
        "acks": acks,
        "rx_dropped": host.rx_dropped,
        "undeliverable": host.undeliverable,
        "demux_memo_hits": host.demux_memo_hits,
        "by_operation": {f: dict(r.counter.by_operation)
                         for f, r in receivers.items()},
        "packets_processed": {f: r.counter.packets_processed
                              for f, r in receivers.items()},
        "dma_writes": dma.dma_writes - writes,
        "dma_bytes": dma.dma_bytes - written,
        "stats": stats,
    }
    for key in ("segments_received", "duplicates_discarded",
                "checksum_failures", "malformed_discarded"):
        observed[key] = sum(flow_stats[key] for flow_stats in stats.values())
    for receiver in receivers.values():
        receiver.close()
    if pool is not None:
        assert pool.leak_report() == []
    return observed, calls


def assert_same(make_bursts, **kwargs):
    """Every feed of fresh copies observes what the reference does;
    returns the observations plus the burst feed's ``dma_chain`` calls
    and each feed's mechanism counts."""
    runs = {feed: run_case(make_bursts(), feed, **kwargs) for feed in FEEDS}
    reference, _ = runs["reference"]
    for feed, (observed, _) in runs.items():
        assert observed == reference, feed
    seen = dict(reference)
    seen["dma_calls"] = runs["burst"][1]["dma_chain"]
    seen["calls"] = {feed: calls for feed, (_, calls) in runs.items()}
    return seen


def fragments(packets, sequence):
    return [p for p in packets if p.header["adu_seq"] == sequence]


@pytest.mark.parametrize("drained", [False, True])
class TestRunMatchesPerPacket:
    def test_whole_adus(self, drained):
        seen = assert_same(lambda: [wire_packets(n_adus=3)],
                           drained=drained)
        assert [seq for seq, *_ in seen["delivered"]] == [0, 1, 2]
        assert seen["dma_writes"] == 12
        assert seen["dma_calls"] == 3  # one per ADU, not one per fragment

    def test_payloads_spanning_pool_buffers(self, drained):
        seen = assert_same(lambda: [wire_packets()], buffer_size=48,
                           drained=drained)
        assert len(seen["delivered"]) == 2
        assert seen["dma_calls"] == 2

    def test_out_of_order_fragments(self, drained):
        def bursts():
            packets = fragments(wire_packets(), 0)
            return [[packets[1], packets[0]] + packets[2:]]

        seen = assert_same(bursts, drained=drained)
        assert len(seen["delivered"]) == 1

    def test_partial_run_then_the_rest(self, drained):
        def bursts():
            packets = wire_packets()
            return [packets[:2], packets[2:]]

        seen = assert_same(bursts, drained=drained)
        assert [seq for seq, *_ in seen["delivered"]] == [0, 1]

    def test_duplicate_fragment(self, drained):
        def bursts():
            packets = fragments(wire_packets(), 0)
            return [packets[:2] + [packets[1].copy()] + packets[2:]]

        seen = assert_same(bursts, drained=drained)
        assert seen["duplicates_discarded"] == 1

    def test_already_delivered_adu_is_reacked(self, drained):
        def bursts():
            first, again = wire_packets(n_adus=1), wire_packets(n_adus=1)
            return [first, again]

        seen = assert_same(bursts, drained=drained)
        assert len(seen["delivered"]) == 1
        # One ACK for the delivery, one per retransmitted fragment.
        assert len(seen["acks"]) == 1 + 4
        assert seen["duplicates_discarded"] == 4

    @pytest.mark.parametrize("group", [2, 4])
    def test_fec_unit(self, drained, group):
        # A group of 4 puts an ADU's data units 0..3 ahead of its parity.
        seen = assert_same(lambda: [wire_packets(fec_group=group)],
                           drained=drained)
        assert len(seen["delivered"]) == 2

    def test_phy_corrupt_hint_under_tolerant_policy(self, drained):
        policy = IntegrityPolicy.headers_only(32)

        def bursts():
            packets = wire_packets(integrity=policy)
            damaged = packets[2]
            mutated = bytearray(damaged.payload)
            mutated[5] ^= 0x10
            damaged.payload = bytes(mutated)
            damaged.header = dict(damaged.header, phy_corrupt=(5, 6))
            return [packets]

        seen = assert_same(bursts, integrity=policy, drained=drained)
        assert seen["delivered"][0][2] == ((2 * MTU + 5, 2 * MTU + 6),)

    def test_pool_smaller_than_the_run(self, drained):
        seen = assert_same(lambda: [wire_packets(n_adus=1)], pool_buffers=3,
                           drained=drained)
        assert seen["rx_dropped"] == 1
        assert seen["delivered"] == []


def test_deliver_callback_closing_the_receiver_mid_burst():
    seen = assert_same(lambda: [wire_packets(n_adus=3)], close_on_deliver=True)
    assert [seq for seq, *_ in seen["delivered"]] == [0]
    assert seen["undeliverable"] == 8


def single(n_adus=3, adu_bytes=MTU, flow=FLOW, **sender_kwargs):
    """Wire units of ``n_adus`` single-fragment ADUs."""
    packets = wire_packets(n_adus, adu_bytes, flow, **sender_kwargs)
    assert all(p.header["nfrags"] == 1 for p in packets if "fec" not in p.header)
    return packets


def took_runs(seen, adus):
    """Every non-reference feed took ``adus`` whole ADUs as runs."""
    for feed in ("burst", "one_packet_bursts", "receive"):
        assert seen["calls"][feed]["_on_fragment"] == 0, feed
        assert seen["calls"][feed]["dma_chain"] == adus, feed


@pytest.mark.parametrize("drained", [False, True])
class TestSingleFragmentAdus:
    """A whole single-fragment ADU is a run of one, wherever it arrives."""

    def test_whole_adus_alone_and_in_a_burst(self, drained):
        seen = assert_same(lambda: [single()], drained=drained)
        assert [seq for seq, *_ in seen["delivered"]] == [0, 1, 2]
        assert seen["delivered"][1][1] == random.Random(1).randbytes(MTU)
        assert seen["dma_writes"] == 3
        assert seen["demux_memo_hits"] == 2
        assert seen["calls"]["reference"]["_on_fragment"] == 3
        took_runs(seen, 3)

    def test_mixed_flow_train(self, drained):
        flows = (1, 2, 3, 4)

        def bursts():
            by_flow = [single(n_adus=2, adu_bytes=48, flow=f) for f in flows]
            return [[p for pair in zip(*by_flow) for p in pair]]

        seen = assert_same(bursts, flows=flows, drained=drained)
        assert len(seen["delivered"]) == 8
        assert seen["demux_memo_hits"] == 0  # every packet switches flow
        assert seen["segments_received"] == 8
        took_runs(seen, 8)

    def test_duplicate_while_the_first_copy_is_a_queued_ready_row(
        self, drained
    ):
        def bursts():
            packet = single(n_adus=1)[0]
            return [[packet, packet.copy()]]

        seen = assert_same(bursts, drained=drained)
        assert len(seen["delivered"]) == 1
        assert seen["duplicates_discarded"] == 1
        # Inline, the copy finds the ADU delivered and is re-ACKed; as a
        # queued row it is dropped at the drain, and only the delivery
        # ACKs.
        assert len(seen["acks"]) == (1 if drained else 2)

    def test_duplicate_of_a_delivered_adu_is_reacked(self, drained):
        def bursts():
            packet = single(n_adus=1)[0]
            return [[packet], [packet.copy()]]

        seen = assert_same(bursts, drained=drained)
        assert len(seen["delivered"]) == 1
        assert len(seen["acks"]) == 2
        assert seen["duplicates_discarded"] == 1

    def test_phy_corrupt_hint_under_headers_only(self, drained):
        policy = IntegrityPolicy.headers_only(6)

        def bursts():
            packets = single(integrity=policy)
            damaged = packets[1]
            mutated = bytearray(damaged.payload)
            mutated[40] ^= 0x01
            damaged.payload = bytes(mutated)
            damaged.header = dict(damaged.header, phy_corrupt=(40, 41))
            return [packets]

        seen = assert_same(bursts, integrity=policy, drained=drained)
        assert [spans for _, _, spans, _ in seen["delivered"]] == [
            (), ((40, 41),), ()
        ]
        # Within one burst a flow is offered a run only where its run
        # starts and after each unit taken: once the hinted ADU falls to
        # the per-fragment path, so does the rest of the flow's run.
        assert seen["calls"]["burst"]["_on_fragment"] == 2
        assert seen["calls"]["receive"]["_on_fragment"] == 1

    def test_fec_unit(self, drained):
        seen = assert_same(lambda: [single(fec_group=1)],
                           drained=drained)
        assert len(seen["delivered"]) == 3
        assert seen["calls"]["burst"]["_on_fragment"] == 6  # data + parity

    def test_zero_copy_off_receiver(self, drained):
        seen = assert_same(lambda: [single()], zero_copy=False,
                           drained=drained)
        assert len(seen["delivered"]) == 3
        assert seen["calls"]["burst"]["_on_fragment"] == 3

    def test_host_without_rx_pool(self, drained):
        seen = assert_same(lambda: [single()], rx_pool=False,
                           drained=drained)
        assert len(seen["delivered"]) == 3
        assert seen["dma_writes"] == 0
        assert seen["calls"]["burst"]["_on_fragment"] == 3

    def test_adu_len_mismatch(self, drained):
        def bursts():
            packets = single()
            packets[0].header = dict(packets[0].header, adu_len=MTU + 1)
            return [packets]

        seen = assert_same(bursts, drained=drained)
        assert [seq for seq, *_ in seen["delivered"]] == [1, 2]
        assert seen["checksum_failures"] == 1

    def test_empty_payload(self, drained):
        seen = assert_same(lambda: [single(adu_bytes=0)],
                           drained=drained)
        assert [payload for _, payload, *_ in seen["delivered"]] == [b""] * 3
        assert seen["dma_writes"] == 0
        assert seen["calls"]["burst"]["_on_fragment"] == 3

    @pytest.mark.parametrize("pool_buffers, buffer_size", [(6, 16), (4, 8)])
    def test_exhausted_pool(self, drained, pool_buffers, buffer_size):
        # 16-byte buffers: one ADU takes 4 of the 6, so a second dropped
        # only while the first is held as a queued row.  8-byte buffers:
        # no ADU ever fits.
        seen = assert_same(lambda: [single()], pool_buffers=pool_buffers,
                           buffer_size=buffer_size, drained=drained)
        fits = buffer_size == 16
        expected = (1 if drained else 3) if fits else 0
        assert len(seen["delivered"]) == expected
        assert seen["rx_dropped"] == 3 - expected

    def test_deliver_callback_closing_the_receiver(self, drained):
        seen = assert_same(lambda: [single()], close_on_deliver=True,
                           drained=drained)
        if not drained:
            assert [seq for seq, *_ in seen["delivered"]] == [0]
            assert seen["undeliverable"] == 2


def malformed(frag, nfrags, **fields):
    """A single-fragment ADU's packet with an impossible header."""
    packet = single(n_adus=1)[0]
    packet.header = dict(packet.header, adu_seq=7, frag=frag, nfrags=nfrags,
                         **fields)
    return packet


@pytest.mark.parametrize("frag, nfrags, fields", [
    (3, 1, {}),
    (0, 0, {}),
    # Zero fragments "summing" to a zero-length ADU is still no ADU.
    (0, 0, {"adu_len": 0}),
])
def test_malformed_fragment_header_is_dropped(frag, nfrags, fields):
    def bursts():
        return [[malformed(frag, nfrags, **fields)], single()]

    seen = assert_same(bursts)
    assert seen["malformed_discarded"] == 1
    assert [seq for seq, *_ in seen["delivered"]] == [0, 1, 2]
    assert len(seen["acks"]) == 3  # one per delivery; none for the drop


def test_malformed_fragment_emits_a_trace_event():
    loop = EventLoop()
    pool = BufferPool(4, 256, label="rx")
    host = Host(loop, "b", rx_pool=pool)
    tracer = Tracer(enabled=True)
    receiver = AlfReceiver(loop, host, "a", FLOW, deliver=lambda adu: None,
                           ack_interval=0, tracer=tracer)
    host.receive_burst([malformed(3, 1)])
    host.receive(malformed(0, 0))
    events = tracer.by_category("alf")
    assert [event.message for event in events] == ["malformed-fragment"] * 2
    assert all(event.field_dict()["seq"] == 7 for event in events)
    assert receiver.stats.malformed_discarded == 2
    assert receiver.stats.acks_sent == 0
    assert pool.leak_report() == []


def test_steered_train_costs_one_dma_and_one_handler_call_per_adu():
    calls: Counter = Counter()
    with counting(BufferPool, "dma_chain", calls), \
            counting(AlfReceiver, "_on_fragment", calls), \
            counting(AlfReceiver, "receive_run", calls):
        steer_four_trains(calls)


def steer_four_trains(calls):
    ing = sharded_ingress(shards=2, max_train=16, train_window=1e-3,
                          pool_buffers=64)
    shard = ing.sharded.shard_for(PROTOCOL, FLOW)
    delivered = []
    AlfReceiver(shard.loop, shard.host, "a", FLOW,
                deliver=lambda adu: delivered.append(bytes(adu.payload)),
                ack_interval=0, drain_engine=shard.engine)
    n_adus = 4
    packets = wire_packets(n_adus=n_adus, adu_bytes=1024)
    for sequence in range(n_adus):
        # A 1 KiB ADU is 16 fragments at this MTU: one full train each.
        for packet in fragments(packets, sequence):
            ing.a.send(packet)
        ing.loop.run()
    ing.sharded.drain()
    assert ing.a_to_b.stats.steered_trains == n_adus
    assert ing.a_to_b.stats.steered_packets == 16 * n_adus
    assert delivered == [random.Random(s).randbytes(1024) for s in range(n_adus)]
    assert calls == {"dma_chain": n_adus, "receive_run": n_adus}
    assert not any(ing.sharded.shutdown().values())
