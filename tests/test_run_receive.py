"""Whole-ADU runs on the receive path, checked against per-packet delivery.

A burst run that is exactly one ADU's fragments ``0..n-1`` in order is
DMA'd in one pool call and reassembled in one receiver call.  Anything
else falls back to the per-fragment path.  Each case here feeds the same
bursts through ``Host.receive_burst`` and again packet by packet, as
one-packet bursts (which never form a run), and every observable —
delivered bytes, drops, demux memo hits, control-instruction counts, DMA
counts, receiver statistics, ACKs and the pool's leak report — must
match.
"""

from __future__ import annotations

import random

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
from repro.transport.alf.receiver import PROTOCOL, AlfReceiver
from repro.transport.alf.sender import AlfSender

FLOW = 1
MTU = 64


def wire_packets(n_adus=2, adu_bytes=256, **sender_kwargs) -> list[Packet]:
    """The wire units an ALF sender emits for ``n_adus`` ADUs."""
    loop = EventLoop()
    sender = AlfSender(loop, Host(loop, "a"), "b", FLOW, mtu=MTU, **sender_kwargs)
    packets = []
    for sequence in range(n_adus):
        payload = random.Random(sequence).randbytes(adu_bytes)
        adu = Adu(sequence, payload, {"i": sequence})
        for header, data in sender._wire_units(adu):
            packets.append(Packet(src="a", dst="b", protocol=PROTOCOL,
                                  flow_id=FLOW, header=header,
                                  payload=bytes(data)))
    return packets


def run_case(bursts, per_packet, pool_buffers=64, buffer_size=256,
             batch_drain=False, integrity=None, close_on_deliver=False):
    """Feed ``bursts`` (lists of packets) and return what was observed."""
    loop = EventLoop()
    pool = BufferPool(pool_buffers, buffer_size, label="rx")
    host = Host(loop, "b", rx_pool=pool)
    acks = []
    ack_link = Link(loop, random.Random(0), bandwidth_bps=1e9,
                    propagation_delay=1e-6)
    ack_link.connect(lambda p: acks.append(p.header["sack"]))
    host.add_link("a", ack_link)
    delivered = []

    def deliver(adu):
        delivered.append((adu.sequence, bytes(adu.payload), adu.corrupt_spans))
        if close_on_deliver:
            receiver.close()

    receiver = AlfReceiver(loop, host, "a", FLOW, deliver=deliver,
                           ack_interval=0, batch_drain=batch_drain,
                           integrity=integrity)
    dma_calls = []
    dma_chain = pool.dma_chain
    pool.dma_chain = lambda payload: dma_calls.append(1) or dma_chain(payload)
    dma = datapath_counters()
    writes, written = dma.dma_writes, dma.dma_bytes
    for burst in bursts:
        if per_packet:
            for packet in burst:
                host.receive_burst([packet])
        else:
            host.receive_burst(burst)
        loop.run()
    observed = {
        "delivered": delivered,
        "acks": acks,
        "rx_dropped": host.rx_dropped,
        "undeliverable": host.undeliverable,
        "demux_memo_hits": host.demux_memo_hits,
        "by_operation": dict(receiver.counter.by_operation),
        "packets_processed": receiver.counter.packets_processed,
        "dma_writes": dma.dma_writes - writes,
        "dma_bytes": dma.dma_bytes - written,
        "segments_received": receiver.stats.segments_received,
        "duplicates_discarded": receiver.stats.duplicates_discarded,
        "checksum_failures": receiver.stats.checksum_failures,
    }
    receiver.close()
    assert pool.leak_report() == []
    return observed, len(dma_calls)


def assert_same(make_bursts, **kwargs):
    """Burst and per-packet feeds of fresh copies observe the same;
    returns the observations and the burst feed's ``dma_chain`` calls."""
    burst, burst_calls = run_case(make_bursts(), per_packet=False, **kwargs)
    single, _ = run_case(make_bursts(), per_packet=True, **kwargs)
    assert burst == single
    burst["dma_calls"] = burst_calls
    return burst


def fragments(packets, sequence):
    return [p for p in packets if p.header["adu_seq"] == sequence]


@pytest.mark.parametrize("batch_drain", [False, True])
class TestRunMatchesPerPacket:
    def test_whole_adus(self, batch_drain):
        seen = assert_same(lambda: [wire_packets(n_adus=3)],
                           batch_drain=batch_drain)
        assert [seq for seq, *_ in seen["delivered"]] == [0, 1, 2]
        assert seen["dma_writes"] == 12
        assert seen["dma_calls"] == 3  # one per ADU, not one per fragment

    def test_payloads_spanning_pool_buffers(self, batch_drain):
        seen = assert_same(lambda: [wire_packets()], buffer_size=48,
                           batch_drain=batch_drain)
        assert len(seen["delivered"]) == 2
        assert seen["dma_calls"] == 2

    def test_out_of_order_fragments(self, batch_drain):
        def bursts():
            packets = fragments(wire_packets(), 0)
            return [[packets[1], packets[0]] + packets[2:]]

        seen = assert_same(bursts, batch_drain=batch_drain)
        assert len(seen["delivered"]) == 1

    def test_partial_run_then_the_rest(self, batch_drain):
        def bursts():
            packets = wire_packets()
            return [packets[:2], packets[2:]]

        seen = assert_same(bursts, batch_drain=batch_drain)
        assert [seq for seq, *_ in seen["delivered"]] == [0, 1]

    def test_duplicate_fragment(self, batch_drain):
        def bursts():
            packets = fragments(wire_packets(), 0)
            return [packets[:2] + [packets[1].copy()] + packets[2:]]

        seen = assert_same(bursts, batch_drain=batch_drain)
        assert seen["duplicates_discarded"] == 1

    def test_already_delivered_adu_is_reacked(self, batch_drain):
        def bursts():
            first, again = wire_packets(n_adus=1), wire_packets(n_adus=1)
            return [first, again]

        seen = assert_same(bursts, batch_drain=batch_drain)
        assert len(seen["delivered"]) == 1
        # One ACK for the delivery, one per retransmitted fragment.
        assert len(seen["acks"]) == 1 + 4
        assert seen["duplicates_discarded"] == 4

    @pytest.mark.parametrize("group", [2, 4])
    def test_fec_unit(self, batch_drain, group):
        # A group of 4 puts an ADU's data units 0..3 ahead of its parity.
        seen = assert_same(lambda: [wire_packets(fec_group=group)],
                           batch_drain=batch_drain)
        assert len(seen["delivered"]) == 2

    def test_phy_corrupt_hint_under_tolerant_policy(self, batch_drain):
        policy = IntegrityPolicy.headers_only(32)

        def bursts():
            packets = wire_packets(integrity=policy)
            damaged = packets[2]
            mutated = bytearray(damaged.payload)
            mutated[5] ^= 0x10
            damaged.payload = bytes(mutated)
            damaged.header = dict(damaged.header, phy_corrupt=(5, 6))
            return [packets]

        seen = assert_same(bursts, integrity=policy, batch_drain=batch_drain)
        assert seen["delivered"][0][2] == ((2 * MTU + 5, 2 * MTU + 6),)

    def test_pool_smaller_than_the_run(self, batch_drain):
        seen = assert_same(lambda: [wire_packets(n_adus=1)], pool_buffers=3,
                           batch_drain=batch_drain)
        assert seen["rx_dropped"] == 1
        assert seen["delivered"] == []


def test_deliver_callback_closing_the_receiver_mid_burst():
    seen = assert_same(lambda: [wire_packets(n_adus=3)], close_on_deliver=True)
    assert [seq for seq, *_ in seen["delivered"]] == [0]
    assert seen["undeliverable"] == 8


def test_steered_train_costs_one_dma_and_one_handler_call_per_adu(monkeypatch):
    calls = {"dma_chain": 0, "_on_fragment": 0, "receive_run": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, wrapper)

    counting(BufferPool, "dma_chain")
    counting(AlfReceiver, "_on_fragment")
    counting(AlfReceiver, "receive_run")

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
    assert calls == {"dma_chain": n_adus, "_on_fragment": 0, "receive_run": n_adus}
    assert not any(ing.sharded.shutdown().values())
