"""Sharded hosts: flow-hash demux, serial scheduler, worker shards."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core.adu import Adu, fragment_adu
from repro.errors import NetworkError
from repro.machine.accounting import ShardCounters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import (
    SerialShardScheduler,
    ShardedHost,
    shard_index,
)
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.stages.checksum import internet_checksum
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.receiver import PROTOCOL


def adu_payload(seed: int, n_bytes: int = 128) -> bytes:
    return random.Random(seed).randbytes(n_bytes)


def adu_packets(flow_id, payloads, mtu=2048):
    """The cleartext wire stream one flow's sender emits."""
    packets = []
    for sequence, payload in enumerate(payloads):
        adu = Adu(sequence=sequence, payload=payload, name={"i": sequence})
        for fragment in fragment_adu(
            adu, mtu, checksum=internet_checksum(payload)
        ):
            packets.append(
                Packet(
                    src="a",
                    dst="b",
                    protocol=PROTOCOL,
                    flow_id=flow_id,
                    header=AlfSender._fragment_header(fragment),
                    payload=fragment.payload,
                )
            )
    return packets


def make_sharded(n_shards=4, **kwargs):
    path = two_hosts(seed=11)
    counters = ShardCounters()
    sharded = ShardedHost(path.b, n_shards, counters=counters, **kwargs)
    return path, sharded, counters


def bind_flow(sharded, flow_id, delivered, **kwargs):
    """A cleartext receiver for ``flow_id`` on its home shard."""
    shard = sharded.shard_for(PROTOCOL, flow_id)
    receiver = AlfReceiver(
        shard.loop,
        shard.host,
        "a",
        flow_id,
        deliver=lambda d, fid=flow_id: delivered.setdefault(fid, []).append(
            bytes(d.payload)
        ),
        ack_interval=0,
        drain_engine=shard.engine,
        **kwargs,
    )
    return shard, receiver


class TestShardIndex:
    def test_placement_is_stable_hash_mod_n(self):
        for flow_id in range(32):
            expected = zlib.crc32(f"alf/{flow_id}".encode()) % 4
            assert shard_index("alf", flow_id, 4) == expected
            # Same answer every call: placement is a pure function.
            assert shard_index("alf", flow_id, 4) == expected

    def test_all_shards_get_flows(self):
        indices = {shard_index("alf", flow_id, 4) for flow_id in range(64)}
        assert indices == {0, 1, 2, 3}

    def test_single_shard_takes_everything(self):
        assert all(
            shard_index("alf", flow_id, 1) == 0 for flow_id in range(16)
        )

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(NetworkError):
            shard_index("alf", 1, 0)
        with pytest.raises(NetworkError):
            ShardedHost(Host(EventLoop(), "b"), 0)


class TestDemuxStability:
    def test_flow_never_migrates_across_bursts(self):
        path, sharded, _ = make_sharded()
        flow_id = 7
        home = sharded.shard_for(PROTOCOL, flow_id)
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, flow_id, delivered)
        payloads = [adu_payload(70 + i) for i in range(6)]
        packets = adu_packets(flow_id, payloads, mtu=64)  # multi-fragment
        # Mixed arrival shapes: a burst train, then loose singles.
        sharded.receive_burst(packets[: len(packets) // 2])
        for packet in packets[len(packets) // 2 :]:
            sharded.receive(packet)
        sharded.drain()
        for shard in sharded.shards:
            expected = len(packets) if shard is home else 0
            assert shard.host.received == expected
        assert delivered[flow_id] == payloads

    def test_flow_keeps_its_shard_across_close_and_rebind(self):
        path, sharded, _ = make_sharded()
        flow_id = 12
        home = sharded.shard_for(PROTOCOL, flow_id)
        delivered: dict[int, list[bytes]] = {}
        _, receiver = bind_flow(sharded, flow_id, delivered)
        first = [adu_payload(120)]
        sharded.receive_burst(adu_packets(flow_id, first))
        sharded.drain()
        receiver.close()
        # Rebind the same flow id: placement must not move (the shard
        # is a pure function of the flow key, so the reopened flow's
        # state lands exactly where the old packets went).
        assert sharded.shard_for(PROTOCOL, flow_id) is home
        _, reopened = bind_flow(sharded, flow_id, delivered)
        second = [adu_payload(121)]
        sharded.receive_burst(adu_packets(flow_id, second))
        sharded.drain()
        assert sharded.shard_for(PROTOCOL, flow_id) is home
        for shard in sharded.shards:
            assert shard.host.received == (2 if shard is home else 0)
        assert delivered[flow_id] == first + second
        reopened.close()

    def test_packet_train_hits_the_placement_memo(self):
        path, sharded, counters = make_sharded()
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, 3, delivered)
        payloads = [adu_payload(30 + i) for i in range(4)]
        packets = adu_packets(3, payloads, mtu=64)
        sharded.receive_burst(packets)
        sharded.drain()
        snap = counters.snapshot()
        # One hash for the train's first packet, memo for the rest.
        assert snap["hash_dispatches"] == 1
        assert snap["memo_hits"] == len(packets) - 1
        assert snap["memo_hit_rate"] == pytest.approx(
            (len(packets) - 1) / len(packets)
        )

    def test_burst_grouping_one_service_per_run(self):
        path, sharded, counters = make_sharded()
        delivered: dict[int, list[bytes]] = {}
        # Two flows on different shards, interleaved as two trains.
        flow_a = 0
        flow_b = next(
            fid
            for fid in range(1, 64)
            if sharded.shard_for(PROTOCOL, fid)
            is not sharded.shard_for(PROTOCOL, flow_a)
        )
        bind_flow(sharded, flow_a, delivered)
        bind_flow(sharded, flow_b, delivered)
        train_a = adu_packets(flow_a, [adu_payload(1), adu_payload(2)])
        train_b = adu_packets(flow_b, [adu_payload(3), adu_payload(4)])
        sharded.receive_burst(train_a + train_b)
        sharded.drain()
        snap = counters.snapshot()
        assert snap["bursts"] == 1
        # Consecutive same-shard packets hand over as one run each.
        assert snap["worker_services"] == 2
        assert delivered[flow_a] and delivered[flow_b]


class TestSerialShardScheduler:
    def test_merges_loops_in_global_time_order(self):
        loops = [EventLoop(), EventLoop()]
        order: list[str] = []
        loops[0].schedule(0.3, lambda: order.append("a@0.3"))
        loops[1].schedule(0.1, lambda: order.append("b@0.1"))
        loops[0].schedule(0.2, lambda: order.append("a@0.2"))
        scheduler = SerialShardScheduler(loops)
        assert scheduler.run(until=1.0) == 3
        assert order == ["b@0.1", "a@0.2", "a@0.3"]
        assert scheduler.steps == 3
        assert all(loop.now == 1.0 for loop in loops)

    def test_simultaneous_events_break_ties_by_registration(self):
        loops = [EventLoop(), EventLoop()]
        order: list[int] = []
        loops[1].schedule(0.5, lambda: order.append(1))
        loops[0].schedule(0.5, lambda: order.append(0))
        SerialShardScheduler(loops).run(until=1.0)
        assert order == [0, 1]

    def test_until_bounds_execution_and_advances_clocks(self):
        loops = [EventLoop(), EventLoop()]
        order: list[str] = []
        loops[0].schedule(0.1, lambda: order.append("early"))
        loops[1].schedule(5.0, lambda: order.append("late"))
        scheduler = SerialShardScheduler(loops)
        assert scheduler.run(until=1.0) == 1
        assert order == ["early"]
        assert all(loop.now == 1.0 for loop in loops)
        assert scheduler.run(until=10.0) == 1
        assert order == ["early", "late"]

    def test_needs_at_least_one_loop(self):
        with pytest.raises(NetworkError):
            SerialShardScheduler([])

    def test_tail_clock_advance_matches_running_each_loop(self):
        """A tie at ``until`` and an idle loop end the same either way.

        The reference is the scheduler's earlier tail, which called
        ``loop.run(until)`` on every loop once the merge stopped.
        """

        def build():
            loops = [EventLoop(), EventLoop(), EventLoop()]
            order: list[str] = []
            loops[0].schedule(0.5, order.append, "a@0.5")
            loops[1].schedule(1.0, order.append, "b@until")  # tie at until
            loops[0].schedule(1.0, order.append, "a@until")
            loops[1].schedule(1.5, order.append, "b@1.5")
            loops[0].schedule(0.7, order.append, "dead").cancel()
            # loops[2] is idle throughout.
            return loops, order

        def reference_run(loops, until):
            while True:
                live = [(loop.next_event_time(), i) for i, loop in enumerate(loops)]
                live = [entry for entry in live if entry[0] is not None]
                if not live or min(live)[0] > until:
                    break
                loops[min(live)[1]].step()
            for loop in loops:
                if loop.now < until:
                    loop.run(until=until)

        loops, order = build()
        scheduler = SerialShardScheduler(loops)
        ref_loops, ref_order = build()
        for until in (1.0, 1.2, 2.0):
            scheduler.run(until=until)
            reference_run(ref_loops, until)
            assert order == ref_order
            assert [loop.now for loop in loops] == [loop.now for loop in ref_loops]
            assert all(loop.now == until for loop in loops)
            assert [loop.pending for loop in loops] == [
                loop.pending for loop in ref_loops
            ]
        assert order == ["a@0.5", "a@until", "b@until", "b@1.5"]


class TestShardRng:
    def test_derived_streams_replay_per_shard(self):
        first = ShardedHost(Host(EventLoop(), "b"), 3, rng=RngStreams(42))
        second = ShardedHost(Host(EventLoop(), "b"), 3, rng=RngStreams(42))
        for shard_a, shard_b in zip(first.shards, second.shards):
            draw_a = shard_a.rng.stream("loss").random()
            draw_b = shard_b.rng.stream("loss").random()
            assert draw_a == draw_b

    def test_shards_draw_distinct_streams(self):
        sharded = ShardedHost(Host(EventLoop(), "b"), 4, rng=RngStreams(7))
        draws = {
            shard.rng.stream("loss").random() for shard in sharded.shards
        }
        assert len(draws) == 4


class TestEndToEnd:
    def test_serial_sharded_delivery_exactly_once(self):
        path, sharded, counters = make_sharded(
            n_shards=4, pool_buffers=64, buffer_size=2048
        )
        n_flows, n_adus = 32, 2
        delivered: dict[int, list[bytes]] = {}
        receivers = []
        payloads = {
            fid: [adu_payload(1000 + 10 * fid + i) for i in range(n_adus)]
            for fid in range(n_flows)
        }
        for fid in range(n_flows):
            _, receiver = bind_flow(sharded, fid, delivered, zero_copy=True)
            receivers.append(receiver)
        for fid in range(n_flows):
            sharded.receive_burst(adu_packets(fid, payloads[fid]))
        sharded.drain()
        assert sharded.delivered_total == n_flows * n_adus
        for fid in range(n_flows):
            assert delivered[fid] == payloads[fid]
        # Every shard carried some of the load.
        spread = [shard.host.received for shard in sharded.shards]
        assert all(count > 0 for count in spread)
        snap = sharded.snapshot()
        assert snap["shards"] == 4
        assert snap["threaded"] is False
        assert len(snap["per_shard"]) == 4
        assert snap["demux"]["packets"] == n_flows * n_adus
        for receiver in receivers:
            receiver.close()
        reports = sharded.shutdown()
        assert reports == {0: [], 1: [], 2: [], 3: []}

    def test_shutdown_is_idempotent_and_unbinds_front(self):
        path, sharded, _ = make_sharded(n_shards=2)
        delivered: dict[int, list[bytes]] = {}
        _, receiver = bind_flow(sharded, 1, delivered)
        sharded.receive_burst(adu_packets(1, [adu_payload(5)]))
        sharded.drain()
        receiver.close()
        assert sharded.shutdown() == {0: [], 1: []}
        assert sharded.shutdown() == {0: [], 1: []}
        # The front no longer claims the protocol: late packets are
        # undeliverable at the front, not silently demuxed.
        before = path.b.undeliverable
        path.b.receive(adu_packets(1, [adu_payload(6)])[0])
        assert path.b.undeliverable == before + 1

    def test_threaded_sharded_delivery_exactly_once(self):
        front = Host(EventLoop(), "b")
        sharded = ShardedHost(
            front,
            2,
            rng=RngStreams(3),
            threaded=True,
            pool_buffers=128,
            buffer_size=2048,
            max_rows=1024,
            protocols=(),
            counters=ShardCounters(),
        )
        ack_rng = RngStreams(4)
        for shard in sharded.shards:
            sink = Host(shard.loop, "a")
            link = Link(
                shard.loop,
                ack_rng.stream(f"ack-{shard.index}"),
                name=f"b->a/{shard.index}",
            )
            link.connect(sink.receive)
            shard.host.add_link("a", link)
        n_flows = 64
        delivered: dict[int, list[bytes]] = {}
        payloads = {fid: [adu_payload(2000 + fid)] for fid in range(n_flows)}
        for fid in range(n_flows):
            bind_flow(sharded, fid, delivered, zero_copy=True)
        packets = [
            packet
            for fid in range(n_flows)
            for packet in adu_packets(fid, payloads[fid])
        ]
        sharded.receive_burst(packets)
        sharded.drain()
        assert sharded.delivered_total == n_flows
        for fid in range(n_flows):
            assert delivered[fid] == payloads[fid]
        reports = sharded.shutdown()
        assert reports == {0: [], 1: []}


class TestUplink:
    def test_linkless_host_forwards_through_uplink(self):
        path = two_hosts(seed=2)
        shard_host = Host(path.loop, "b", uplink=path.b)
        before = path.a.received
        shard_host.send(
            Packet(
                src="b", dst="a", protocol="noop", flow_id=1,
                header={}, payload=b"",
            )
        )
        path.loop.run(until=1.0)
        assert path.a.received == before + 1

    def test_no_link_and_no_uplink_raises(self):
        host = Host(EventLoop(), "b")
        with pytest.raises(NetworkError):
            host.send(
                Packet(
                    src="b", dst="nowhere", protocol="noop", flow_id=1,
                    header={}, payload=b"",
                )
            )
