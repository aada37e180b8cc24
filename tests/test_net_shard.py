"""Sharded hosts: flow-hash demux, one event heap, worker shards."""

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
from repro.net.shard import SerialShardScheduler, ShardedHost, shard_index
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
                    header=AlfSender._header(
                        fragment.adu_sequence, fragment.index, fragment.total,
                        fragment.adu_length, fragment.adu_checksum, fragment.name,
                    ),
                    payload=fragment.payload,
                )
            )
    return packets


def make_sharded(n_shards=4, **kwargs):
    path = two_hosts(seed=11)
    counters = ShardCounters()
    sharded = ShardedHost(path.b, n_shards, counters=counters, **kwargs)
    return path, sharded, counters


def noop_packet(flow_id=1):
    return Packet(
        src="a", dst="b", protocol="noop", flow_id=flow_id,
        header={"adu_seq": 0}, payload=b"",
    )


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
        # One run: one placement probe, the rest of the train rides it.
        assert snap["demux_runs"] == 1
        assert snap["probes_saved"] == len(packets) - 1

    def test_single_packets_pay_one_placement_probe_each(self):
        path, sharded, counters = make_sharded(2, protocols=())
        for _ in range(3):
            sharded.receive(noop_packet())
        snap = counters.snapshot()
        assert snap["demux_runs"] == 3
        assert snap["probes_saved"] == 0

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


class TestCounterIsolation:
    def test_hosts_built_without_counters_keep_their_own(self):
        first = ShardedHost(Host(EventLoop(), "b"), 2, protocols=())
        second = ShardedHost(Host(EventLoop(), "b"), 2, protocols=())
        for _ in range(3):
            first.receive(noop_packet())
        assert first.counters is not second.counters
        assert first.counters.packets == 3
        assert second.counters.packets == 0


class TestOneEventHeap:
    def test_shards_schedule_on_the_front_loop(self):
        path, sharded, _ = make_sharded(4)
        assert all(shard.loop is path.b.loop for shard in sharded.shards)

    def test_delayed_drain_epoch_fires_at_its_due_time(self):
        # The epoch is an ordinary event on the front's loop: running
        # that loop delivers it on time, with no drain() call.
        path, sharded, _ = make_sharded(4, max_delay=0.005)
        flow_id = 3
        arrivals = []
        shard = sharded.shard_for(PROTOCOL, flow_id)
        AlfReceiver(
            shard.loop, shard.host, "a", flow_id,
            deliver=lambda d: arrivals.append((d.arrival_time, bytes(d.payload))),
            ack_interval=0, drain_engine=shard.engine,
        )
        payload = adu_payload(31)
        sharded.receive_burst(adu_packets(flow_id, [payload]))
        assert arrivals == []
        path.loop.run()
        assert arrivals == [(0.005, payload)]

    def test_sharding_schedules_no_events_of_its_own(self):
        # The same traffic runs the same events on the one loop whether
        # its receivers sit on a plain host or on 1 or 4 shards.
        def run(n_shards):
            path = two_hosts(seed=11)
            if n_shards:
                sharded = ShardedHost(path.b, n_shards, counters=ShardCounters())
                homes = [
                    sharded.shard_for(PROTOCOL, fid).host for fid in range(8)
                ]
            else:
                homes = [path.b] * 8
            delivered: dict[int, list[bytes]] = {}
            for fid, host in enumerate(homes):
                AlfReceiver(
                    path.loop, host, "a", fid,
                    deliver=lambda d, fid=fid: delivered.setdefault(
                        fid, []
                    ).append(bytes(d.payload)),
                )
            payloads = {
                fid: [adu_payload(500 + 4 * fid + i) for i in range(3)]
                for fid in range(8)
            }
            for fid in range(8):
                for packet in adu_packets(fid, payloads[fid], mtu=64):
                    path.a.send(packet)
            path.loop.run(until=1.0)
            assert delivered == payloads
            return path.loop.events_run

        plain = run(0)
        assert run(1) == plain
        assert run(4) == plain

    def test_migration_drains_the_source_shard_first(self):
        # A ready row waiting on a delayed epoch is drained by the
        # commit itself, so the move goes ahead instead of deferring.
        path, sharded, _ = make_sharded(4, max_delay=0.005)
        delivered: dict[int, list[bytes]] = {}
        home, receiver = bind_flow(sharded, 7, delivered)
        sharded.register_flow(PROTOCOL, 7, receiver)
        payloads = [adu_payload(90)]
        sharded.receive_burst(adu_packets(7, payloads))
        assert not receiver.quiescent
        target = sharded.shards[(home.index + 1) % 4]
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        assert sharded.migrate_bucket(bucket, target.index)
        assert delivered == {7: payloads}
        assert receiver.host is target.host
        path.loop.run(until=0.01)
        assert delivered == {7: payloads}  # exactly once
        assert all(report == [] for report in sharded.shutdown().values())

    def test_retired_scheduler_only_raises(self):
        import repro.net

        assert "SerialShardScheduler" not in repro.net.__all__
        with pytest.raises(NetworkError, match="retired"):
            SerialShardScheduler().run(until=1.0)


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

    def test_shard_local_egress_delivery_exactly_once(self):
        # protocols=(): the caller hands packets over itself, and each
        # shard sends its ACKs on a shard-local link, not the uplink.
        front = Host(EventLoop(), "b")
        sharded = ShardedHost(
            front,
            2,
            rng=RngStreams(3),
            pool_buffers=128,
            buffer_size=2048,
            max_rows=1024,
            protocols=(),
            counters=ShardCounters(),
        )
        ack_rng = RngStreams(4)
        sinks = []
        for shard in sharded.shards:
            sink = Host(shard.loop, "a")
            sinks.append(sink)
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
        sharded.drain(until=1.0)
        assert sharded.delivered_total == n_flows
        for fid in range(n_flows):
            assert delivered[fid] == payloads[fid]
        # One ACK per completed ADU, every one through a shard-local link.
        assert sum(sink.received for sink in sinks) == n_flows
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
