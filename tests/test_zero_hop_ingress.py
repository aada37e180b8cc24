"""Zero-hop sharded ingress: link steering, rebalancing, migration.

The tentpole's contract, unit by unit: the steering table is the same
stable CRC placement the front end always used (until a remap says
otherwise); a train-mode link consulting it delivers single-shard
trains straight onto the owning shard with zero front-end demux;
mixed-shard, unclaimed-protocol and stale-epoch trains fall back to
the front-end slow path; and bucket migrations commit only at train
boundaries with every affected flow quiescent, so delivery stays
exactly-once across a rebalance.
"""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.machine.accounting import ShardCounters
from repro.net.packet import Packet
from repro.net.shard import (
    RebalancePolicy,
    ShardedHost,
    SteeringTable,
    shard_index,
)
from repro.net.topology import sharded_ingress, two_hosts
from repro.transport.alf.receiver import PROTOCOL, AlfReceiver

from tests.test_net_shard import adu_packets, adu_payload, bind_flow


def make_ingress(**kwargs):
    kwargs.setdefault("counters", ShardCounters())
    return sharded_ingress(**kwargs)


def data_packet(flow_id: int, i: int = 0, protocol: str = "alf") -> Packet:
    return Packet(
        src="a", dst="b", protocol=protocol, flow_id=flow_id,
        header={"i": i}, payload=b"x" * 32,
    )


def bind_sinks(sharded) -> dict[int, list[Packet]]:
    """Per-shard catch-all handlers (no transport, just demux evidence)."""
    got: dict[int, list[Packet]] = {}
    for shard in sharded.shards:
        got[shard.index] = []
        shard.host.bind_protocol(
            "alf", lambda p, out=got[shard.index]: out.append(p)
        )
    return got


class TestSteeringTable:
    def test_default_mapping_is_historical_hash(self):
        table = SteeringTable(4)
        for flow_id in range(256):
            shard, _bucket = table.place("alf", flow_id)
            assert shard == shard_index("alf", flow_id, 4)

    def test_memo_and_lookup_counters(self):
        # Every place() is one hash, and each is counted.
        table = SteeringTable(4)
        table.place("alf", 1)
        table.place("alf", 1)
        table.place("alf", 2)
        assert table.lookups == 3

    def test_unclaimed_protocol_steers_none(self):
        table = SteeringTable(4, protocols=("alf",))
        assert table.steer("rpc", 1) is None
        assert table.steer("alf", 1) is not None

    def test_remap_bumps_epoch_and_invalidates_memo(self):
        table = SteeringTable(4)
        shard, bucket = table.place("alf", 7)
        target = (shard + 1) % 4
        table.remap(bucket, target)
        assert table.epoch == 1
        assert table.place("alf", 7) == (target, bucket)

    def test_remap_validates(self):
        table = SteeringTable(2)
        with pytest.raises(NetworkError):
            table.remap(-1, 0)
        with pytest.raises(NetworkError):
            table.remap(0, 2)

    def test_predicted_loads_follow_charges(self):
        table = SteeringTable(2, buckets_per_shard=1)
        table.charge(0, 0, 10)
        table.charge(1, 1, 2)
        assert table.predicted_loads() == [10.0, 2.0]
        # Under a hypothetical remap the bucket's traffic moves with it.
        assert table.predicted_loads([1, 1]) == [0.0, 12.0]


class TestZeroHopDelivery:
    def test_single_shard_train_skips_front_demux(self):
        ing = make_ingress(
            shards=4, steer=True, max_train=8, train_window=1e-3,
        )
        got = bind_sinks(ing.sharded)
        for i in range(16):
            ing.a.send(data_packet(7, i))
        ing.loop.run()
        ing.sharded.drain()
        home = shard_index("alf", 7, 4)
        assert len(got[home]) == 16
        assert ing.a_to_b.stats.steered_trains == 2
        assert ing.a_to_b.stats.steered_packets == 16
        snap = ing.sharded.snapshot()
        # Zero front-end hops: nothing crossed the per-packet demux and
        # no train fell back to the front-end burst walk.
        assert snap["demux"]["packets"] == 0
        assert snap["demux"]["demux_runs"] == 0
        assert snap["demux"]["fallback_trains"] == 0
        assert snap["demux"]["steered_packets"] == 16
        ing.sharded.shutdown()

    @pytest.mark.parametrize("steer", [True, False])
    def test_trains_after_shutdown_are_undeliverable(self, steer):
        # shutdown() unbinds the claimed protocols from the front; a
        # train-mode link still hands trains to the sharded host (by
        # steer_burst or receive_burst), which must pass them to the
        # front to be counted undeliverable, not deliver them to shards.
        ing = make_ingress(seed=1, shards=4, steer=steer, max_train=16)
        ing.sharded.shutdown()
        received = [shard.host.received for shard in ing.sharded.shards]
        undeliverable = ing.b.undeliverable
        for i in range(3):
            ing.a.send(data_packet(7, i))
        ing.loop.run()
        assert [shard.host.received for shard in ing.sharded.shards] == received
        assert ing.b.undeliverable == undeliverable + 3

    def test_mixed_shard_train_falls_back_to_front(self):
        ing = make_ingress(shards=4, steer=True, max_train=8,
                              train_window=1e-3)
        got = bind_sinks(ing.sharded)
        flows = [1, 2, 3, 4, 5, 6, 8, 9]
        homes = {fid: shard_index("alf", fid, 4) for fid in flows}
        assert len(set(homes.values())) > 1  # genuinely mixed
        for fid in flows:
            ing.a.send(data_packet(fid))
        ing.loop.run()
        ing.sharded.drain()
        assert sum(len(v) for v in got.values()) == len(flows)
        for fid, home in homes.items():
            assert any(p.flow_id == fid for p in got[home])
        snap = ing.sharded.snapshot()
        assert ing.a_to_b.stats.steered_trains == 0
        assert snap["demux"]["fallback_trains"] >= 1
        # The walk charges each arrival to the rebalance ledger once.
        assert snap["steering"]["shard_packets"] == [len(got[i]) for i in range(4)]
        ing.sharded.shutdown()

    def test_unclaimed_protocol_reaches_front_handler(self):
        ing = make_ingress(shards=4, steer=True, max_train=8,
                              train_window=1e-3)
        bind_sinks(ing.sharded)
        other: list[Packet] = []
        ing.b.bind_protocol("rpc", other.append)
        for i in range(4):
            ing.a.send(data_packet(99, i, protocol="rpc"))
        ing.loop.run()
        ing.sharded.drain()
        assert len(other) == 4
        assert ing.a_to_b.stats.steered_trains == 0
        ing.sharded.shutdown()

    def test_migration_mid_train_forces_stale_fallback(self):
        # A bucket migration commits while a train is still open on the
        # link: the boarded placements are stale by delivery time, so
        # the train must take the front-end path (which re-demuxes
        # under the fresh table) rather than land on the old shard.
        ing = make_ingress(shards=4, steer=True, max_train=64,
                              train_window=20e-3)
        got = bind_sinks(ing.sharded)
        for i in range(8):
            ing.a.send(data_packet(7, i))
        bucket = ing.sharded.steering.bucket_of(PROTOCOL, 7)
        source = ing.sharded.steering.map[bucket]
        target = (source + 1) % 4
        # Packets arrive ~1 ms in; the train stays open until ~21 ms.
        ing.loop.schedule(
            0.005, lambda: ing.sharded.migrate_bucket(bucket, target)
        )
        ing.loop.run()
        ing.sharded.drain()
        assert ing.a_to_b.stats.stale_steer_trains == 1
        assert ing.a_to_b.stats.steered_trains == 0
        # The fresh table routed everything to the migration target.
        assert len(got[target]) == 8
        assert len(got[source]) == 0
        ing.sharded.shutdown()

    def test_mixed_train_is_placed_once(self):
        # A mixed-shard train whose link placements are current reaches
        # the front-end walk with them: one place() per flow-run in all,
        # and the same runs, ledgers and shards as a walk that hashes.
        flows = [1, 1, 2, 3, 3, 3, 4, 5]
        results = []
        for steer in (True, False):
            ing = make_ingress(shards=4, steer=steer, max_train=8,
                               train_window=1e-3)
            got = bind_sinks(ing.sharded)
            for i, fid in enumerate(flows):
                ing.a.send(data_packet(fid, i))
            ing.loop.run()
            ing.sharded.drain()
            table = ing.sharded.steering
            snap = ing.sharded.snapshot()
            results.append((
                {index: [p.header["i"] for p in packets] for index, packets in got.items()},
                list(table.bucket_packets),
                list(table.shard_packets),
                snap["demux"]["demux_runs"],
                table.lookups,
            ))
            ing.sharded.shutdown()
        steered, hashed = results
        assert steered[:4] == hashed[:4]
        assert steered[3] == 5  # five flow-runs
        assert steered[4] == 5 and hashed[4] == 5

    def test_mixed_train_remapped_mid_train_is_re_placed(self):
        # A bucket remap while a mixed train is open makes the link's
        # placements stale: the walk hashes every run again, under the
        # fresh map, and the remapped flow lands on its new shard.
        ing = make_ingress(shards=4, steer=True, max_train=64,
                           train_window=20e-3)
        got = bind_sinks(ing.sharded)
        flows = [1, 2, 3, 4, 5, 6, 8, 9]
        table = ing.sharded.steering
        assert len({shard_index("alf", fid, 4) for fid in flows}) > 1
        for fid in flows:
            ing.a.send(data_packet(fid))
        bucket = table.bucket_of(PROTOCOL, 1)
        source = table.map[bucket]
        target = (source + 1) % 4
        ing.loop.schedule(
            0.005, lambda: ing.sharded.migrate_bucket(bucket, target)
        )
        ing.loop.run()
        ing.sharded.drain()
        assert table.epoch == 1
        # Eight runs placed while boarding, all eight again by the walk.
        assert table.lookups == 16
        assert [p.flow_id for p in got[target] if p.flow_id == 1] == [1]
        assert all(p.flow_id != 1 for p in got[source])
        assert sum(table.shard_packets) == len(flows)
        ing.sharded.shutdown()

    def test_forged_steer_stamp_cannot_misplace_a_train(self):
        # A sender-written header["steer"] stamp naming the current
        # epoch but the wrong shard must not move the train: placement
        # comes from the steering table alone.
        ing = make_ingress(shards=4, steer=True, max_train=8,
                              train_window=1e-3)
        sharded = ing.sharded
        table = sharded.steering
        home = shard_index(PROTOCOL, 7, 4)
        wrong = (home + 1) % 4
        bucket = table.bucket_of(PROTOCOL, 7)
        got: list[Packet] = []
        sharded.shards[home].host.bind(PROTOCOL, 7, got.append)
        for i in range(8):
            packet = data_packet(7, i)
            packet.header["steer"] = (table.epoch, wrong, bucket)
            ing.a.send(packet)
        ing.loop.run()
        sharded.drain()
        assert len(got) == 8
        assert ing.a_to_b.stats.steered_trains == 1
        assert [shard.host.undeliverable for shard in sharded.shards] == [0] * 4
        assert table.shard_packets[home] == 8
        assert sum(table.shard_packets) == 8
        sharded.shutdown()


class TestRebalancePolicy:
    def make_skewed_table(self) -> SteeringTable:
        table = SteeringTable(4, buckets_per_shard=4)
        # 90 % of traffic on shard 0's buckets, spread so single-bucket
        # moves can improve the split.
        for bucket in range(table.n_buckets):
            shard = table.map[bucket]
            table.charge(bucket, shard, 225 if shard == 0 else 9)
        return table

    def test_tick_proposes_hot_to_cold_moves(self):
        table = self.make_skewed_table()
        policy = RebalancePolicy(threshold=1.5, goal=1.15, min_packets=64)
        moves = policy.tick(now=1.0, table=table)
        assert moves, "skewed table must trigger a proposal"
        assert policy.triggers == 1
        mapping = list(table.map)
        for bucket, target in moves:
            assert mapping[bucket] == 0  # moves come off the hot shard
            mapping[bucket] = target
        loads = table.predicted_loads(mapping)
        mean = sum(loads) / len(loads)
        assert max(loads) / mean <= policy.goal + 1e-9

    def test_below_min_packets_never_triggers(self):
        table = SteeringTable(4, buckets_per_shard=4)
        table.charge(0, 0, 10)
        policy = RebalancePolicy(min_packets=256)
        assert policy.tick(1.0, table) == []
        assert policy.triggers == 0

    def test_balanced_table_never_triggers(self):
        table = SteeringTable(4, buckets_per_shard=4)
        for bucket in range(table.n_buckets):
            table.charge(bucket, table.map[bucket], 100)
        policy = RebalancePolicy(min_packets=64)
        assert policy.tick(1.0, table) == []

    def test_cooldown_suppresses_retrigger(self):
        table = self.make_skewed_table()
        policy = RebalancePolicy(min_packets=64, cooldown=1.0)
        assert policy.tick(1.0, table)
        policy.committed(1.0)
        assert policy.tick(1.5, table) == []  # inside the cooldown
        assert policy.tick(2.5, table)  # past it (skew persists)

    def test_ewma_decays_with_simulated_time(self):
        table = SteeringTable(2, buckets_per_shard=2)
        policy = RebalancePolicy(half_life=0.01, min_packets=1)
        table.charge(0, 0, 100)
        policy.observe(0.0, table)
        peak = policy.shard_ewma[0]
        policy.observe(0.05, table)  # five half-lives, no new arrivals
        assert policy.shard_ewma[0] < peak / 16

    def test_validation(self):
        with pytest.raises(NetworkError):
            RebalancePolicy(threshold=1.0)
        with pytest.raises(NetworkError):
            RebalancePolicy(goal=2.0, threshold=1.5)
        with pytest.raises(NetworkError):
            RebalancePolicy(half_life=0.0)
        with pytest.raises(NetworkError):
            RebalancePolicy(max_moves=0)


class TestMigration:
    def make_flow(self, n_shards=4, flow_id=7, **kwargs):
        path = two_hosts(seed=11)
        sharded = ShardedHost(
            path.b, n_shards, counters=ShardCounters(), **kwargs
        )
        delivered: dict[int, list[bytes]] = {}
        shard, receiver = bind_flow(sharded, flow_id, delivered)
        sharded.register_flow(PROTOCOL, flow_id, receiver)
        return path, sharded, shard, receiver, delivered

    def test_migrate_rehomes_receiver_exactly_once(self):
        path, sharded, home, receiver, delivered = self.make_flow()
        payloads = [adu_payload(70 + i) for i in range(4)]
        stream = adu_packets(7, payloads)
        sharded.receive_burst(stream[:2])
        sharded.drain()
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        target = (home.index + 1) % 4
        assert sharded.migrate_bucket(bucket, target)
        target_shard = sharded.shards[target]
        assert receiver.host is target_shard.host
        assert receiver.loop is target_shard.loop
        assert receiver.drain_engine is target_shard.engine
        assert sharded.shard_for(PROTOCOL, 7) is target_shard
        # Packets sent after the commit land on the new home and the
        # flow's delivery stream is still byte-identical exactly-once.
        sharded.receive_burst(stream[2:])
        sharded.drain()
        assert delivered[7] == payloads
        assert sharded.counters.migrations == 1
        assert sharded.counters.migrated_flows == 1
        reports = sharded.shutdown()
        assert all(report == [] for report in reports.values())

    def test_migrate_refused_while_flow_mid_reassembly(self):
        path, sharded, home, receiver, delivered = self.make_flow()
        # A two-fragment ADU with only the first fragment arrived: the
        # flow holds a partial row, so it is not quiescent.
        [packet_a, _packet_b] = adu_packets(
            7, [adu_payload(1, 3000)], mtu=2048
        )[:2]
        sharded.receive_burst([packet_a])
        sharded.drain()
        assert not receiver.quiescent
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        target = (home.index + 1) % 4
        assert not sharded.migrate_bucket(bucket, target)
        assert receiver.host is home.host
        assert sharded.steering.epoch == 0
        sharded.shutdown()

    def test_migrate_noop_cases(self):
        path, sharded, home, receiver, _ = self.make_flow()
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        assert not sharded.migrate_bucket(bucket, home.index)  # same shard
        assert not sharded.migrate_bucket(bucket, 99)  # no such shard
        assert not sharded.migrate_bucket(-1, 0)  # no such bucket
        assert sharded.steering.epoch == 0
        sharded.shutdown()

    def test_rehome_refuses_non_quiescent(self):
        path, sharded, home, receiver, _ = self.make_flow()
        [packet_a, _] = adu_packets(7, [adu_payload(1, 3000)], mtu=2048)[:2]
        sharded.receive_burst([packet_a])
        sharded.drain()
        other = sharded.shards[(home.index + 1) % 4]
        assert not receiver.rehome(other.loop, other.host, other.engine)
        assert receiver.host is home.host
        sharded.shutdown()

    def test_unregister_flow_drops_from_bucket(self):
        path, sharded, home, receiver, _ = self.make_flow()
        sharded.unregister_flow(PROTOCOL, 7)
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        target = (home.index + 1) % 4
        # The receiver is still bound on the home shard but no longer
        # registered: remapping its bucket would route future packets
        # to a shard with no binding, so the commit defers instead.
        assert not sharded.migrate_bucket(bucket, target)
        assert receiver.host is home.host
        assert sharded.steering.epoch == 0
        # Once the flow is torn down the bucket carries no unregistered
        # traffic and the remap commits trivially.
        receiver.close()
        assert sharded.migrate_bucket(bucket, target)
        sharded.shutdown()

    def test_unregistered_bound_flow_pins_its_bucket(self):
        # An AlfReceiver bound directly on a shard host, never passed
        # through register_flow, must keep its bucket's placement — a
        # remap would silently strand its delivery.
        path = two_hosts(seed=11)
        sharded = ShardedHost(path.b, 4, counters=ShardCounters())
        delivered: dict[int, list[bytes]] = {}
        home, receiver = bind_flow(sharded, 7, delivered)
        bucket = sharded.steering.bucket_of(PROTOCOL, 7)
        target = (home.index + 1) % 4
        assert not sharded.migrate_bucket(bucket, target)
        assert sharded.steering.epoch == 0
        # Delivery keeps working on the pinned placement.
        payloads = [adu_payload(3)]
        sharded.receive_burst(adu_packets(7, payloads))
        sharded.drain()
        assert delivered[7] == payloads
        sharded.shutdown()

    def test_policy_driven_rebalance_end_to_end(self):
        # Skew every packet onto one shard, let the policy see it at
        # train boundaries, and require a committed migration that
        # moves real traffic while delivery stays exactly-once.
        policy = RebalancePolicy(
            threshold=1.3, goal=1.15, half_life=0.05, min_packets=32,
        )
        ing = make_ingress(
            shards=4, steer=True, max_train=8, train_window=1e-3,
            rebalance=policy, buckets_per_shard=8,
        )
        delivered: dict[int, list[bytes]] = {}
        # Eight flows that all hash to the same home shard.
        home = shard_index("alf", 1, 4)
        flows = [f for f in range(1, 200)
                 if shard_index("alf", f, 4) == home][:8]
        receivers = {}
        for fid in flows:
            _, receivers[fid] = bind_flow(ing.sharded, fid, delivered)
            ing.sharded.register_flow(PROTOCOL, fid, receivers[fid])
        waves = {
            fid: adu_packets(fid, [adu_payload(fid * 100 + i, 64)
                                   for i in range(12)])
            for fid in flows
        }
        for round_no in range(12):
            for fid in flows:
                ing.a.send(waves[fid][round_no])
        ing.loop.run()
        ing.sharded.drain()
        snap = ing.sharded.snapshot()
        assert snap["demux"]["migrations"] >= 1
        assert snap["steering"]["remaps"] >= 1
        # Traffic genuinely spread: the home shard no longer owns every
        # registered flow.
        assert any(
            receivers[fid].host is not ing.sharded.shards[home].host
            for fid in flows
        )
        for fid in flows:
            assert len(delivered[fid]) == 12
            assert len(set(delivered[fid])) == 12
        reports = ing.sharded.shutdown()
        assert all(report == [] for report in reports.values())
