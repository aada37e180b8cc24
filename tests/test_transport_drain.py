"""Host-level shared drain engine: cross-flow batching from demux to delivery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers import BufferPool
from repro.core.adu import Adu, fragment_adu
from repro.errors import TransportError
from repro.machine.accounting import DrainCounters, ShardCounters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.stages.checksum import internet_checksum
from repro.stages.encrypt import WordXorStage
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.receiver import PROTOCOL
from repro.transport.drain import SharedDrainEngine

from tests.test_net_shard import adu_packets

KEY = 0x0BADF00D


def adu_payload(seed: int, n_bytes: int = 256) -> bytes:
    return random.Random(seed).randbytes(n_bytes)


def encrypted_packets(flow_id, payloads, mtu=2048, key=KEY, start=0):
    """The wire stream an encrypting sender emits for one flow: the
    ciphertext fragments, checksummed over the ciphertext, with ADU
    sequences numbered from ``start``."""
    cipher = WordXorStage(key)
    packets = []
    for sequence, payload in enumerate(payloads, start):
        ciphertext = cipher.apply(payload)
        checksum = internet_checksum(ciphertext)
        adu = Adu(sequence=sequence, payload=ciphertext, name={"i": sequence})
        for fragment in fragment_adu(adu, mtu, checksum=checksum):
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


def make_env(n_flows=3, engine_kwargs=None, receiver_kwargs=None):
    """An engine plus ``n_flows`` registered encrypted receivers on one
    host (fed synthetically; the loop only runs in the timing tests)."""
    path = two_hosts(seed=2)
    engine = SharedDrainEngine(
        path.loop, counters=DrainCounters(), **(engine_kwargs or {})
    )
    delivered = {}
    receivers = []
    for flow_id in range(1, n_flows + 1):
        receivers.append(
            AlfReceiver(
                path.loop,
                path.b,
                "a",
                flow_id,
                deliver=lambda d, fid=flow_id: delivered.setdefault(
                    fid, {}
                ).__setitem__(d.sequence, bytes(d.payload)),
                zero_copy=False,
                encryption=KEY,
                drain_engine=engine,
                **(receiver_kwargs or {}),
            )
        )
    return path, engine, receivers, delivered


class TestGrouping:
    def test_same_shape_flows_share_one_group(self):
        path, engine, receivers, _ = make_env(n_flows=3)
        assert engine.flow_count == 3
        assert engine.group_count == 1

    def test_different_cipher_splits_groups(self):
        path, engine, receivers, _ = make_env(n_flows=2)
        AlfReceiver(
            path.loop, path.b, "a", 9,
            deliver=lambda d: None,
            zero_copy=False,
            drain_engine=engine,  # cleartext: different plan shape
        )
        assert engine.flow_count == 3
        assert engine.group_count == 2

    def test_duplicate_register_rejected(self):
        path, engine, receivers, _ = make_env(n_flows=1)
        with pytest.raises(TransportError):
            engine.register(receivers[0])

    def test_notify_requires_registration(self):
        path, engine, receivers, _ = make_env(n_flows=1)
        stranger = AlfReceiver(
            path.loop, path.b, "a", 55,
            deliver=lambda d: None, zero_copy=False,
        )
        with pytest.raises(TransportError):
            engine.notify_ready(stranger)

    def test_unregister_empties_group(self):
        path, engine, receivers, _ = make_env(n_flows=2)
        for receiver in receivers:
            engine.unregister(receiver)
        assert engine.flow_count == 0
        assert engine.group_count == 0
        engine.unregister(receivers[0])  # idempotent


class TestCounterIsolation:
    def test_engines_built_without_counters_keep_their_own(self):
        path = two_hosts(seed=2)
        first = SharedDrainEngine(path.loop)
        second = SharedDrainEngine(path.loop)
        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: None, zero_copy=False, drain_engine=first,
        )
        for packet in adu_packets(1, [adu_payload(i) for i in range(3)]):
            path.b.receive(packet)
        assert first.flush() == 3
        assert first.counters is not second.counters
        assert first.counters.dispatches == 1
        assert second.counters.snapshot() == DrainCounters().snapshot()


class TestCrossFlowDispatch:
    def test_one_dispatch_covers_all_flows(self):
        path, engine, receivers, delivered = make_env(n_flows=3)
        payloads = {
            r.flow_id: [adu_payload(10 * r.flow_id + i) for i in range(4)]
            for r in receivers
        }
        for receiver in receivers:
            for packet in encrypted_packets(receiver.flow_id, payloads[receiver.flow_id]):
                path.b.receive(packet)
        assert engine.pending_rows == 12
        assert engine.flush() == 12
        counters = engine.counters
        assert counters.dispatches == 1
        assert counters.rows_dispatched == 12
        assert counters.cross_flow_batches == 1
        assert counters.epochs == 1
        assert counters.rows_per_dispatch == 12.0
        assert engine.delivered_total == 12
        for receiver in receivers:
            rows = delivered[receiver.flow_id]
            assert [rows[i] for i in range(4)] == payloads[receiver.flow_id]

    def test_one_ack_per_flow_carries_the_whole_delivered_set(self):
        path, engine, receivers, delivered = make_env(n_flows=2)
        flow_a, flow_b = receivers
        sent = []
        send = path.b.send

        def capture(packet):
            sent.append(packet)
            send(packet)

        path.b.send = capture
        payloads = [adu_payload(600 + i) for i in range(4)]
        # Flow a's ADU 1 never arrives: its rows 0, 2 and 3 deliver
        # around the gap.  Flow b's second row fails verification.
        for packet in encrypted_packets(flow_a.flow_id, payloads):
            if packet.header["adu_seq"] != 1:
                path.b.receive(packet)
        b_packets = encrypted_packets(flow_b.flow_id, payloads[:2])
        b_packets[1].header["adu_csum"] = (b_packets[1].header["adu_csum"] + 1) & 0xFFFF
        for packet in b_packets:
            path.b.receive(packet)
        assert not sent
        assert engine.flush() == 4
        assert engine.counters.dispatches == 1
        # One ACK per flow, after the dispatch's last row, in row order.
        assert [packet.flow_id for packet in sent] == [flow_a.flow_id, flow_b.flow_id]
        assert sent[0].header["sack"] == {
            "cum": 1, "received": [2, 3], "missing": [1], "highest": 3,
        }
        assert sent[1].header["sack"] == {
            "cum": 1, "received": [], "missing": [], "highest": 0,
        }
        assert flow_a.stats.acks_sent == flow_b.stats.acks_sent == 1
        assert sorted(delivered[flow_a.flow_id]) == [0, 2, 3]

    def test_flow_with_no_delivered_row_sends_no_ack(self):
        path, engine, receivers, delivered = make_env(n_flows=1)
        (flow,) = receivers
        packets = encrypted_packets(flow.flow_id, [adu_payload(700)])
        packets[0].header["adu_csum"] = (packets[0].header["adu_csum"] + 1) & 0xFFFF
        path.b.receive(packets[0])
        assert engine.flush() == 0
        assert flow.stats.checksum_failures == 1
        assert flow.stats.acks_sent == 0

    def test_max_rows_splits_epoch_round_robin(self):
        path, engine, receivers, delivered = make_env(
            n_flows=2, engine_kwargs={"max_rows": 4}
        )
        flow_a, flow_b = receivers
        a_payloads = [adu_payload(100 + i) for i in range(6)]
        b_payloads = [adu_payload(200 + i) for i in range(2)]
        for packet in encrypted_packets(flow_a.flow_id, a_payloads):
            path.b.receive(packet)
        for packet in encrypted_packets(flow_b.flow_id, b_payloads):
            path.b.receive(packet)
        assert engine.flush() == 8
        counters = engine.counters
        assert counters.dispatches == 2
        # Fairness: the first (capped) dispatch interleaved both flows
        # round-robin instead of draining the deep flow first.
        assert counters.cross_flow_batches == 1
        assert counters.fairness_stalls == 1
        assert [delivered[flow_a.flow_id][i] for i in range(6)] == a_payloads
        assert [delivered[flow_b.flow_id][i] for i in range(2)] == b_payloads

    def test_exactly_once_under_duplicate_arrivals(self):
        path, engine, receivers, delivered = make_env(n_flows=2)
        payloads = {r.flow_id: [adu_payload(300 + r.flow_id)] for r in receivers}
        packets = [
            packet
            for receiver in receivers
            for packet in encrypted_packets(receiver.flow_id, payloads[receiver.flow_id])
        ]
        for packet in packets:
            path.b.receive(packet)
        assert engine.flush() == 2
        # The same wire stream again: every fragment is a duplicate of a
        # delivered ADU and must not produce a second delivery.
        for packet in packets:
            path.b.receive(packet.copy())
        assert engine.flush() == 0
        assert engine.delivered_total == 2
        for receiver in receivers:
            assert list(delivered[receiver.flow_id]) == [0]
            assert receiver.stats.duplicates_discarded == 1

    def test_corruption_penalizes_only_the_owning_flow(self):
        path, engine, receivers, delivered = make_env(n_flows=2)
        good, victim = receivers
        good_payloads = [adu_payload(400 + i) for i in range(2)]
        victim_payloads = [adu_payload(500 + i) for i in range(2)]
        for packet in encrypted_packets(good.flow_id, good_payloads):
            path.b.receive(packet)
        victim_packets = encrypted_packets(victim.flow_id, victim_payloads)
        # Corrupt the second ADU on the wire: advertised checksum no
        # longer matches the ciphertext.
        victim_packets[1].header["adu_csum"] = (
            victim_packets[1].header["adu_csum"] + 1
        ) & 0xFFFF
        for packet in victim_packets:
            path.b.receive(packet)
        assert engine.flush() == 3
        assert engine.counters.corrupt_rows == 1
        assert victim.stats.checksum_failures == 1
        assert good.stats.checksum_failures == 0
        assert [delivered[good.flow_id][i] for i in range(2)] == good_payloads
        assert list(delivered[victim.flow_id]) == [0]
        assert delivered[victim.flow_id][0] == victim_payloads[0]


class TestFlushPolicy:
    def test_deadline_flush_waits_max_delay(self):
        path, engine, receivers, delivered = make_env(
            n_flows=1, engine_kwargs={"max_delay": 0.02}
        )
        packets = encrypted_packets(1, [adu_payload(600)])

        def feed():
            for packet in packets:
                path.b.receive(packet)

        path.loop.schedule(0.001, feed)
        path.loop.run(until=0.01)
        assert delivered.get(1) is None  # epoch still pending
        assert engine.pending_rows == 1
        path.loop.run(until=0.05)
        assert list(delivered[1]) == [0]

    def test_backlog_at_max_rows_flushes_immediately(self):
        path, engine, receivers, delivered = make_env(
            n_flows=1, engine_kwargs={"max_delay": 10.0, "max_rows": 2}
        )
        packets = encrypted_packets(1, [adu_payload(700 + i) for i in range(2)])

        def feed():
            for packet in packets:
                path.b.receive(packet)

        path.loop.schedule(0.001, feed)
        path.loop.run(until=0.01)  # far before the 10 s deadline
        assert sorted(delivered[1]) == [0, 1]

    def test_invalid_configuration_rejected(self):
        loop = EventLoop()
        with pytest.raises(TransportError):
            SharedDrainEngine(loop, max_rows=0)
        with pytest.raises(TransportError):
            SharedDrainEngine(loop, max_delay=-1.0)


class TestTeardown:
    def make_pooled_env(self):
        loop = EventLoop()
        a = Host(loop, "a")
        pool = BufferPool(64, 4096, label="rx")
        b = Host(loop, "b", rx_pool=pool)
        link_ab = Link(loop, random.Random(3))
        link_ba = Link(loop, random.Random(4))
        a.add_link("b", link_ab)
        b.add_link("a", link_ba)
        link_ab.connect(b.receive)
        link_ba.connect(a.receive)
        engine = SharedDrainEngine(loop, counters=DrainCounters())
        receivers = [
            AlfReceiver(
                loop, b, "a", flow_id,
                deliver=lambda d: None,
                zero_copy=True,
                encryption=KEY,
                drain_engine=engine,
            )
            for flow_id in (1, 2)
        ]
        return b, pool, engine, receivers

    def test_shutdown_mid_drain_leaves_pool_clean(self):
        b, pool, engine, receivers = self.make_pooled_env()
        # Ready rows queued on both flows (chains over pooled segments),
        # plus a half-reassembled ADU on flow 1 — a drain is due but has
        # not run when the host tears the engine down.
        for receiver in receivers:
            for packet in encrypted_packets(
                receiver.flow_id, [adu_payload(800 + receiver.flow_id + i) for i in range(2)]
            ):
                b.receive(packet)
        straggler = encrypted_packets(1, [adu_payload(900, n_bytes=4096)], mtu=1024)
        for packet in straggler[:2]:  # 2 of 4 fragments: stays partial
            b.receive(packet)
        assert engine.pending_rows == 4
        assert pool.snapshot()["in_use"] > 0
        engine.shutdown()
        assert engine.flow_count == 0
        assert engine.pending_rows == 0
        for receiver in receivers:
            receiver.close()
        assert pool.snapshot()["in_use"] == 0
        assert pool.leak_report() == []

    def test_closed_receiver_leaves_engine_and_host(self):
        b, pool, engine, receivers = self.make_pooled_env()
        receivers[0].close()
        receivers[0].close()  # idempotent
        assert engine.flow_count == 1
        # The flow's binding is gone: its packets are now undeliverable
        # and their DMA chains must be released, not leaked.
        for packet in encrypted_packets(1, [adu_payload(950)]):
            b.receive(packet)
        assert b.undeliverable == 1
        assert pool.snapshot()["in_use"] == 0
        assert pool.leak_report() == []

    def test_engine_reusable_after_shutdown(self):
        path, engine, receivers, delivered = make_env(n_flows=1)
        engine.shutdown()
        assert engine.flow_count == 0
        engine.register(receivers[0])
        payloads = [adu_payload(990)]
        for packet in encrypted_packets(1, payloads):
            path.b.receive(packet)
        assert engine.flush() == 1
        assert delivered[1][0] == payloads[0]


class TestSnapshot:
    def test_snapshot_reports_engine_state(self):
        path, engine, receivers, _ = make_env(n_flows=2)
        for packet in encrypted_packets(1, [adu_payload(42)]):
            path.b.receive(packet)
        snap = engine.snapshot()
        assert snap["flows"] == 2
        assert snap["plan_groups"] == 1
        assert snap["pending_rows"] == 1
        assert snap["delivered_total"] == 0
        assert snap["dispatches"] == 0
        engine.flush()
        snap = engine.snapshot()
        assert snap["pending_rows"] == 0
        assert snap["delivered_total"] == 1
        assert snap["rows_per_dispatch"] == 1.0


class TestConcurrentSnapshot:
    def test_snapshot_waits_for_inflight_flush(self):
        """A reader must never observe a half-mutated backlog.

        The flush thread blocks *inside* a deliver callback (mid
        ``_flush_epoch``, engine mutex held); only then does the reader
        thread call ``snapshot()``.  A correct engine holds the reader
        until the epoch completes, so the snapshot always reflects the
        post-flush state — never pending rows that are already being
        dispatched.  Ordering is driven entirely by events, no sleeps.
        """
        import threading

        path = two_hosts(seed=9)
        engine = SharedDrainEngine(path.loop, counters=DrainCounters())
        in_deliver = threading.Event()
        release = threading.Event()

        def deliver(adu):
            in_deliver.set()
            assert release.wait(timeout=5.0)

        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=deliver,
            zero_copy=False,
            encryption=KEY,
            drain_engine=engine,
        )
        for packet in encrypted_packets(1, [adu_payload(4321)]):
            path.b.receive(packet)
        assert engine.pending_rows == 1

        snap: dict[str, object] = {}

        def read_snapshot():
            in_deliver.wait(timeout=5.0)
            snap.update(engine.snapshot())

        flusher = threading.Thread(target=engine.flush)
        reader = threading.Thread(target=read_snapshot)
        flusher.start()
        reader.start()
        # The flush is now parked inside deliver with the mutex held;
        # the reader is at (or past) the snapshot call.  Release the
        # flush and let both finish.
        assert in_deliver.wait(timeout=5.0)
        release.set()
        flusher.join(timeout=5.0)
        reader.join(timeout=5.0)
        assert not flusher.is_alive() and not reader.is_alive()
        assert snap["pending_rows"] == 0
        assert snap["delivered_total"] == 1
        assert snap["dispatches"] == 1

    def test_notify_scan_counters_are_deterministic(self):
        path, engine, receivers, _ = make_env(n_flows=3)
        payloads = {r.flow_id: [adu_payload(60 + r.flow_id)] for r in receivers}
        for receiver in receivers:
            for packet in encrypted_packets(receiver.flow_id, payloads[receiver.flow_id]):
                path.b.receive(packet)
        counters = engine.counters
        # One O(1) notification per completed ADU: one flow visited each.
        assert counters.notify_scans == 3
        assert counters.scan_visits == 3
        # The flush's single window examines the 3 backlogged flows.
        assert engine.flush() == 3
        assert counters.scan_visits == 6
        snap = counters.snapshot()
        assert snap["notify_scans"] == 3
        assert snap["scan_visits"] == 6


def assert_exact(engine, registered):
    """The running count and the per-group ready sets match a full walk."""
    assert engine.pending_rows == sum(len(r.ready) for r in registered)
    for group in engine._groups.values():
        assert group.ready == {r for r in group.flows if r.ready}


class TestLinearBookkeeping:
    @pytest.mark.parametrize("idle_flows", [16, 1024])
    def test_scan_visits_per_adu_independent_of_idle_flows(self, idle_flows):
        # Four active flows, three ADUs each, however many idle flows
        # share the engine: the bookkeeping never visits the idle ones.
        path, engine, receivers, _ = make_env(n_flows=idle_flows)
        for receiver in receivers[:4]:
            payloads = [adu_payload(1000 * receiver.flow_id + i) for i in range(3)]
            for packet in encrypted_packets(receiver.flow_id, payloads):
                path.b.receive(packet)
        assert engine.flush() == 12
        # 12 notifications + one window over the 4 backlogged flows.
        assert engine.counters.scan_visits == 16

    def make_engine_env(self, n_flows, max_rows):
        """An engine whose receivers check the bookkeeping on every
        delivery — i.e. between the windows of a split flush."""
        path = two_hosts(seed=5)
        engine = SharedDrainEngine(
            path.loop, max_rows=max_rows, counters=DrainCounters()
        )
        registered: list[AlfReceiver] = []
        for flow_id in range(1, n_flows + 1):
            registered.append(
                AlfReceiver(
                    path.loop, path.b, "a", flow_id,
                    deliver=lambda d: assert_exact(engine, registered),
                    ack_interval=0,
                    zero_copy=False,
                    encryption=KEY,
                    drain_engine=engine,
                )
            )
        return path, engine, registered

    def feed(self, path, engine, registered, receiver, n_adus, start=0):
        payloads = [
            adu_payload(100 * receiver.flow_id + start + i) for i in range(n_adus)
        ]
        for packet in encrypted_packets(receiver.flow_id, payloads, start=start):
            path.b.receive(packet)
            assert_exact(engine, registered)

    def test_pending_count_exact_through_lifecycle(self):
        path, engine, registered = self.make_engine_env(4, 2)
        flows = list(registered)
        assert_exact(engine, registered)
        for flow, n_adus in zip(flows, (3, 2, 1, 0)):
            self.feed(path, engine, registered, flow, n_adus)
        assert engine.pending_rows == 6
        # Split flush: max_rows=2 forces three windows; every delivery
        # re-checks the bookkeeping mid-flush.
        assert engine.flush() == 6
        assert engine.counters.dispatches == 3
        assert_exact(engine, registered)

        # Unregister with rows still queued: they leave the count.
        self.feed(path, engine, registered, flows[0], 2, start=3)
        engine.unregister(flows[0])
        registered.remove(flows[0])
        assert_exact(engine, registered)
        assert engine.pending_rows == 0
        # Re-registering brings the queued rows back into the count.
        engine.register(flows[0])
        registered.append(flows[0])
        assert engine.pending_rows == 2
        assert_exact(engine, registered)

        # discard_ready on a registered flow.
        self.feed(path, engine, registered, flows[1], 2, start=2)
        flows[0].discard_ready()
        assert_exact(engine, registered)
        assert engine.pending_rows == 2

        # close() with rows queued.
        flows[1].close()
        registered.remove(flows[1])
        assert_exact(engine, registered)
        assert engine.pending_rows == 0

        # shutdown with rows queued.
        self.feed(path, engine, registered, flows[2], 3, start=1)
        assert engine.pending_rows == 3
        engine.shutdown()
        registered.clear()
        assert engine.pending_rows == 0
        assert engine.flow_count == 0

    def test_pending_count_exact_through_migration(self):
        path = two_hosts(seed=11)
        sharded = ShardedHost(path.b, 4, counters=ShardCounters())
        delivered: dict[int, list[bytes]] = {}
        receivers = {}
        for flow_id in range(8):
            shard = sharded.shard_for(PROTOCOL, flow_id)
            receivers[flow_id] = AlfReceiver(
                shard.loop, shard.host, "a", flow_id,
                deliver=lambda d, fid=flow_id: delivered.setdefault(
                    fid, []
                ).append(bytes(d.payload)),
                ack_interval=0,
                drain_engine=shard.engine,
            )
            sharded.register_flow(PROTOCOL, flow_id, receivers[flow_id])

        def check():
            for shard in sharded.shards:
                assert_exact(
                    shard.engine,
                    [r for r in receivers.values() if r.drain_engine is shard.engine],
                )

        payloads = {fid: [adu_payload(40 * fid + i) for i in range(4)] for fid in receivers}
        streams = {fid: adu_packets(fid, payloads[fid]) for fid in receivers}
        for fid in receivers:
            sharded.receive_burst(streams[fid][:2])
        check()
        assert sum(s.engine.pending_rows for s in sharded.shards) == 16
        sharded.drain()
        check()
        # Forced bucket migration of a quiescent flow.
        bucket = sharded.steering.bucket_of(PROTOCOL, 3)
        source = sharded.steering.map[bucket]
        assert sharded.migrate_bucket(bucket, (source + 1) % 4)
        check()
        # Direct rehome of another quiescent flow.
        mover = receivers[5]
        target = sharded.shards[(sharded.shard_for(PROTOCOL, 5).index + 2) % 4]
        sharded.unregister_flow(PROTOCOL, 5)
        assert mover.rehome(target.loop, target.host, target.engine)
        check()
        for fid in receivers:
            if fid != 5:
                sharded.receive_burst(streams[fid][2:])
        check()
        sharded.drain()
        check()
        leaks = sharded.shutdown()
        check()
        assert all(report == [] for report in leaks.values())
        for fid in receivers:
            expected = payloads[fid][:2] if fid == 5 else payloads[fid]
            assert delivered[fid] == expected


def reference_dispatch(registration, queues, row_cap, rotation):
    """The registration-order round-robin drain, walking every flow.

    ``registration`` lists flow ids in registration order; ``queues``
    maps each to its FIFO of ready sequences (consumed).  Returns the
    drained ``(flow, seq)`` rows per dispatch and the final rotation.
    """
    windows = []
    while True:
        backlog = [fid for fid in registration if queues[fid]]
        if not backlog:
            return windows, rotation
        start = rotation % len(backlog)
        order = backlog[start:] + backlog[:start]
        rotation += 1
        rows = []
        while len(rows) < row_cap:
            took = False
            for fid in order:
                if queues[fid]:
                    rows.append((fid, queues[fid].pop(0)))
                    took = True
                    if len(rows) >= row_cap:
                        break
            if not took:
                break
        windows.append(rows)
        if not any(queues[fid] for fid in order):
            return windows, rotation


class TestDispatchOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        row_cap=st.integers(min_value=1, max_value=7),
        counts=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=6),
        rejoin=st.lists(st.booleans(), min_size=6, max_size=6),
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_matches_registration_order_round_robin(
        self, row_cap, counts, rejoin, shuffle_seed, rounds
    ):
        path = two_hosts(seed=3)
        engine = SharedDrainEngine(
            path.loop, max_rows=row_cap, counters=DrainCounters()
        )
        delivered: list[tuple[int, int]] = []
        receivers = {}
        for flow_id in range(1, len(counts) + 1):
            receivers[flow_id] = AlfReceiver(
                path.loop, path.b, "a", flow_id,
                deliver=lambda d, fid=flow_id: delivered.append((fid, d.sequence)),
                ack_interval=0,
                zero_copy=False,
                encryption=KEY,
                drain_engine=engine,
            )
        # Leave-and-rejoin moves a flow to the back of registration order.
        registration = list(receivers)
        for flow_id, again in zip(list(receivers), rejoin):
            if again:
                engine.unregister(receivers[flow_id])
                engine.register(receivers[flow_id])
                registration.remove(flow_id)
                registration.append(flow_id)
        rng = random.Random(shuffle_seed)
        rotation = 0
        next_seq = dict.fromkeys(receivers, 0)
        for _ in range(rounds):
            arrivals = [
                (fid, next_seq[fid] + i)
                for fid, n in zip(receivers, counts)
                for i in range(n)
            ]
            for fid, n in zip(receivers, counts):
                next_seq[fid] += n
            rng.shuffle(arrivals)
            queues = {fid: [] for fid in receivers}
            for fid, seq in arrivals:
                queues[fid].append(seq)
                payload = adu_payload(97 * fid + seq)
                for packet in encrypted_packets(fid, [payload], start=seq):
                    path.b.receive(packet)
            windows, rotation = reference_dispatch(
                registration, queues, row_cap, rotation
            )
            delivered.clear()
            before = engine.counters.dispatches
            engine.flush()
            assert delivered == [row for rows in windows for row in rows]
            assert engine.counters.dispatches - before == len(windows)
            assert engine.pending_rows == 0
