"""Rate-paced train shaping and the drain-pressure backpressure loop."""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import octet_payload
from repro.core.adu import Adu
from repro.errors import NetworkError, TransportError
from repro.machine.accounting import PacingCounters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import StoreAndForwardSwitch, SwitchStats
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import (
    PRESSURE_HIGH,
    PRESSURE_LOW,
    PRESSURE_MAX,
    TrainPacer,
    quantize_pressure,
)
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)


def wire_packet(n=0, size=960, src="a", dst="b", flow=1, tag=None):
    header = {"n": n, "adu_seq": n}
    if tag is not None:
        header["train"] = tag
    return Packet(src=src, dst=dst, protocol="t", flow_id=flow,
                  header=header, payload=bytes(size))


def make_pacer(loop=None, **kwargs):
    loop = loop or EventLoop()
    sent = []
    kwargs.setdefault("rate_bytes_per_s", 1e6)
    kwargs.setdefault("target_train", 4)
    kwargs.setdefault("mtu", 1000)
    kwargs.setdefault("counters", PacingCounters())
    pacer = TrainPacer(loop, send=sent.append, **kwargs)
    return loop, pacer, sent


class TestQuantizePressure:
    def test_idle_is_zero(self):
        assert quantize_pressure(0.0, 64) == 0
        assert quantize_pressure(-3.0, 64) == 0
        assert quantize_pressure(10.0, 0) == 0

    def test_ramp_rows_maps_to_high_threshold(self):
        # The EWMA at which adaptive epochs hit their configured window
        # quantizes exactly to the back-off threshold.
        assert quantize_pressure(64.0, 64) == PRESSURE_HIGH

    def test_monotonic_and_saturating(self):
        previous = 0
        for ewma in range(0, 200, 5):
            quantum = quantize_pressure(float(ewma), 64)
            assert quantum >= previous
            assert 0 <= quantum <= PRESSURE_MAX
            previous = quantum
        assert quantize_pressure(1e9, 64) == PRESSURE_MAX


class TestTrainPacerValidation:
    def test_rejects_bad_parameters(self):
        loop = EventLoop()
        with pytest.raises(TransportError):
            TrainPacer(loop, rate_bytes_per_s=0)
        with pytest.raises(TransportError):
            TrainPacer(loop, target_train=0)
        with pytest.raises(TransportError):
            TrainPacer(loop, bucket_trains=0.5)
        with pytest.raises(TransportError):
            TrainPacer(loop, aimd_backoff=1.5)
        with pytest.raises(TransportError):
            TrainPacer(loop, high_pressure=2, low_pressure=5)

    def test_submit_without_send_raises(self):
        pacer = TrainPacer(EventLoop())
        with pytest.raises(TransportError, match="no send callback"):
            pacer.submit(wire_packet())

    def test_seed_rate_installs_and_clamps(self):
        pacer = TrainPacer(
            EventLoop(),
            min_rate_bytes_per_s=1_000.0,
            max_rate_bytes_per_s=1e6,
        )
        assert pacer.seed_rate(50_000.0) == 50_000.0
        assert pacer.rate_bytes_per_s == 50_000.0
        assert pacer.seed_rate(10.0) == 1_000.0  # clamped up
        assert pacer.seed_rate(1e12) == 1e6  # clamped down
        assert pacer.rate_bytes_per_s == 1e6


class TestTrainAlignedRelease:
    def test_batch_leaves_as_full_trains_never_singles(self):
        loop, pacer, sent = make_pacer()
        for n in range(8):
            pacer.submit(wire_packet(n=n))
        loop.run()
        assert len(sent) == 8
        # Two full trains of target length, tagged distinctly, each
        # stamped with its length — no leading or trailing singletons.
        tags = [p.header["train"] for p in sent]
        assert tags == [tags[0]] * 4 + [tags[4]] * 4
        assert tags[0] != tags[4]
        assert all(p.header["train_len"] == 4 for p in sent)
        assert pacer.trains == 2
        assert pacer.counters.snapshot()["full_trains"] == 2

    def test_train_leaves_back_to_back_at_one_instant(self):
        loop = EventLoop()
        sent = []
        pacer = TrainPacer(
            loop, rate_bytes_per_s=1e6, target_train=4, mtu=1000,
            counters=PacingCounters(),
            send=lambda p: sent.append((loop.now, p)),
        )
        for n in range(4):
            pacer.submit(wire_packet(n=n))
        loop.run()
        times = {t for t, _ in sent}
        assert len(times) == 1  # the whole train at one release instant

    def test_tail_shorter_than_target_still_leaves(self):
        loop, pacer, sent = make_pacer()
        for n in range(6):
            pacer.submit(wire_packet(n=n))
        loop.run()
        assert [p.header["train_len"] for p in sent] == [4] * 4 + [2] * 2
        snap = pacer.counters.snapshot()
        assert snap["trains_released"] == 2
        assert snap["full_trains"] == 1

    def test_rate_spaces_trains_past_the_bucket(self):
        # Bucket holds two trains' credit; the third train must wait
        # for the token bucket to refill at the configured rate.
        loop = EventLoop()
        sent = []
        pacer = TrainPacer(
            loop, rate_bytes_per_s=100_000.0, target_train=4, mtu=1000,
            bucket_trains=2.0, counters=PacingCounters(),
            send=lambda p: sent.append((loop.now, p)),
        )
        for n in range(12):
            pacer.submit(wire_packet(n=n))
        loop.run()
        release_times = sorted({t for t, _ in sent})
        # Two trains ride the full bucket at t=0; the third waits for
        # one train's worth of credit (4 × 1000 wire bytes).
        assert release_times == [
            pytest.approx(0.0),
            pytest.approx(4 * 1000 / 100_000.0),
        ]
        assert sum(1 for t, _ in sent if t == 0.0) == 8
        assert pacer.counters.snapshot()["credit_stalls"] >= 1

    def test_holds_tracks_queued_adus(self):
        loop, pacer, sent = make_pacer(rate_bytes_per_s=1_000.0)
        pacer.submit(wire_packet(n=0))
        assert pacer.holds(1, 0)
        assert not pacer.holds(1, 1)
        assert not pacer.holds(2, 0)
        loop.run()
        assert not pacer.holds(1, 0)
        assert pacer.queued_packets == 0

    def test_flush_releases_everything_without_credit(self):
        loop, pacer, sent = make_pacer(rate_bytes_per_s=1.0)
        for n in range(10):
            pacer.submit(wire_packet(n=n))
        pacer.flush()
        assert len(sent) == 10
        assert pacer.queued_packets == 0


class TestAimdLoop:
    def test_low_pressure_raises_additively(self):
        loop, pacer, _ = make_pacer(
            rate_bytes_per_s=10_000.0, aimd_increase=500.0
        )
        pacer.on_pressure(PRESSURE_LOW)
        pacer.on_pressure(0)
        assert pacer.rate_bytes_per_s == pytest.approx(11_000.0)
        assert pacer.raises == 2

    def test_high_pressure_backs_off_multiplicatively(self):
        loop, pacer, _ = make_pacer(rate_bytes_per_s=10_000.0)
        pacer.on_pressure(PRESSURE_HIGH)
        assert pacer.rate_bytes_per_s == pytest.approx(5_000.0)
        assert pacer.backoffs == 1
        assert pacer.first_backoff_time == loop.now

    def test_holdoff_absorbs_one_ack_flight(self):
        # Many high-pressure ACKs inside one hold-off window trigger a
        # single back-off, not a geometric collapse.
        loop, pacer, _ = make_pacer(
            rate_bytes_per_s=10_000.0, backoff_interval=0.05
        )
        for _ in range(10):
            pacer.on_pressure(PRESSURE_MAX)
        assert pacer.backoffs == 1
        assert pacer.rate_bytes_per_s == pytest.approx(5_000.0)
        loop.schedule(0.06, lambda: None)
        loop.run()
        pacer.on_pressure(PRESSURE_MAX)
        assert pacer.backoffs == 2

    def test_mid_band_leaves_rate_alone(self):
        loop, pacer, _ = make_pacer(rate_bytes_per_s=10_000.0)
        pacer.on_pressure((PRESSURE_LOW + PRESSURE_HIGH) // 2 + 1)
        assert pacer.rate_bytes_per_s == pytest.approx(10_000.0)
        assert pacer.raises == 0 and pacer.backoffs == 0

    def test_rate_respects_bounds(self):
        loop, pacer, _ = make_pacer(
            rate_bytes_per_s=2_000.0,
            min_rate_bytes_per_s=1_500.0,
            max_rate_bytes_per_s=2_200.0,
            aimd_increase=1_000.0,
            backoff_interval=0.0,
        )
        pacer.on_pressure(PRESSURE_MAX)
        pacer.on_pressure(PRESSURE_MAX)
        assert pacer.rate_bytes_per_s == pytest.approx(1_500.0)
        pacer.on_pressure(0)
        assert pacer.rate_bytes_per_s == pytest.approx(2_200.0)

    def test_backoff_rearms_pending_release_at_new_rate(self):
        # A back-off landing while a release is armed must not let the
        # train leave on stale credit math.
        loop = EventLoop()
        sent = []
        pacer = TrainPacer(
            loop, rate_bytes_per_s=100_000.0, target_train=4, mtu=1000,
            bucket_trains=2.0, counters=PacingCounters(),
            send=lambda p: sent.append((loop.now, p)),
        )
        for n in range(12):
            pacer.submit(wire_packet(n=n))
        pacer.on_pressure(PRESSURE_MAX)  # halve the rate immediately
        loop.run()
        release_times = sorted({t for t, _ in sent})
        # The third train (past the bucket) waits at the *halved* rate.
        assert release_times[-1] == pytest.approx(4 * 1000 / 50_000.0)


class TestSenderPacing:
    def run_paced(self, n_adus=6, rate=2e6, **kwargs):
        path = two_hosts(seed=2, bandwidth_bps=50e6, pacing=True, rate=rate)
        got = {}
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: got.setdefault(d.sequence, d),
            expected_adus=n_adus, ack_interval=0,
        )
        finished = []
        sender = AlfSender(
            path.loop, path.a, "b", 1,
            pacing=path.pacer,
            on_complete=lambda: finished.append(path.loop.now),
            **kwargs,
        )
        adus = [Adu(i, octet_payload(2500, seed=50 + i), {"i": i})
                for i in range(n_adus)]
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=120.0)
        return path, sender, receiver, got, finished, adus

    def test_paced_transfer_completes_exactly(self):
        path, sender, receiver, got, finished, adus = self.run_paced()
        assert finished
        assert len(got) == len(adus)
        for adu in adus:
            assert bytes(got[adu.sequence].payload) == adu.payload
        assert path.pacer.trains > 0
        # Clean path: pacer delay must not fake losses into repairs.
        assert sender.stats.retransmissions == 0

    def test_pacer_held_adus_are_not_repaired_by_timer(self):
        # Rate so low the repair timer fires many times while fragments
        # still sit in the shaping queue: the holds() guard must keep
        # the timer from "repairing" never-sent data.
        path, sender, receiver, got, finished, adus = self.run_paced(
            n_adus=4, rate=30_000.0, rto=0.05
        )
        assert finished
        assert len(got) == len(adus)
        assert sender.stats.retransmissions == 0

    def test_ack_quantum_reaches_the_pacer(self):
        path = two_hosts(seed=3, pacing=True, rate=1e6)
        engine = SharedDrainEngine(
            path.loop, max_delay=2e-3, adaptive=True, ramp_rows=4
        )
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: None, ack_interval=0, drain_engine=engine,
        )
        sender = AlfSender(path.loop, path.a, "b", 1, pacing=path.pacer)
        for i in range(8):
            sender.send_adu(Adu(i, octet_payload(1000, seed=i), {"i": i}))
        sender.close()
        path.loop.run(until=30.0)
        assert path.pacer.counters.snapshot()["pressure_signals"] > 0
        # The quanta land on this pacer's own ledger, not a shared one.
        bystander = TrainPacer(path.loop)
        assert bystander.counters is not path.pacer.counters
        assert bystander.counters.snapshot()["pressure_signals"] == 0

    def test_idle_receiver_timer_does_not_raise_the_rate(self):
        # Every low-pressure ACK is one additive increase, so a caught-up
        # receiver's timer, were it to repeat, would raise an idle
        # sender's rate once per interval.
        interval = 0.01
        path = two_hosts(seed=3, pacing=True, rate=1e6)
        engine = SharedDrainEngine(path.loop, max_delay=2e-3)
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: None, ack_interval=interval, drain_engine=engine,
        )
        finished = []
        sender = AlfSender(
            path.loop, path.a, "b", 1, pacing=path.pacer,
            on_complete=lambda: finished.append(path.loop.now),
        )
        for i in range(8):
            sender.send_adu(Adu(i, octet_payload(1000, seed=i), {"i": i}))
        sender.close()
        while not finished:
            path.loop.run(until=path.loop.now + interval)
        assert receiver.delivered_count == 8
        raises = path.pacer.raises
        assert raises > 0
        path.loop.run(until=path.loop.now + 10 * interval)
        assert path.pacer.raises == raises


class TestSwitchTrainPreservation:
    def make(self, preserve=True, cap=32, capacity=64, bandwidth=1e6):
        loop = EventLoop()
        switch = StoreAndForwardSwitch(
            loop, queue_capacity=capacity,
            preserve_trains=preserve, train_fairness_cap=cap,
        )
        out = Link(loop, RngStreams(0).stream("out"),
                   bandwidth_bps=bandwidth, propagation_delay=1e-3)
        got = []
        out.connect(got.append)
        switch.attach("portb", out)
        switch.add_route("b", "portb")
        return loop, switch, got

    @staticmethod
    def tagged(n, tag, src="a", length=4):
        p = wire_packet(n=n, src=src, tag=tag)
        p.header["train_len"] = length
        return p

    def test_interleaved_train_forwards_contiguously(self):
        loop, switch, got = self.make()
        train = [self.tagged(n, tag=1) for n in range(4)]
        cross = [wire_packet(n=100 + n, src="c") for n in range(2)]
        switch.receive_burst(
            [train[0], cross[0], train[1], cross[1], train[2], train[3]]
        )
        loop.run()
        # The shaped train leaves the port as one unit; cross-traffic
        # queues behind it instead of interleaving packet-by-packet.
        assert [p.header["n"] for p in got] == [0, 1, 2, 3, 100, 101]
        assert switch.stats.trains_joined == 3
        assert switch.stats.train_units == 1

    def test_without_preservation_fifo_order_holds(self):
        loop, switch, got = self.make(preserve=False)
        train = [self.tagged(n, tag=1) for n in range(3)]
        cross = [wire_packet(n=100, src="c")]
        switch.receive_burst([train[0], cross[0], train[1], train[2]])
        loop.run()
        assert [p.header["n"] for p in got] == [0, 100, 1, 2]

    def test_fairness_cap_bounds_the_unit(self):
        loop, switch, got = self.make(cap=2)
        train = [self.tagged(n, tag=1, length=4) for n in range(4)]
        cross = [wire_packet(n=100 + n, src="c") for n in range(2)]
        switch.receive_burst(
            [train[0], cross[0], train[1], train[2], cross[1], train[3]]
        )
        loop.run()
        # First two train packets ride one unit; the cap forces the
        # rest to queue as a fresh unit behind the first cross packet.
        assert [p.header["n"] for p in got] == [0, 1, 100, 2, 3, 101]
        assert switch.stats.train_caps >= 1

    def test_queue_drops_break_down_by_destination(self):
        loop, switch, got = self.make(capacity=2, bandwidth=1e3)
        switch.receive_burst([wire_packet(n=n) for n in range(6)])
        loop.run()
        assert switch.stats.queue_drops == {"b": 4}
        assert switch.stats.drops == 4

    def test_legacy_counter_names_still_work(self):
        loop, switch, got = self.make()
        switch.receive(wire_packet(n=0))
        switch.receive(wire_packet(n=1))
        switch.receive(wire_packet(n=2, dst="nowhere"))
        loop.run()
        assert switch.forwarded == 2
        assert switch.drops == 1
        assert switch.bursts == 0
        assert isinstance(switch.stats, SwitchStats)
        assert switch.stats.no_route_drops == 1
        assert switch.queue_depth("portb") == 0

    def test_fairness_cap_validation(self):
        with pytest.raises(NetworkError):
            StoreAndForwardSwitch(EventLoop(), train_fairness_cap=0)


class TestLinkTagBoundary:
    class Sink:
        def __init__(self):
            self.trains = []

        def receive(self, p):
            self.trains.append([p])

        def receive_burst(self, packets):
            self.trains.append(list(packets))

    def test_tag_change_closes_the_open_train(self):
        sink = self.Sink()
        loop = EventLoop()
        link = Link(loop, random.Random(7), bandwidth_bps=1e9,
                    propagation_delay=1e-3, max_train=8, train_window=1e-3)
        link.connect(sink.receive)
        for n in range(3):
            link.send(wire_packet(n=n, tag=1))
        for n in range(3, 6):
            link.send(wire_packet(n=n, tag=2))
        loop.run()
        # Without the boundary all 6 would glue into one train of 6;
        # the pacer-drawn tag boundary splits them 3 + 3.
        assert [len(t) for t in sink.trains] == [3, 3]
        assert [p.header["n"] for t in sink.trains for p in t] == list(range(6))

    def test_untagged_packets_aggregate_as_before(self):
        sink = self.Sink()
        loop = EventLoop()
        link = Link(loop, random.Random(7), bandwidth_bps=1e9,
                    propagation_delay=1e-3, max_train=4, train_window=1e-3)
        link.connect(sink.receive)
        for n in range(4):
            link.send(wire_packet(n=n))
        loop.run()
        assert [len(t) for t in sink.trains] == [4]


class TestAckPressureStamp:
    def make_receiver(self, **engine_kwargs):
        path = two_hosts(seed=4)
        engine_kwargs.setdefault("max_delay", 2e-3)
        engine_kwargs.setdefault("adaptive", True)
        engine_kwargs.setdefault("ramp_rows", 4)
        engine = SharedDrainEngine(path.loop, **engine_kwargs)
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: None, ack_interval=0, drain_engine=engine,
        )
        acks = []
        path.a.bind("alf", 1, acks.append)
        return path, engine, receiver, acks

    def test_acks_carry_the_pressure_quantum(self):
        path, engine, receiver, acks = self.make_receiver()
        for _ in range(8):
            engine._observe_backlog(16)
        receiver.send_ack()
        path.loop.run()
        assert acks
        assert acks[-1].header["dp"] >= PRESSURE_HIGH

    def test_idle_engine_stamps_zero(self):
        path, engine, receiver, acks = self.make_receiver()
        receiver.send_ack()
        path.loop.run()
        assert acks[-1].header["dp"] == 0

    def test_no_engine_means_no_dp_field(self):
        path = two_hosts(seed=4)
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1, deliver=lambda d: None, ack_interval=0
        )
        acks = []
        path.a.bind("alf", 1, acks.append)
        receiver.send_ack()
        path.loop.run()
        assert "dp" not in acks[-1].header

    def test_coalesced_ack_carries_latest_quantum(self):
        # A dispatch sends each flow's one ACK after its last row, so
        # the ACK is stamped with the quantum current then, not when the
        # first row delivered: pressure that built during the dispatch
        # is exactly what the sender needs to hear about.
        path, engine, receiver, acks = self.make_receiver()
        quanta = []

        def deliver(adu):
            quanta.append(engine.pressure_quantum)
            for _ in range(8):
                engine._observe_backlog(16)  # pressure builds mid-dispatch

        receiver.deliver = deliver
        wire = []
        origin = Host(path.loop, "a")
        origin.send = wire.extend  # capture the sender's packets
        sender = AlfSender(path.loop, origin, "b", 1)
        for sequence in range(2):
            sender.send_adu(Adu(sequence, octet_payload(100, seed=sequence)))
        path.b.receive_burst(wire)  # both rows queue before the epoch
        path.loop.run()
        assert engine.counters.dispatches == 1
        assert quanta[0] < PRESSURE_HIGH  # when the first row delivered
        assert len(acks) == 1
        assert acks[0].header["dp"] >= PRESSURE_HIGH
        assert acks[0].header["sack"]["cum"] == 2


class TestTopologyAndSessionWiring:
    def test_two_hosts_pacing_passthrough(self):
        path = two_hosts(pacing=True, rate=64_000.0, target_train=6)
        assert path.pacer is not None
        assert path.pacer.rate_bytes_per_s == 64_000.0
        assert path.pacer.target_train == 6
        assert two_hosts().pacer is None

    def test_session_initiator_builds_and_uses_a_pacer(self):
        path = two_hosts(seed=1, bandwidth_bps=50e6)
        delivered = []
        SessionListener(
            path.loop, path.b, {"ints": ArrayOf(Int32())},
            deliver=lambda fid, adu: delivered.append(adu),
            drain_engine=SharedDrainEngine(path.loop, max_delay=1e-3,
                                           adaptive=True),
        )
        initiator = SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name="ints"),
            {"ints": ArrayOf(Int32())},
            pacing=TrainPacer(path.loop, rate_bytes_per_s=2e6, target_train=4),
        )
        path.loop.run(until=5)
        assert initiator.established
        sender = initiator.session.sender
        assert sender.pacing is initiator.pacing
        payload = b"".join(
            int(i).to_bytes(4, "little") for i in range(64)
        )
        for i in range(6):
            sender.send_adu(Adu(i, payload, {"i": i}))
        sender.close()
        path.loop.run(until=30)
        assert len(delivered) == 6
        assert initiator.pacing.trains > 0

    def test_shard_snapshot_reports_pressure_quantum(self):
        from repro.net.shard import ShardedHost

        path = two_hosts(seed=1)
        sharded = ShardedHost(path.b, 2, adaptive=True, max_delay=1e-3)
        snap = sharded.snapshot()
        assert all(
            entry["pressure_quantum"] == 0 for entry in snap["per_shard"]
        )
        assert all(
            entry["engine"]["pressure_quantum"] == 0
            for entry in snap["per_shard"]
        )
