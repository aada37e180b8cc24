"""Packet trains: link aggregation, burst handoff, adaptive epochs."""

from __future__ import annotations

import random

import pytest

from repro.buffers.pool import BufferPool
from repro.errors import NetworkError, TransportError
from repro.machine.accounting import ShardCounters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost
from repro.net.switch import StoreAndForwardSwitch
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.transport.alf.receiver import PROTOCOL
from repro.transport.drain import ADAPTIVE_BOOST, SharedDrainEngine

from tests.test_net_shard import adu_packets, adu_payload, bind_flow, make_sharded


def packet(dst="b", protocol="t", flow=1, n=0, size=100):
    return Packet(src="a", dst=dst, protocol=protocol, flow_id=flow,
                  header={"n": n}, payload=random.Random(n).randbytes(size))


class BurstSink:
    """A receiver that records whether delivery came as trains or singles."""

    def __init__(self):
        self.trains: list[list[Packet]] = []
        self.singles: list[Packet] = []

    def receive(self, pkt: Packet) -> None:
        self.singles.append(pkt)

    def receive_burst(self, packets: list[Packet]) -> None:
        self.trains.append(list(packets))

    @property
    def delivered(self) -> list[Packet]:
        every = list(self.singles)
        for train in self.trains:
            every.extend(train)
        return every


def make_link(sink, max_train=4, train_window=1e-3, **kwargs):
    loop = EventLoop()
    link = Link(
        loop,
        random.Random(7),
        bandwidth_bps=1e9,
        propagation_delay=1e-3,
        max_train=max_train,
        train_window=train_window,
        **kwargs,
    )
    link.connect(sink.receive)
    return loop, link


class TestLinkTrains:
    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(NetworkError):
            Link(loop, random.Random(0), max_train=0)
        with pytest.raises(NetworkError):
            Link(loop, random.Random(0), train_window=-1.0)

    def test_full_train_delivers_as_one_burst(self):
        sink = BurstSink()
        loop, link = make_link(sink, max_train=4)
        for n in range(5):
            link.send(packet(n=n))
        loop.run()
        # Four fill the first train; the fifth opens (and closes) its own.
        assert [len(t) for t in sink.trains] == [4, 1]
        assert sink.singles == []
        assert [p.header["n"] for p in sink.delivered] == [0, 1, 2, 3, 4]
        assert link.stats.trains == 2
        assert link.stats.train_packets == 5
        assert link.stats.delivered == 5

    def test_window_close_delivers_partial_train(self):
        sink = BurstSink()
        loop, link = make_link(sink, max_train=100)
        for n in range(3):
            link.send(packet(n=n))
        loop.run()  # window expires: the train leaves with 3 aboard
        for n in range(3, 5):
            link.send(packet(n=n))
        loop.run()
        assert [len(t) for t in sink.trains] == [3, 2]

    def test_connect_auto_detects_burst_receiver(self):
        sink = BurstSink()
        loop, link = make_link(sink)
        assert link._burst_receiver == sink.receive_burst

    def test_trains_fall_back_to_singles_without_burst_entry(self):
        got = []
        loop = EventLoop()
        link = Link(loop, random.Random(7), max_train=4, train_window=1e-3)
        link.connect(got.append)  # plain callable: no burst upcall
        for n in range(4):
            link.send(packet(n=n))
        loop.run()
        assert [p.header["n"] for p in got] == [0, 1, 2, 3]
        assert link.stats.trains == 1  # aggregation still happened

    def test_reordered_packets_leave_the_train(self):
        sink = BurstSink()
        loop, link = make_link(sink, reorder_rate=1.0)
        for n in range(4):
            link.send(packet(n=n))
        loop.run()
        assert sink.trains == []
        assert len(sink.singles) == 4
        assert link.stats.reordered == 4
        assert link.stats.trains == 0

    def test_duplicates_ride_alone(self):
        sink = BurstSink()
        loop, link = make_link(sink, duplicate_rate=1.0)
        for n in range(3):
            link.send(packet(n=n))
        loop.run()
        # Originals aggregate; each duplicate arrives later, by itself.
        assert [len(t) for t in sink.trains] == [3]
        assert len(sink.singles) == 3
        assert link.stats.duplicated == 3

    def test_train_mode_is_byte_identical_to_packet_mode(self):
        def run(max_train):
            sink = BurstSink()
            loop = EventLoop()
            link = Link(
                loop,
                random.Random(99),
                bandwidth_bps=1e9,
                propagation_delay=1e-3,
                loss_rate=0.2,
                corrupt_rate=0.2,
                duplicate_rate=0.1,
                reorder_rate=0.1,
                max_train=max_train,
                train_window=1e-3,
            )
            link.connect(sink.receive)
            for n in range(60):
                link.send(packet(n=n))
            loop.run()
            return sink, link

        packet_sink, packet_link = run(max_train=1)
        train_sink, train_link = run(max_train=8)
        # The failure draws happen in send(), in the same order, so the
        # two modes lose/corrupt/duplicate the exact same packets.
        for attr in ("sent", "lost", "corrupted", "duplicated", "reordered"):
            assert getattr(train_link.stats, attr) == getattr(
                packet_link.stats, attr
            )

        def fingerprint(sink):
            return sorted(
                (p.header["n"], bytes(p.payload)) for p in sink.delivered
            )

        assert fingerprint(train_sink) == fingerprint(packet_sink)


class TestHostBurstPoisoned:
    def test_burst_continues_past_poisoned_middle_packet(self):
        loop = EventLoop()
        pool = BufferPool(8, 256, label="rx")
        host = Host(loop, "h", rx_pool=pool)
        got = []
        host.bind("t", 1, got.append)
        train = [
            packet(flow=1, n=0, size=200),
            packet(flow=9, n=1, size=200),  # poisoned: no handler bound
            packet(flow=1, n=2, size=200),
        ]
        host.receive_burst(train)
        # The burst keeps flowing past the undeliverable packet.
        assert [p.header["n"] for p in got] == [0, 2]
        assert host.undeliverable == 1
        assert host.received == 3
        for delivered in got:
            delivered.payload.release()
        assert pool.snapshot()["in_use"] == 0
        assert pool.leak_report() == []

    def test_poisoned_packet_releases_wire_chain(self):
        loop = EventLoop()
        pool = BufferPool(8, 256, label="rx")
        host = Host(loop, "h", rx_pool=pool)
        got = []
        host.bind("t", 1, got.append)
        poisoned = packet(flow=9, n=1, size=0)
        # The wire already handed this packet a DMA chain; the host must
        # release it even though no handler will ever see the packet.
        poisoned.payload = pool.dma_chain(bytes(200))
        host.receive_burst(
            [packet(flow=1, n=0, size=0), poisoned, packet(flow=1, n=2, size=0)]
        )
        assert [p.header["n"] for p in got] == [0, 2]
        assert pool.snapshot()["in_use"] == 0
        assert pool.leak_report() == []

    def test_memo_not_poisoned_by_undeliverable_flow(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind("t", 1, got.append)
        host.receive_burst([packet(flow=9, n=0), packet(flow=9, n=1)])
        assert host.undeliverable == 2
        # An undeliverable flow never lands in the memo; a later binding
        # resolves freshly.
        host.bind("t", 9, got.append)
        host.receive_burst([packet(flow=9, n=2)])
        assert [p.header["n"] for p in got] == [2]


class TestSwitchBurst:
    def make(self):
        loop = EventLoop()
        switch = StoreAndForwardSwitch(loop, queue_capacity=64)
        out = Link(loop, RngStreams(0).stream("out"), bandwidth_bps=1e9,
                   propagation_delay=1e-3)
        got = []
        out.connect(got.append)
        switch.attach("portb", out)
        switch.add_route("b", "portb")
        return loop, switch, got

    def test_burst_forwards_with_route_memo(self):
        loop, switch, got = self.make()
        switch.receive_burst([packet(dst="b", n=n) for n in range(5)])
        loop.run()
        assert [p.header["n"] for p in got] == [0, 1, 2, 3, 4]
        assert switch.bursts == 1

    def test_burst_drops_unroutable_and_continues(self):
        loop, switch, got = self.make()
        train = [packet(dst="b", n=0), packet(dst="nowhere", n=1),
                 packet(dst="b", n=2)]
        switch.receive_burst(train)
        loop.run()
        assert [p.header["n"] for p in got] == [0, 2]
        assert switch.drops == 1

    def test_route_change_invalidates_memo(self):
        loop, switch, got = self.make()
        switch.receive(packet(dst="b", n=0))
        switch.add_route("c", "portb")
        switch.receive(packet(dst="c", n=1))
        switch.remove_route("b")  # takes effect on the next packet
        switch.receive(packet(dst="b", n=2))
        loop.run()
        assert [p.header["n"] for p in got] == [0, 1]
        assert switch.stats.no_route_drops == 1


class TestAdaptiveEpochs:
    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(TransportError):
            SharedDrainEngine(loop, ramp_rows=0)

    def test_non_adaptive_effective_values_are_configured_values(self):
        loop = EventLoop()
        engine = SharedDrainEngine(loop, max_rows=64, max_delay=1e-3)
        assert engine.effective_max_rows == 64
        assert engine.effective_max_delay == 1e-3

    def test_idle_adaptive_engine_flushes_immediately(self):
        loop = EventLoop()
        engine = SharedDrainEngine(
            loop, max_rows=64, max_delay=1e-3, adaptive=True
        )
        assert engine.effective_max_delay == 0.0
        assert engine.effective_max_rows == 4  # the 1/16th floor

    def test_backlog_deepens_epochs_past_configured_delay(self):
        loop = EventLoop()
        engine = SharedDrainEngine(
            loop, max_rows=64, max_delay=1e-3, adaptive=True, ramp_rows=16
        )
        for _ in range(8):
            engine._observe_backlog(64)
        assert engine.backlog_ewma > 16
        # Sustained pressure stretches the window past max_delay ...
        assert engine.effective_max_delay > engine.max_delay
        # ... but never past the boost ceiling.
        assert engine.effective_max_delay <= (
            ADAPTIVE_BOOST * engine.max_delay
        )
        assert engine.effective_max_rows == 64

    def test_silence_decays_pressure_back_to_immediate(self):
        loop = EventLoop()
        engine = SharedDrainEngine(
            loop, max_rows=64, max_delay=1e-3, adaptive=True
        )
        for _ in range(8):
            engine._observe_backlog(64)
        loop.run(until=loop.now + 20e-3)  # 20 half-lives of silence
        assert engine.backlog_ewma < 1.0
        assert engine.effective_max_delay == 0.0

    def test_snapshot_reports_adaptive_state(self):
        loop = EventLoop()
        engine = SharedDrainEngine(loop, max_rows=32, adaptive=True)
        snap = engine.snapshot()
        assert snap["adaptive"] is True
        assert "backlog_ewma" in snap
        assert "effective_max_rows" in snap
        fixed = SharedDrainEngine(loop, max_rows=32).snapshot()
        assert fixed["adaptive"] is False
        assert "backlog_ewma" not in fixed


class TestShardedTrainDemux:
    def test_one_probe_per_flow_run(self):
        path, sharded, counters = make_sharded()
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, 3, delivered)
        bind_flow(sharded, 5, delivered)
        train = adu_packets(3, [adu_payload(1), adu_payload(2)]) + adu_packets(
            5, [adu_payload(3)]
        )
        sharded.receive_burst(train)
        sharded.drain()
        snap = counters.snapshot()
        assert snap["demux_runs"] == 2  # one probe per flow-run
        assert snap["probes_saved"] == 1  # the second flow-3 packet
        assert snap["packets"] == 3
        assert snap["train_packets"] == 3
        assert snap["train_len_hist"] == {4: 1}  # 3 rides the <=4 bucket
        assert delivered[3] and delivered[5]

    def test_one_burst_per_shard_even_interleaved(self):
        path, sharded, counters = make_sharded()
        delivered: dict[int, list[bytes]] = {}
        flow_a = 0
        flow_b = next(
            fid
            for fid in range(1, 64)
            if sharded.shard_for(PROTOCOL, fid)
            is not sharded.shard_for(PROTOCOL, flow_a)
        )
        bind_flow(sharded, flow_a, delivered)
        bind_flow(sharded, flow_b, delivered)
        a = adu_packets(flow_a, [adu_payload(1), adu_payload(2)])
        b = adu_packets(flow_b, [adu_payload(3), adu_payload(4)])
        # Fully interleaved: a, b, a, b — worst case for run grouping,
        # but still exactly one burst (and one service) per shard.
        train = [a[0], b[0], a[1], b[1]]
        sharded.receive_burst(train)
        sharded.drain()
        snap = counters.snapshot()
        assert snap["worker_services"] == 2
        assert snap["demux_runs"] == 4  # four runs of one packet each
        assert delivered[flow_a] and delivered[flow_b]

    def test_serial_adaptive_delivers_everything(self):
        path, sharded, counters = make_sharded(adaptive=True, max_delay=1e-4)
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, 7, delivered)
        payloads = [adu_payload(70 + i) for i in range(8)]
        sharded.receive_burst(adu_packets(7, payloads))
        sharded.drain(until=path.loop.now + 1.0)
        assert delivered[7] == payloads


class TestLinkToShardIntegration:
    def test_train_link_lands_whole_trains_on_the_front(self):
        path = two_hosts(seed=5, max_train=8, train_window=1e-3)
        counters = ShardCounters()
        sharded = ShardedHost(path.b, 4, counters=counters)
        sharded.attach_link(path.a_to_b)
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, 3, delivered)
        payloads = [adu_payload(10 + i) for i in range(8)]
        for pkt in adu_packets(3, payloads):
            path.a.send(pkt)
        path.loop.run()
        sharded.drain()
        assert delivered[3] == payloads
        snap = counters.snapshot()
        # The link aggregated; the front demuxed runs, not packets.
        assert snap["demux_runs"] < snap["packets"]
        assert snap["probes_saved"] > 0

    def test_unclaimed_protocol_in_train_falls_back_to_front(self):
        path = two_hosts(seed=5, max_train=8, train_window=1e-3)
        sharded = ShardedHost(path.b, 2, counters=ShardCounters())
        sharded.attach_link(path.a_to_b)
        other = []
        path.b.bind("mgmt", 1, other.append)
        delivered: dict[int, list[bytes]] = {}
        bind_flow(sharded, 3, delivered)
        payloads = [adu_payload(20)]
        for pkt in adu_packets(3, payloads):
            path.a.send(pkt)
        path.a.send(Packet(src="a", dst="b", protocol="mgmt", flow_id=1,
                           header={}, payload=b"ping"))
        path.loop.run()
        sharded.drain()
        assert delivered[3] == payloads
        assert len(other) == 1  # the mgmt packet took the front's demux
