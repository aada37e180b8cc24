"""Switch and host: routing, queue drops, demultiplexing."""

import pytest

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import HEADER_OVERHEAD_BYTES, Packet
from repro.net.switch import StoreAndForwardSwitch
from repro.net.topology import hosts_via_switch, two_hosts
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams


def packet(dst="b", protocol="t", flow=1, n=0, size=100):
    return Packet(src="a", dst=dst, protocol=protocol, flow_id=flow,
                  header={"n": n}, payload=bytes(size))


class TestPacket:
    def test_wire_size(self):
        p = packet(size=100)
        assert p.wire_size == HEADER_OVERHEAD_BYTES + 100

    def test_ids_unique(self):
        assert packet().packet_id != packet().packet_id

    def test_copy_is_independent(self):
        p = packet()
        q = p.copy()
        q.header["n"] = 99
        assert p.header["n"] == 0
        assert q.packet_id != p.packet_id

    def test_negative_overhead_rejected(self):
        with pytest.raises(NetworkError):
            Packet("a", "b", "t", 1, header_overhead=-1)


class TestHost:
    def test_flow_dispatch(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind("t", 1, got.append)
        host.receive(packet(flow=1))
        host.receive(packet(flow=2))  # unbound
        assert len(got) == 1
        assert host.undeliverable == 1

    def test_protocol_fallback(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind_protocol("t", got.append)
        host.receive(packet(flow=77))
        assert len(got) == 1

    def test_double_bind_rejected(self):
        loop = EventLoop()
        host = Host(loop, "h")
        host.bind("t", 1, lambda p: None)
        with pytest.raises(NetworkError):
            host.bind("t", 1, lambda p: None)

    def test_unbind(self):
        loop = EventLoop()
        host = Host(loop, "h")
        host.bind("t", 1, lambda p: None)
        host.unbind("t", 1)
        host.receive(packet(flow=1))
        assert host.undeliverable == 1

    def test_unbind_protocol(self):
        loop = EventLoop()
        host = Host(loop, "h")
        host.bind_protocol("t", lambda p: None)
        host.unbind_protocol("t")
        host.receive(packet(flow=3))
        assert host.undeliverable == 1
        host.unbind_protocol("t")  # idempotent
        # The slot is free again: a fresh listener can bind.
        got = []
        host.bind_protocol("t", got.append)
        host.receive(packet(flow=3))
        assert len(got) == 1

    def test_undeliverable_releases_dma_chain(self):
        from repro.buffers import BufferPool

        loop = EventLoop()
        pool = BufferPool(8, 256, label="rx")
        host = Host(loop, "h", rx_pool=pool)
        host.bind_protocol("t", lambda p: None)
        host.unbind_protocol("t")
        for n in range(3):
            host.receive(packet(flow=n, size=200))
        assert host.undeliverable == 3
        # The DMA'd payload chains went back to the pool, not leaked.
        assert pool.snapshot()["in_use"] == 0
        assert pool.leak_report() == []

    def test_hot_flow_memo_counts_back_to_back_packets(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind("t", 1, got.append)
        host.bind("t", 2, got.append)
        for flow in (1, 1, 1, 2, 2, 1):
            host.receive(packet(flow=flow))
        # Runs of the same flow resolve the handler once: 3 of the 6
        # packets ride the memo (the second and third 1s, the second 2).
        assert len(got) == 6
        assert host.demux_memo_hits == 3

    def test_memo_invalidated_by_binding_changes(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind("t", 1, got.append)
        host.receive(packet(flow=1))
        host.unbind("t", 1)
        # The memoized handler must not outlive its binding.
        host.receive(packet(flow=1))
        assert host.undeliverable == 1
        assert host.demux_memo_hits == 0

    def test_receive_burst_delivers_in_order(self):
        loop = EventLoop()
        host = Host(loop, "h")
        got = []
        host.bind("t", 1, got.append)
        host.bind("t", 2, got.append)
        train = [packet(flow=1, n=i) for i in range(4)] + [packet(flow=2, n=9)]
        host.receive_burst(train)
        assert [p.header["n"] for p in got] == [0, 1, 2, 3, 9]
        assert host.bursts == 1
        assert host.demux_memo_hits == 3

    def test_send_requires_link(self):
        loop = EventLoop()
        host = Host(loop, "h")
        with pytest.raises(NetworkError, match="no link"):
            host.send(packet())

    def test_send_stamps_source(self):
        path = two_hosts()
        got = []
        path.b.bind("t", 1, got.append)
        outgoing = packet()
        outgoing.src = "wrong"
        path.a.send(outgoing)
        path.loop.run()
        assert got[0].src == "a"

    def test_a_run_reaches_the_link_in_one_call_through_an_uplink(self):
        """A worker host with no link of its own passes a run to its
        uplink, which stamps every packet and hands the link one call."""
        path = two_hosts()
        worker = Host(path.loop, "a", uplink=path.a)
        got, calls = [], []
        path.b.bind("t", 1, got.append)
        send = path.a_to_b.send
        path.a_to_b.send = lambda run: (calls.append(len(run)), send(run))
        run = [packet(n=n) for n in range(3)]
        for outgoing in run:
            outgoing.src = "wrong"
        worker.send(run)
        worker.send(packet(n=3))
        path.loop.run()
        assert calls == [3, 1]
        assert [(p.src, p.header["n"]) for p in got] == [("a", n) for n in range(4)]
        assert path.a_to_b.stats.sent == 4


class TestSwitch:
    def make(self, capacity=4):
        loop = EventLoop()
        rng = RngStreams(0)
        switch = StoreAndForwardSwitch(loop, queue_capacity=capacity)
        out = Link(loop, rng.stream("out"), bandwidth_bps=1e6,
                   propagation_delay=0.001)
        got = []
        out.connect(got.append)
        switch.attach("portb", out)
        switch.add_route("b", "portb")
        return loop, switch, got

    def test_forwards_by_destination(self):
        loop, switch, got = self.make()
        switch.receive(packet(dst="b"))
        loop.run()
        assert len(got) == 1
        assert switch.forwarded == 1

    def test_no_route_drops(self):
        loop, switch, got = self.make()
        switch.receive(packet(dst="nowhere"))
        loop.run()
        assert got == []
        assert switch.drops == 1

    def test_queue_overflow_drops(self):
        loop, switch, got = self.make(capacity=2)
        for n in range(10):
            switch.receive(packet(n=n))
        loop.run()
        # Transmission starts after forwarding_delay, so at most
        # capacity packets were queued; the rest dropped.
        assert switch.drops >= 7
        assert len(got) + switch.drops == 10

    def test_queue_depth(self):
        loop, switch, got = self.make(capacity=8)
        for n in range(3):
            switch.receive(packet(n=n))
        assert switch.queue_depth("portb") == 3
        with pytest.raises(NetworkError):
            switch.queue_depth("nope")

    def test_attach_validation(self):
        loop, switch, got = self.make()
        with pytest.raises(NetworkError):
            switch.add_route("c", "missing-port")

    def test_remove_route_stops_forwarding(self):
        loop, switch, got = self.make()
        switch.receive(packet(dst="b"))
        loop.run()
        assert len(got) == 1
        assert switch.remove_route("b")
        switch.receive(packet(dst="b"))
        loop.run()
        assert len(got) == 1
        assert switch.stats.no_route_drops == 1
        assert not switch.remove_route("b")  # already gone

    def test_remove_route_invalidates_hot_memo(self):
        # Regression: back-to-back packets to one destination, then a
        # removal — the very next "b" packet must drop, not forward
        # through the dead route.
        loop, switch, got = self.make()
        switch.receive(packet(dst="b"))
        switch.receive(packet(dst="b"))
        loop.run()
        assert len(got) == 2
        switch.remove_route("b")
        switch.receive(packet(dst="b"))
        loop.run()
        assert len(got) == 2
        assert switch.stats.no_route_drops == 1


class TestTopology:
    def test_two_hosts_duplex(self):
        path = two_hosts()
        got_b, got_a = [], []
        path.b.bind("t", 1, got_b.append)
        path.a.bind("t", 1, got_a.append)
        path.a.send(packet(dst="b"))
        reply = Packet(src="b", dst="a", protocol="t", flow_id=1)
        path.b.send(reply)
        path.loop.run()
        assert len(got_b) == 1 and len(got_a) == 1

    def test_star_topology_routes_all_pairs(self):
        net = hosts_via_switch(["x", "y", "z"])
        got = []
        net.hosts["z"].bind("t", 1, got.append)
        outgoing = Packet(src="x", dst="z", protocol="t", flow_id=1)
        net.hosts["x"].send(outgoing)
        net.loop.run()
        assert len(got) == 1
