"""Links: timing, loss, reordering, duplication — all deterministic."""

import gc
import weakref

import pytest

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams


def make_link(loop, **kwargs):
    rng = RngStreams(kwargs.pop("seed", 0)).stream("link")
    return Link(loop, rng, **kwargs)


def packet(n=0, size=960):
    return Packet(src="a", dst="b", protocol="t", flow_id=1,
                  header={"n": n}, payload=bytes(size))


def test_requires_receiver():
    loop = EventLoop()
    link = make_link(loop)
    with pytest.raises(NetworkError, match="no receiver"):
        link.send(packet())


def test_delivery_timing():
    """arrival = serialization + propagation."""
    loop = EventLoop()
    link = make_link(loop, bandwidth_bps=1e6, propagation_delay=0.5)
    arrivals = []
    link.connect(lambda p: arrivals.append(loop.now))
    link.send(packet(size=960))  # 1000B wire = 8000 bits = 8ms at 1 Mb/s
    loop.run()
    assert arrivals[0] == pytest.approx(0.008 + 0.5)


def test_serialization_queues_back_to_back():
    loop = EventLoop()
    link = make_link(loop, bandwidth_bps=1e6, propagation_delay=0.0)
    arrivals = []
    link.connect(lambda p: arrivals.append(loop.now))
    link.send(packet(0))
    link.send(packet(1))
    loop.run()
    assert arrivals[1] - arrivals[0] == pytest.approx(0.008)


def test_loss_is_statistical_and_counted():
    loop = EventLoop()
    link = make_link(loop, loss_rate=0.3, seed=5)
    got = []
    link.connect(got.append)
    for n in range(500):
        link.send(packet(n, size=10))
    loop.run()
    assert link.stats.lost + len(got) == 500
    assert 0.2 < link.stats.lost / 500 < 0.4


def test_zero_loss_delivers_everything():
    loop = EventLoop()
    link = make_link(loop)
    got = []
    link.connect(got.append)
    for n in range(100):
        link.send(packet(n, size=10))
    loop.run()
    assert len(got) == 100
    assert [p.header["n"] for p in got] == list(range(100))


def test_determinism_across_runs():
    def run(seed):
        loop = EventLoop()
        link = make_link(loop, loss_rate=0.2, seed=seed)
        got = []
        link.connect(lambda p: got.append(p.header["n"]))
        for n in range(100):
            link.send(packet(n, size=10))
        loop.run()
        return got

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_duplication():
    loop = EventLoop()
    link = make_link(loop, duplicate_rate=1.0, seed=1)
    got = []
    link.connect(got.append)
    link.send(packet(0, size=10))
    loop.run()
    assert len(got) == 2
    assert link.stats.duplicated == 1
    # The duplicate is a distinct packet object with a fresh id.
    assert got[0].packet_id != got[1].packet_id


def test_reordering_delays_marked_packets():
    loop = EventLoop()
    link = make_link(
        loop, reorder_rate=1.0, propagation_delay=0.01,
        reorder_extra_delay=5.0, seed=2,
    )
    got = []
    link.connect(lambda p: got.append(loop.now))
    link.send(packet(0, size=10))
    loop.run()
    assert got[0] > 0.05  # held well past one propagation delay
    assert link.stats.reordered == 1


def test_mtu_enforced():
    loop = EventLoop()
    link = make_link(loop, mtu=100)
    link.connect(lambda p: None)
    with pytest.raises(NetworkError, match="MTU"):
        link.send(packet(size=200))


def test_parameter_validation():
    loop = EventLoop()
    rng = RngStreams(0).stream("x")
    with pytest.raises(NetworkError):
        Link(loop, rng, bandwidth_bps=0)
    with pytest.raises(NetworkError):
        Link(loop, rng, loss_rate=1.5)
    with pytest.raises(NetworkError):
        Link(loop, rng, propagation_delay=-1)


def test_byte_counters():
    loop = EventLoop()
    link = make_link(loop)
    link.connect(lambda p: None)
    link.send(packet(size=60))  # 100 wire bytes with the 40B header
    loop.run()
    assert link.stats.bytes_sent == 100
    assert link.stats.bytes_delivered == 100


def test_delivered_trains_are_freed_without_the_cycle_collector():
    """A train (and the packets it holds) dies with its burst upcall: no
    reference cycle through its close event keeps it for the cyclic GC."""
    loop = EventLoop()
    link = make_link(loop, bandwidth_bps=1e9, propagation_delay=1e-3,
                     max_train=4, train_window=1e-3)
    bursts = []
    link.connect(lambda p: None, burst_receiver=lambda ps: bursts.append(len(ps)))
    gc.disable()
    try:
        link.send(packet(0))
        full = weakref.ref(link._open_train)
        for n in range(1, 4):
            link.send(packet(n))  # the fourth packet fills the train
        link.send(packet(4))
        windowed = weakref.ref(link._open_train)  # closes on its window
        # Past the full train's delivery, before either close timer fires.
        loop.run(until=1.5e-3)
        assert bursts == [4]
        assert full() is None
        loop.run()
        assert bursts == [4, 1]
        assert windowed() is None
    finally:
        gc.enable()
