"""Integration: multiple flows, shared switches, windows, and seeds.

These tests drive several subsystems together the way the paper's
"future networks" section imagines — competing flows over shared
switching with finite queues — and sweep failure-mode seeds for the
data-integrity invariants.
"""

import pytest

from repro.bench.workloads import file_payload, octet_payload
from repro.core.adu import Adu
from repro.net.topology import hosts_via_switch, two_hosts
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.tcpstyle import TcpStyleReceiver, TcpStyleSender


class TestCompetingTcpFlows:
    def test_two_flows_share_a_switch_and_both_finish(self):
        net = hosts_via_switch(["s1", "s2", "dst"], queue_capacity=16,
                               bandwidth_bps=10e6)
        payload = file_payload(80_000, seed=5)
        received = {1: bytearray(), 2: bytearray()}
        finished = []
        for flow in (1, 2):
            TcpStyleReceiver(
                net.loop, net.hosts["dst"], f"s{flow}", flow,
                deliver=received[flow].extend,
            )
        senders = []
        for flow in (1, 2):
            sender = TcpStyleSender(
                net.loop, net.hosts[f"s{flow}"], "dst", flow,
                on_complete=lambda f=flow: finished.append(f),
            )
            sender.send(payload)
            sender.close()
            senders.append(sender)
        net.loop.run(until=300)
        assert sorted(finished) == [1, 2]
        assert bytes(received[1]) == payload
        assert bytes(received[2]) == payload

    def test_congestion_loss_at_the_switch_is_recovered(self):
        """Two senders converge on one downlink with a tiny queue: the
        switch drops, AIMD plus retransmission repairs."""
        net = hosts_via_switch(["s1", "s2", "dst"], queue_capacity=4,
                               bandwidth_bps=5e6)
        payload = file_payload(60_000, seed=6)
        received = {1: bytearray(), 2: bytearray()}
        senders = []
        for flow in (1, 2):
            TcpStyleReceiver(
                net.loop, net.hosts["dst"], f"s{flow}", flow,
                deliver=received[flow].extend,
            )
            sender = TcpStyleSender(
                net.loop, net.hosts[f"s{flow}"], "dst", flow
            )
            sender.send(payload)
            sender.close()
            senders.append(sender)
        net.loop.run(until=600)
        assert bytes(received[1]) == payload
        assert bytes(received[2]) == payload
        assert net.switch.drops > 0
        assert sum(s.stats.retransmissions for s in senders) > 0


class TestAlfWindow:
    def test_window_limits_outstanding(self):
        path = two_hosts(seed=7, bandwidth_bps=5e6)
        AlfReceiver(path.loop, path.b, "a", 1, deliver=lambda d: None)
        sender = AlfSender(path.loop, path.a, "b", 1, max_outstanding=4)
        for index in range(20):
            sender.send_adu(Adu(index, octet_payload(2000, seed=index)))
        assert sender.outstanding_count <= 4
        assert sender.queued_count == 16
        sender.close()
        path.loop.run(until=60)
        assert sender.queued_count == 0
        assert sender.outstanding_count == 0

    def test_windowed_transfer_completes_under_loss(self):
        path = two_hosts(seed=8, loss_rate=0.05, bandwidth_bps=20e6)
        got = {}
        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: got.setdefault(d.sequence, d.payload),
            expected_adus=30,
        )
        finished = []
        sender = AlfSender(
            path.loop, path.a, "b", 1, max_outstanding=4,
            on_complete=lambda: finished.append(path.loop.now),
        )
        adus = [Adu(i, octet_payload(2000, seed=100 + i)) for i in range(30)]
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=120)
        assert finished
        assert len(got) == 30
        assert all(got[a.sequence] == a.payload for a in adus)

    def test_window_bounds_retransmit_buffer(self):
        """The window is also a memory bound: at most W ADUs buffered."""
        path = two_hosts(seed=9, bandwidth_bps=1e6)
        sender = AlfSender(path.loop, path.a, "b", 1, max_outstanding=2)
        for index in range(10):
            sender.send_adu(Adu(index, bytes(1000)))
        assert sender.buffered_bytes <= 2 * 1000

    def test_validation(self):
        from repro.errors import TransportError

        path = two_hosts()
        with pytest.raises(TransportError):
            AlfSender(path.loop, path.a, "b", 1, max_outstanding=0)


class TestSeedSweep:
    """Data integrity holds across seeds and failure modes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_tcp_integrity(self, seed):
        path = two_hosts(seed=seed, loss_rate=0.04, reorder_rate=0.04,
                         duplicate_rate=0.04, bandwidth_bps=50e6)
        payload = file_payload(30_000, seed=seed)
        received = bytearray()
        TcpStyleReceiver(path.loop, path.b, "a", 1, deliver=received.extend)
        sender = TcpStyleSender(path.loop, path.a, "b", 1)
        sender.send(payload)
        sender.close()
        path.loop.run(until=120)
        assert bytes(received) == payload

    @pytest.mark.parametrize("seed", range(5))
    def test_alf_integrity(self, seed):
        path = two_hosts(seed=seed, loss_rate=0.04, reorder_rate=0.04,
                         duplicate_rate=0.04, bandwidth_bps=50e6)
        got = {}
        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: got.setdefault(d.sequence, d.payload),
            expected_adus=15,
        )
        sender = AlfSender(path.loop, path.a, "b", 1)
        adus = [
            Adu(i, octet_payload(3000, seed=1000 * seed + i))
            for i in range(15)
        ]
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=120)
        assert len(got) == 15
        assert all(got[a.sequence] == a.payload for a in adus)


class TestMetricsIntegration:
    def test_sampling_a_live_transfer(self):
        path = two_hosts(seed=10, loss_rate=0.03, bandwidth_bps=20e6)
        received = bytearray()
        receiver = TcpStyleReceiver(
            path.loop, path.b, "a", 1, deliver=received.extend
        )
        sender = TcpStyleSender(path.loop, path.a, "b", 1)
        blocked, inflight = [], []

        def probe():
            blocked.append(receiver.blocked_bytes)
            inflight.append(sender.unacked_bytes)
            if path.loop.now < 0.5:
                path.loop.schedule(0.005, probe)

        path.loop.schedule(0.0, probe)
        payload = file_payload(100_000, seed=10)
        sender.send(payload)
        sender.close()
        path.loop.run(until=120)
        assert bytes(received) == payload
        assert max(inflight) > 0
        assert max(blocked) > 0  # the stall, caught in the act
