"""Corruption in flight and real path-diversity reordering.

Corruption exercises the paper's end-to-end argument directly: the
network *delivers* damaged data; only the transports' error-detection
manipulations notice.
"""

import pytest

from repro.bench.workloads import file_payload, octet_payload
from repro.core.adu import Adu
from repro.net.packet import Packet
from repro.net.topology import two_hosts, two_hosts_dual_path
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.tcpstyle import TcpStyleReceiver, TcpStyleSender


class TestCorruption:
    def test_corrupted_bytes_are_delivered_not_dropped(self):
        path = two_hosts(seed=1, corrupt_rate=1.0)
        got = []
        path.b.bind("t", 1, lambda p: got.append(p.payload))
        path.a.send(Packet(src="a", dst="b", protocol="t", flow_id=1,
                           payload=bytes(32)))
        path.loop.run()
        assert len(got) == 1
        assert got[0] != bytes(32)  # damaged...
        assert len(got[0]) == 32    # ...but delivered
        assert path.a_to_b.stats.corrupted == 1

    def test_single_bit_flip_only(self):
        path = two_hosts(seed=2, corrupt_rate=1.0)
        got = []
        path.b.bind("t", 1, lambda p: got.append(p.payload))
        original = octet_payload(64, seed=3)
        path.a.send(Packet(src="a", dst="b", protocol="t", flow_id=1,
                           payload=original))
        path.loop.run()
        differing_bits = sum(
            bin(a ^ b).count("1") for a, b in zip(original, got[0])
        )
        assert differing_bits == 1

    def test_empty_payload_never_corrupted(self):
        path = two_hosts(seed=3, corrupt_rate=1.0)
        got = []
        path.b.bind("t", 1, lambda p: got.append(p.payload))
        path.a.send(Packet(src="a", dst="b", protocol="t", flow_id=1))
        path.loop.run()
        assert got == [b""]
        assert path.a_to_b.stats.corrupted == 0

    def test_tcp_checksum_catches_and_recovers(self):
        path = two_hosts(seed=4, corrupt_rate=0.05, bandwidth_bps=50e6)
        payload = file_payload(60_000, seed=4)
        received = bytearray()
        receiver = TcpStyleReceiver(
            path.loop, path.b, "a", 1, deliver=received.extend
        )
        sender = TcpStyleSender(path.loop, path.a, "b", 1)
        sender.send(payload)
        sender.close()
        path.loop.run(until=300)
        assert bytes(received) == payload  # exactly, despite bit flips
        assert receiver.stats.checksum_failures > 0
        assert sender.stats.retransmissions > 0

    def test_alf_adu_checksum_catches_and_recovers(self):
        path = two_hosts(seed=5, corrupt_rate=0.05, bandwidth_bps=50e6)
        got = {}
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: got.setdefault(d.sequence, d.payload),
            expected_adus=20,
        )
        sender = AlfSender(path.loop, path.a, "b", 1)
        adus = [Adu(i, octet_payload(3000, seed=50 + i)) for i in range(20)]
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=120)
        assert len(got) == 20
        assert all(got[a.sequence] == a.payload for a in adus)
        assert receiver.stats.checksum_failures > 0

    def test_rate_validation(self):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            two_hosts(corrupt_rate=1.5)


class TestDualPath:
    def test_spraying_reorders_mechanically(self):
        dual = two_hosts_dual_path(seed=1)
        order = []
        dual.b.bind("t", 1, lambda p: order.append(p.header["n"]))
        for n in range(10):
            dual.a.send(Packet(src="a", dst="b", protocol="t", flow_id=1,
                               header={"n": n}, payload=bytes(100)))
        dual.loop.run()
        assert sorted(order) == list(range(10))
        assert order != list(range(10))  # genuinely reordered

    def test_both_paths_carry_traffic(self):
        dual = two_hosts_dual_path(seed=2)
        dual.b.bind("t", 1, lambda p: None)
        for n in range(8):
            dual.a.send(Packet(src="a", dst="b", protocol="t", flow_id=1,
                               payload=bytes(10)))
        dual.loop.run()
        assert dual.fast.stats.sent == 4
        assert dual.slow.stats.sent == 4

    def test_alf_absorbs_path_reordering(self):
        """Out-of-order fragments from path diversity reassemble fine,
        and whole ADUs complete out of order without retransmission."""
        dual = two_hosts_dual_path(seed=3, bandwidth_bps=50e6)
        got = {}
        receiver = AlfReceiver(
            dual.loop, dual.b, "a", 1,
            deliver=lambda d: got.setdefault(d.sequence, d.payload),
            expected_adus=12,
        )
        sender = AlfSender(dual.loop, dual.a, "b", 1, mtu=800)
        adus = [Adu(i, octet_payload(2400, seed=80 + i)) for i in range(12)]
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        dual.loop.run(until=60)
        assert len(got) == 12
        assert all(got[a.sequence] == a.payload for a in adus)
        assert sender.stats.retransmissions == 0  # reordering != loss

    def test_an_adu_run_is_sprayed_fragment_by_fragment(self):
        """The sender hands a whole ADU over as one run; the sprayer
        still alternates paths per packet, not per run."""
        dual = two_hosts_dual_path(seed=5, bandwidth_bps=50e6)
        got = {}
        AlfReceiver(dual.loop, dual.b, "a", 1,
                    deliver=lambda d: got.setdefault(d.sequence, d.payload),
                    expected_adus=1)
        sender = AlfSender(dual.loop, dual.a, "b", 1, mtu=800)
        adu = Adu(0, octet_payload(3200, seed=90))
        sender.send_adu(adu)
        assert dual.fast.stats.sent == dual.slow.stats.sent == 2
        dual.loop.run(until=10)
        assert got == {0: adu.payload}

    def test_tcp_survives_path_reordering(self):
        dual = two_hosts_dual_path(seed=4, bandwidth_bps=50e6)
        payload = file_payload(50_000, seed=6)
        received = bytearray()
        TcpStyleReceiver(dual.loop, dual.b, "a", 1, deliver=received.extend)
        sender = TcpStyleSender(dual.loop, dual.a, "b", 1)
        sender.send(payload)
        sender.close()
        dual.loop.run(until=300)
        assert bytes(received) == payload
