"""FEC integrated into the ALF transport (zero-RTT repair)."""

import random

import pytest

from repro.bench.workloads import octet_payload
from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.core.adu import Adu
from repro.errors import TransportError
from repro.machine.accounting import datapath_counters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.alf import sender as sender_module
from repro.transport.alf.fec import group_parity


def run(fec_group, loss_rate=0.06, n_adus=60, seed=11,
        recovery=RecoveryMode.NO_RETRANSMIT):
    path = two_hosts(seed=seed, loss_rate=loss_rate, bandwidth_bps=50e6)
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, d.payload),
        expected_adus=n_adus,
        ack_interval=0.0 if recovery is RecoveryMode.NO_RETRANSMIT else 0.05,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=500, recovery=recovery,
        fec_group=fec_group,
    )
    adus = [Adu(i, octet_payload(2234, seed=10 + i)) for i in range(n_adus)]
    for adu in adus:
        sender.send_adu(adu)
    sender.close()
    path.loop.run(until=120)
    return got, sender, receiver, adus


def test_fec_disabled_has_no_recoveries():
    got, _, receiver, _ = run(fec_group=None)
    assert receiver.fec_recoveries == 0


def test_fec_rescues_adus_without_retransmission():
    plain, _, _, _ = run(fec_group=None)
    fec, sender, receiver, adus = run(fec_group=4)
    assert sender.stats.retransmissions == 0
    assert receiver.fec_recoveries > 0
    assert len(fec) > len(plain)
    # Every recovered payload is byte-exact.
    assert all(fec[a.sequence] == a.payload for a in adus if a.sequence in fec)


def test_fec_no_loss_is_transparent():
    got, sender, receiver, adus = run(fec_group=4, loss_rate=0.0, n_adus=10)
    assert len(got) == 10
    assert receiver.fec_recoveries == 0
    assert all(got[a.sequence] == a.payload for a in adus)


def test_fec_costs_extra_units():
    _, plain_sender, _, _ = run(fec_group=None, loss_rate=0.0, n_adus=5)
    _, fec_sender, _, _ = run(fec_group=4, loss_rate=0.0, n_adus=5)
    assert fec_sender.stats.segments_sent > plain_sender.stats.segments_sent


def test_fec_composes_with_retransmission():
    """TRANSPORT_BUFFER + FEC: single losses repair instantly, double
    losses still repair by retransmission — everything arrives."""
    got, sender, receiver, adus = run(
        fec_group=4, loss_rate=0.08,
        recovery=RecoveryMode.TRANSPORT_BUFFER,
    )
    assert len(got) == 60
    assert all(got[a.sequence] == a.payload for a in adus)
    assert receiver.fec_recoveries > 0


def test_fec_group_validation():
    path = two_hosts()
    with pytest.raises(TransportError):
        AlfSender(path.loop, path.a, "b", 1, fec_group=0)


def test_single_fragment_adu_with_fec():
    got, _, receiver, adus = run(fec_group=4, loss_rate=0.0, n_adus=3)
    # ADU payload 2234 B at mtu 500 -> 5 fragments; also check a tiny one.
    path = two_hosts(seed=30)
    tiny = {}
    AlfReceiver(path.loop, path.b, "a", 2,
                deliver=lambda d: tiny.setdefault(d.sequence, d.payload))
    sender = AlfSender(path.loop, path.a, "b", 2, mtu=500, fec_group=4)
    sender.send_adu(Adu(0, b"small"))
    sender.close()
    path.loop.run(until=10)
    assert tiny[0] == b"small"


@pytest.mark.parametrize("lost", [None, 1])
def test_chain_adu_with_fec_is_delivered_byte_exact(lost):
    """A scatter-gather ADU's fragments are chain windows: parity XORs
    their byte images, and a lost data unit is rebuilt from them."""
    payload = octet_payload(3000, seed=7)
    path = two_hosts(seed=1)
    forward = path.b.receive
    dropped = []

    def drop_one(packet):
        header = packet.header
        if (
            not dropped
            and header["frag"] == lost
            and not header["fec"]["is_parity"]
        ):
            dropped.append(packet)
            return
        forward(packet)

    path.a_to_b.connect(drop_one)
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, bytes(d.payload)),
    )
    sender = AlfSender(path.loop, path.a, "b", 1, mtu=256, fec_group=4)
    chain = BufferChain.wrap(payload)
    sender.send_adu(Adu(0, chain, {}))
    sender.close()
    path.loop.run(until=5)
    receiver.close()
    assert got == {0: payload}
    assert len(dropped) == (0 if lost is None else 1)
    assert receiver.fec_recoveries == len(dropped)
    assert sender.stats.retransmissions == 0
    chain.release()  # the caller's reference is still its own


@pytest.mark.parametrize("seed", range(5))
def test_fec_repairs_phy_corruption_as_erasures(seed):
    """A unit the PHY flags as damaged is an erasure, so parity rebuilds
    it; the wire plan then verifies the recovered ADU.  Fed to the
    decoder, a damaged unit would be kept over its clean retransmission
    and its ADU abandoned."""
    path = two_hosts(seed=seed, corrupt_rate=0.05, bandwidth_bps=1e8)
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, d.payload),
        expected_adus=16,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=256, fec_group=4, max_attempts=8
    )
    adus = [Adu(i, octet_payload(2048, seed=100 * seed + i)) for i in range(16)]
    for adu in adus:
        sender.send_adu(adu)
    sender.close()
    path.loop.run(until=60)
    receiver.close()
    assert got == {adu.sequence: adu.payload for adu in adus}
    assert not sender.adus_abandoned
    assert receiver.fec_erasures > 0
    assert receiver.fec_recoveries > 0
    assert sender.stats.retransmissions == 0


def clean_pooled_run(fec_group, n_adus=8, loss_rate=0.0, seed=1):
    """``n_adus`` × 8 KiB ADUs at MTU 1024 into a receive pool; returns
    the receiver, sender, datapath ledger and pool after the run."""
    loop = EventLoop()
    pool = BufferPool(512, 1024, label="rx")
    a, b = Host(loop, "a"), Host(loop, "b", rx_pool=pool)
    forward = Link(loop, random.Random(seed), bandwidth_bps=1e8,
                   loss_rate=loss_rate)
    reverse = Link(loop, random.Random(seed + 1), bandwidth_bps=1e8)
    forward.connect(b.receive)
    reverse.connect(a.receive)
    a.add_link("b", forward)
    b.add_link("a", reverse)
    got = {}
    receiver = AlfReceiver(loop, b, "a", 1,
                           deliver=lambda d: got.setdefault(d.sequence, bytes(d.payload)))
    sender = AlfSender(loop, a, "b", 1, mtu=1024, fec_group=fec_group)
    rng = random.Random(seed)
    payloads = [rng.randbytes(8192) for _ in range(n_adus)]
    counters = datapath_counters()
    counters.reset()
    for sequence, payload in enumerate(payloads):
        sender.send_adu(Adu(sequence, payload, {"i": sequence}))
    sender.close()
    loop.run(until=30.0)
    ledger = counters.snapshot()
    counters.reset()
    receiver.close()
    assert got == dict(enumerate(payloads))
    assert loop.next_event_time() is None
    return receiver, sender, ledger, pool


@pytest.mark.parametrize("fec_group", [None, 4])
def test_intact_fec_adu_costs_what_a_plain_adu_costs(fec_group):
    """An intact FEC ADU takes the whole-ADU path: one chain over the
    pooled fragments, one copy at delivery, parity released unread, and
    a trailing parity unit is neither a duplicate nor re-ACKed."""
    receiver, _, ledger, pool = clean_pooled_run(fec_group)
    assert ledger["copies"] == 8
    assert ledger["bytes_copied"] == 8 * 8192
    assert ledger["copies_by_label"] == {"linearize": 8 * 8192}
    assert receiver.stats.acks_sent == 8
    assert receiver.stats.duplicates_discarded == 0
    assert receiver.fec_recoveries == 0
    assert pool.leak_report() == []


def test_parity_is_computed_once_per_adu_whatever_the_retransmissions(
    monkeypatch,
):
    calls = []

    def counted(pieces):
        calls.append(len(pieces))
        return group_parity(pieces)

    monkeypatch.setattr(sender_module, "group_parity", counted)
    receiver, sender, _, pool = clean_pooled_run(4, n_adus=32, loss_rate=0.08)
    assert sender.stats.retransmissions > 0
    assert receiver.fec_recoveries > 0
    assert calls == [4, 4] * 32  # two groups of four per ADU, once each
    assert pool.leak_report() == []
