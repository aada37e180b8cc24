"""The sender's duplicate check stays bounded over a long flow.

``AlfSender.send_adu`` rejects a sequence it has already taken.  Below
the highest ACK cumulative point that is one comparison: every ADU
there was delivered.  Only the sequences at or above the point are kept
in a set, so the set holds the window and the queue, not the flow's
history, and an abandoned sequence still leaves it to be sent again.
"""

from __future__ import annotations

import pytest

from repro.core.adu import Adu
from repro.errors import TransportError
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.transport.alf import AlfReceiver, AlfSender

WINDOW = 64


def test_duplicate_set_holds_only_the_window_and_the_queue():
    count = 10_000
    path = two_hosts(bandwidth_bps=100e6)
    got: list[int] = []
    AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda delivered: got.append(delivered.sequence),
        expected_adus=count,
    )
    sender = AlfSender(path.loop, path.a, "b", 1, max_outstanding=WINDOW)
    for sequence in range(count):
        sender.send_adu(Adu(sequence, bytes([sequence % 251]) * 8))
    while len(got) < count and path.loop.now < 60.0:
        path.loop.run(until=path.loop.now + 0.01)
        assert len(sender._accepted) <= WINDOW + sender.queued_count
    assert got == list(range(count))
    assert len(sender._accepted) <= WINDOW
    # Long after they left the set, delivered sequences stay taken.
    for sequence in (0, 1, count // 2, count - 1):
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(sequence, b"again"))
    sender.send_adu(Adu(count, b"next"))


def test_abandoned_sequence_above_the_ack_point_can_be_sent_again():
    path = two_hosts(seed=3)
    got: list[int] = []
    AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda delivered: got.append(delivered.sequence),
    )
    sender = AlfSender(path.loop, path.a, "b", 1, rto=0.05, max_attempts=2)
    send = path.a.send
    dropping = True

    def drop_five(packets):
        run = [packets] if isinstance(packets, Packet) else list(packets)
        kept = [
            packet for packet in run
            if not (dropping and packet.header.get("adu_seq") == 5)
        ]
        if kept:
            send(kept)

    path.a.send = drop_five
    for sequence in range(10):
        sender.send_adu(Adu(sequence, bytes([sequence]) * 100))
    path.loop.run(until=5.0)
    # ADU 5 never arrived: the ACK point stops under it, the later ADUs
    # are acknowledged above it, and the sender gave 5 up.
    assert 5 in sender.adus_abandoned
    assert sender._acked_up_to == 5
    assert sorted(got) == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    for sequence in (0, 4, 6, 9):
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(sequence, b"again"))
    dropping = False
    sender.send_adu(Adu(5, bytes([5]) * 100))
    path.loop.run(until=10.0)
    assert sorted(got) == list(range(10))
    assert sender._acked_up_to == 10
    assert not sender._accepted
    with pytest.raises(TransportError, match="already sent"):
        sender.send_adu(Adu(5, b"again"))
