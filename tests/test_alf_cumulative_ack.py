"""The ALF ACK's cumulative form against the full-history form it replaced.

An ALF ACK carries ``sack = {"cum", "received", "missing", "highest"}``:
every ADU below ``cum`` has arrived, ``received`` lists the arrivals
above it.  That is a change of representation only.  The properties here
drive the tracker and the sender with random arrival orders — loss,
duplication, ADUs that never arrive, lost and reordered ACKs — and check
both against references written in the old form: the receiver's full
``sorted(delivered)`` list, the brute-force hole scan over
``range(highest + 1)``, and a sender that retires every ADU any ACK
lists.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.control.ack import SelectiveAckTracker
from repro.core.adu import Adu
from repro.errors import TransportError
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode


def brute_force_missing(delivered: set[int], highest: int) -> list[int]:
    """The old receiver's scan: every unreceived ADU below the highest."""
    return [sequence for sequence in range(highest + 1) if sequence not in delivered]


@st.composite
def arrivals(draw):
    """(ADU count, arrival order) with loss, duplicates and reordering.

    Some ADUs are permanently missing: they never appear at all.
    """
    count = draw(st.integers(min_value=1, max_value=60))
    never = draw(st.sets(st.integers(min_value=0, max_value=count - 1)))
    order = [sequence for sequence in range(count) if sequence not in never]
    # Each surviving ADU may also arrive again later (duplicates and
    # retransmissions of ADUs already delivered).
    extra = draw(st.lists(st.sampled_from(order), max_size=count)) if order else []
    order = draw(st.permutations(order + extra))
    return count, order


@settings(max_examples=200, deadline=None)
@given(case=arrivals())
def test_tracker_matches_full_history_form(case):
    _, order = case
    tracker = SelectiveAckTracker()
    delivered: set[int] = set()
    for sequence in order:
        assert tracker.on_adu(sequence) is (sequence not in delivered)
        delivered.add(sequence)
        payload = tracker.ack_payload()
        cumulative, received = payload["cum"], payload["received"]
        assert received == sorted(received)
        assert all(entry > cumulative for entry in received)
        assert sorted(set(range(cumulative)) | set(received)) == sorted(delivered)
        assert payload["highest"] == max(delivered)
        assert payload["missing"] == brute_force_missing(delivered, max(delivered))
        assert cumulative not in delivered
        assert len(tracker) == len(delivered)
        assert all((entry in tracker) == (entry in delivered) for entry in range(65))


def make_sender(count: int) -> AlfSender:
    """A buffering sender with ``count`` single-fragment ADUs sent.

    The loop never runs, so its clock stays at 0 and every repair the
    ACKs ask for is debounced: only ACK retirement moves the state.
    """
    path = two_hosts()
    sender = AlfSender(path.loop, path.a, "b", 1, recovery=RecoveryMode.TRANSPORT_BUFFER)
    for sequence in range(count):
        sender.send_adu(Adu(sequence, bytes([sequence % 251]) * 8, {"n": sequence}))
    return sender


def ack_packet(sack: dict) -> Packet:
    return Packet(src="b", dst="a", protocol="alf", flow_id=1, header={"sack": sack})


@settings(max_examples=150, deadline=None)
@given(case=arrivals(), data=st.data())
def test_sender_state_matches_full_history_reference(case, data):
    count, order = case
    tracker = SelectiveAckTracker()
    delivered: set[int] = set()
    acks: list[tuple[dict, list[int]]] = []  # (new form, old form)
    for sequence in order:
        tracker.on_adu(sequence)
        delivered.add(sequence)
        acks.append((tracker.ack_payload(), sorted(delivered)))
    # The reverse path loses and reorders ACKs.
    kept = data.draw(st.lists(st.booleans(), min_size=len(acks), max_size=len(acks)))
    arriving = data.draw(st.permutations([ack for ack, keep in zip(acks, kept) if keep]))

    sender = make_sender(count)
    outstanding = set(range(count))
    acked: set[int] = set()
    for sack, old_received in arriving:
        sender._on_ack_packet(ack_packet(sack))
        for sequence in old_received:  # the old handler: retire every listed ADU
            if sequence in outstanding:
                outstanding.discard(sequence)
                acked.add(sequence)
        assert set(sender._outstanding) == outstanding
        # A retired ADU leaves the window but stays taken; the sender
        # keeps only the ones the ACK point has not passed.
        point = sender._acked_up_to
        assert sender._accepted - set(sender._outstanding) == {
            sequence for sequence in acked if sequence >= point
        }
        assert sender.stats.retransmissions == 0
    for sequence in acked:
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(sequence, b"again"))


def test_in_order_flow_sends_empty_received_lists_and_holds_no_holes():
    count = 1000
    path = two_hosts(bandwidth_bps=100e6)
    got: list[int] = []
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda delivered: got.append(delivered.sequence),
        expected_adus=count,
    )
    acks: list[dict] = []
    holes: list[int] = []
    send = path.b.send

    def tap(packet):
        acks.append(packet.header["sack"])
        holes.append(len(receiver.acks.missing_below_highest()))
        send(packet)

    path.b.send = tap
    sender = AlfSender(path.loop, path.a, "b", 1)
    for sequence in range(count):
        sender.send_adu(Adu(sequence, bytes([sequence % 251]) * 64, {"n": sequence}))
    sender.close()
    path.loop.run(until=30.0)

    assert got == list(range(count))
    assert receiver.complete and sender.outstanding_count == 0
    assert len(acks) >= count
    assert all(sack["received"] == [] for sack in acks)
    assert all(sack["missing"] == [] for sack in acks)
    assert set(holes) == {0}
    assert acks[-1]["cum"] == count
    assert receiver.acks.cumulative == count
    assert receiver.acks.received_above() == []
