"""The ALF receiver's ACK timer speaks only while the flow is unresolved.

Every delivery sends an ACK (one per flow per drain dispatch), and a
retransmission of a delivered ADU is re-ACKed once, so a timer repeat of
a caught-up receiver could only restate its last ACK.  The timer
therefore repeats while the receiver holds a partial ADU, ready rows not
yet drained, or a hole below its highest arrival, and stays silent
otherwise.  A closed receiver's timer neither sends nor re-arms.

Arming follows the same rule, except that a complete ADU queued for the
drain starts no timer (its delivery ACKs it): the timer is scheduled
when the flow first holds a partial ADU or a hole and re-arms only while
it stays unresolved, so a caught-up or idle receiver, or one whose ADUs
all arrive whole and drain in their timestep, schedules nothing, and a
session's INIT timer stops at ACCEPT.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.workloads import octet_payload
from repro.buffers.pool import BufferPool
from repro.control.ack import SelectiveAckTracker
from repro.core.adu import Adu
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.drain import SharedDrainEngine
from repro.transport.session import SessionConfig, SessionInitiator, SessionListener

INTERVAL = 0.05
MTU = 256


def drop_forward(path, doomed) -> None:
    """Drop every a→b packet ``doomed(packet)`` picks, retransmissions too."""
    send = path.a.send

    def filtered(packets):
        run = [packets] if isinstance(packets, Packet) else packets
        kept = [packet for packet in run if not doomed(packet)]
        if kept:
            send(kept)

    path.a.send = filtered


def make_flow(sizes, ack_interval=INTERVAL, doomed=None, drain_engine=None,
              seed=1, **sender_kwargs):
    """A two-host flow: sender on ``a``, receiver on ``b``, ADUs not yet sent."""
    path = two_hosts(seed=seed)
    if doomed is not None:
        drop_forward(path, doomed)
    engine = drain_engine(path.loop) if drain_engine is not None else None
    got: dict[int, list[bytes]] = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, []).append(bytes(d.payload)),
        ack_interval=ack_interval, drain_engine=engine,
    )
    sender = AlfSender(path.loop, path.a, "b", 1, mtu=MTU, **sender_kwargs)
    adus = [Adu(i, octet_payload(size, seed=10 + i), {"i": i})
            for i, size in enumerate(sizes)]
    return path, receiver, sender, adus, got


def acks_over(path, receiver, intervals, interval=INTERVAL) -> int:
    """ACKs the receiver sends over the next ``intervals`` timer periods.

    The receiver was built at time 0, so its timer ticks at whole
    multiples of the period; the window opens and closes half-way
    between two ticks, so no tick sits on a boundary.
    """
    start = (math.floor(path.loop.now / interval) + 1.5) * interval
    path.loop.run(until=start)
    before = receiver.stats.acks_sent
    path.loop.run(until=start + intervals * interval)
    return receiver.stats.acks_sent - before


class TestHasGaps:
    def test_in_order_arrivals_leave_no_gap(self):
        tracker = SelectiveAckTracker()
        assert not tracker.has_gaps
        for sequence in range(4):
            tracker.on_adu(sequence)
        assert not tracker.has_gaps

    def test_gap_opens_and_fills(self):
        tracker = SelectiveAckTracker()
        tracker.on_adu(0)
        tracker.on_adu(2)
        assert tracker.has_gaps
        tracker.on_adu(1)
        assert not tracker.has_gaps


class TestTimerRule:
    def test_caught_up_receiver_is_silent(self):
        path, receiver, sender, adus, got = make_flow([100, 600, 300])
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=1.0)
        assert sorted(got) == [0, 1, 2]
        assert sender._completed
        # One ACK per delivery, no repeats after the last one.
        assert receiver.stats.acks_sent == 3
        assert acks_over(path, receiver, 10) == 0
        assert receiver.stats.acks_sent == 3

    def test_lost_fragment_keeps_one_ack_per_interval(self):
        # ADU 0's second fragment never arrives: a partial ADU.
        path, receiver, sender, adus, got = make_flow(
            [600], rto=10.0,
            doomed=lambda p: p.header["adu_seq"] == 0 and p.header["frag"] == 1,
        )
        sender.send_adu(adus[0])
        path.loop.run(until=0.5)
        assert receiver._partial and not got
        assert acks_over(path, receiver, 10) == 10

    def test_lost_adu_keeps_one_ack_per_interval(self):
        # ADU 1 never arrives: 0 and 2 are delivered around a gap.
        path, receiver, sender, adus, got = make_flow(
            [100, 100, 100], rto=10.0,
            doomed=lambda p: p.header["adu_seq"] == 1,
        )
        for adu in adus:
            sender.send_adu(adu)
        path.loop.run(until=0.5)
        assert sorted(got) == [0, 2]
        assert receiver.acks.has_gaps and not receiver._partial
        assert acks_over(path, receiver, 10) == 10

    def test_undrained_ready_rows_keep_one_ack_per_interval(self):
        # The engine holds a ready row for 20 ticks before draining it.
        hold = 20 * INTERVAL
        path, receiver, sender, adus, got = make_flow(
            [100, 100], rto=10.0,
            drain_engine=lambda loop: SharedDrainEngine(loop, max_delay=hold),
        )
        sender.send_adu(adus[0])
        path.loop.run(until=1.5)
        assert sorted(got) == [0]
        assert acks_over(path, receiver, 5) == 0  # caught up: silent
        sender.send_adu(adus[1])
        path.loop.run(until=path.loop.now + 0.1)
        assert len(receiver.ready) == 1 and not got.get(1)
        assert acks_over(path, receiver, 10) == 10
        path.loop.run(until=path.loop.now + hold)
        assert sorted(got) == [0, 1]
        assert acks_over(path, receiver, 10) == 0

    def test_closed_receiver_timer_stops(self):
        path, receiver, sender, adus, got = make_flow([100])
        sender.send_adu(adus[0])
        sender.close()
        path.loop.run(until=0.5)
        assert sorted(got) == [0] and sender._completed
        receiver.close()
        sent = receiver.stats.acks_sent
        path.loop.run(until=path.loop.now + 1.0)
        assert receiver.stats.acks_sent == sent
        # Nothing re-arms: the loop drains.
        path.loop.run(max_events=1000)
        assert path.loop.pending == 0

    def test_closed_receiver_with_a_gap_stops_too(self):
        path, receiver, sender, adus, got = make_flow(
            [100, 100, 100], rto=10.0,
            doomed=lambda p: p.header["adu_seq"] == 1,
        )
        for adu in adus:
            sender.send_adu(adu)
        path.loop.run(until=0.5)
        assert receiver.acks.has_gaps
        receiver.close()
        sent = receiver.stats.acks_sent
        path.loop.run(until=path.loop.now + 1.0)
        assert receiver.stats.acks_sent == sent


def record_calls(monkeypatch, cls, name):
    """Record the clock time of every call to ``cls.<name>``."""
    original = getattr(cls, name)
    times = []

    def recorded(self, *args):
        times.append(self.loop.now)
        return original(self, *args)

    monkeypatch.setattr(cls, name, recorded)
    return times


class TestTimerArming:
    def test_caught_up_flow_stops_ticking(self, monkeypatch):
        ticks = record_calls(monkeypatch, AlfReceiver, "_periodic_ack")
        delivered_at = {}
        path, receiver, sender, adus, got = make_flow([100, 600, 300])
        receiver.deliver = lambda d: delivered_at.setdefault(d.sequence, path.loop.now)
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=5.0)
        assert sorted(delivered_at) == [0, 1, 2]
        last = max(delivered_at.values())
        assert ticks and max(ticks) <= last + INTERVAL
        assert path.loop.pending == 0

    def test_ticks_keep_the_construction_phase(self, monkeypatch):
        ticks = record_calls(monkeypatch, AlfReceiver, "_periodic_ack")
        path, receiver, sender, adus, got = make_flow(
            [600], rto=10.0,
            doomed=lambda p: p.header["adu_seq"] == 0 and p.header["frag"] == 1,
        )
        path.loop.run(until=0.33)  # idle: no tick, nothing scheduled
        assert not ticks and path.loop.pending == 0
        sender.send_adu(adus[0])
        path.loop.run(until=0.6)
        assert receiver._partial
        # The grid a timer started at construction would have ticked on.
        grid = [INTERVAL]
        while grid[-1] < 0.6:
            grid.append(grid[-1] + INTERVAL)
        assert ticks == [t for t in grid if 0.33 < t <= 0.6]

    def test_idle_open_receivers_schedule_nothing(self):
        path = two_hosts(seed=1)
        receivers = [
            AlfReceiver(path.loop, path.b, "a", flow_id, deliver=lambda d: None,
                        ack_interval=INTERVAL)
            for flow_id in range(1, 33)
        ]
        assert path.loop.pending == 0
        path.loop.run(until=10.0)
        assert path.loop.events_run == 0
        for receiver in receivers:
            receiver.close()

    @pytest.mark.parametrize(
        "link, engine, fec_group",
        [
            # A duplicate lands while its ADU's row waits out the epoch.
            ({"duplicate_rate": 0.3}, {"max_delay": 5e-3}, None),
            # Each ADU's trailing parity unit rides the train that
            # completed the ADU, so it lands while the row is queued.
            ({"max_train": 16, "train_window": 1e-3}, {}, 4),
        ],
        ids=["duplicates", "fec-trains"],
    )
    def test_late_fragment_of_a_queued_row_opens_no_partial(
        self, monkeypatch, link, engine, fec_group
    ):
        ticks = record_calls(monkeypatch, AlfReceiver, "_periodic_ack")
        path = two_hosts(seed=1, **link)
        drain = SharedDrainEngine(path.loop, **engine)
        delivered_at: dict[int, list[float]] = {}
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: delivered_at.setdefault(d.sequence, []).append(
                path.loop.now
            ),
            drain_engine=drain,
        )
        sender = AlfSender(path.loop, path.a, "b", 1, mtu=1024,
                           fec_group=fec_group)
        for sequence in range(8):
            sender.send_adu(Adu(sequence, octet_payload(8192, seed=sequence)))
        sender.close()
        path.loop.run(until=5.0)
        assert {seq: len(times) for seq, times in delivered_at.items()} == {
            seq: 1 for seq in range(8)
        }
        assert receiver.quiescent
        assert path.loop.next_event_time() is None
        last = max(max(times) for times in delivered_at.values())
        assert not ticks or max(ticks) <= last + INTERVAL
        receiver.close()
        drain.shutdown()

    def test_run_taken_rows_schedule_no_ack_timer(self, monkeypatch):
        # Whole single-fragment ADUs take the run path, queue as ready
        # rows and drain in their timestep: no partial, no gap, and no
        # timer event, while each delivery still sends its ACK.
        arms = record_calls(monkeypatch, AlfReceiver, "_arm_ack_timer")
        runs = record_calls(monkeypatch, AlfReceiver, "receive_run")
        fragments = record_calls(monkeypatch, AlfReceiver, "_on_fragment")
        path, receiver, sender, adus, got = make_flow(
            [100, 200, MTU], drain_engine=SharedDrainEngine,
        )
        path.b.rx_pool = BufferPool(8, MTU, label="rx")
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=1.0)
        assert sorted(got) == [0, 1, 2] and sender._completed
        assert len(runs) == 3 and not fragments
        assert not arms
        assert receiver.stats.acks_sent == 3
        assert path.loop.next_event_time() is None
        assert path.b.rx_pool.leak_report() == []

    @pytest.mark.parametrize(
        "doomed",
        [
            # ADU 0's second fragment never arrives: a partial ADU.
            lambda p: p.header["adu_seq"] == 0 and p.header["frag"] == 1,
            # ADU 1 never arrives: 0 and 2 are delivered around a gap.
            lambda p: p.header["adu_seq"] == 1,
        ],
        ids=["partial", "gap"],
    )
    def test_run_path_flow_left_unresolved_ticks_on_the_grid(
        self, monkeypatch, doomed
    ):
        ticks = record_calls(monkeypatch, AlfReceiver, "_periodic_ack")
        path, receiver, sender, adus, got = make_flow(
            [2 * MTU, MTU, MTU], rto=10.0, doomed=doomed,
            drain_engine=SharedDrainEngine,
        )
        path.b.rx_pool = BufferPool(16, MTU, label="rx")
        for adu in adus:
            sender.send_adu(adu)
        path.loop.run(until=0.5)
        assert receiver._partial or receiver.acks.has_gaps
        assert acks_over(path, receiver, 10) == 10
        # Every tick lands on the grid of whole intervals since
        # construction, one per interval.
        assert ticks and all(
            math.isclose(tick / INTERVAL, round(tick / INTERVAL)) for tick in ticks
        )
        assert len(set(round(tick / INTERVAL) for tick in ticks)) == len(ticks)
        receiver.close()

    def test_established_initiator_init_timer_never_fires(self, monkeypatch):
        sends = record_calls(monkeypatch, SessionInitiator, "_send_init")
        schemas = {"ints": ArrayOf(Int32())}
        path = two_hosts(seed=1)
        listener = SessionListener(path.loop, path.b, schemas)
        initiators = [
            SessionInitiator(path.loop, path.a, "b",
                             SessionConfig(schema_name="ints"), schemas,
                             handshake_timeout=0.1)
            for _ in range(4)
        ]
        path.loop.run(until=5.0)
        assert all(initiator.established for initiator in initiators)
        assert sends == [0.0] * 4  # the first INITs only
        listener.close()


@st.composite
def lossy_flows(draw):
    """b→a loss, timer period and 1–8 ADUs of 1–4 fragments each."""
    loss = draw(st.floats(min_value=0.0, max_value=0.5))
    interval = draw(st.sampled_from([0.01, 0.05]))
    fragments = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    sizes = [
        draw(st.integers((count - 1) * MTU + 1, count * MTU))
        for count in fragments
    ]
    seed = draw(st.integers(0, 2**16))
    return loss, interval, sizes, seed


@settings(max_examples=60, deadline=None)
@given(case=lossy_flows())
def test_lossy_ack_path_still_completes_exactly_once(case):
    loss, interval, sizes, seed = case
    path = two_hosts(seed=seed, loss_rate=0.0, reverse_loss_rate=loss)
    got: dict[int, list[bytes]] = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, []).append(bytes(d.payload)),
        ack_interval=interval,
    )
    finished = []
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=MTU,
        recovery=RecoveryMode.TRANSPORT_BUFFER,
        on_complete=lambda: finished.append(path.loop.now),
    )
    adus = [Adu(i, octet_payload(size, seed=seed + i), {"i": i})
            for i, size in enumerate(sizes)]
    for adu in adus:
        sender.send_adu(adu)
    sender.close()
    path.loop.run(until=60.0)
    # Completed by acknowledgement, not by giving up.
    assert finished and not sender.adus_abandoned
    assert sorted(got) == [adu.sequence for adu in adus]
    for adu in adus:
        assert got[adu.sequence] == [adu.payload]
    receiver.close()


def reack_run(seed: int):
    """8 × 8 KiB ADUs at MTU 1024 over a path losing half its ACKs."""
    path = two_hosts(seed=seed, reverse_loss_rate=0.5)
    got: dict[int, bytes] = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.__setitem__(d.sequence, bytes(d.payload)),
    )
    finished = []
    sender = AlfSender(path.loop, path.a, "b", 1, mtu=1024,
                       on_complete=lambda: finished.append(path.loop.now))
    adus = [Adu(i, octet_payload(8192, seed=i), {"i": i}) for i in range(8)]
    for adu in adus:
        sender.send_adu(adu)
    sender.close()
    path.loop.run(until=60.0)
    receiver.close()
    assert got == {adu.sequence: adu.payload for adu in adus}
    assert finished and not sender.adus_abandoned
    return receiver, sender


def test_a_retransmission_of_a_delivered_adu_is_reacked_once():
    # Seed 3 loses enough ACKs to retransmit four delivered 8-fragment
    # ADUs; one re-ACK per retransmission, not one per fragment (that
    # was 41 ACKs for 8 ADUs).
    receiver, sender = reack_run(3)
    assert sender.stats.retransmissions == 4
    assert receiver.stats.duplicates_discarded == 4 * 8
    assert receiver.stats.acks_sent < 20


@pytest.mark.parametrize("seed", range(5))
def test_one_reack_per_retransmission_still_completes(seed):
    receiver, _ = reack_run(seed)
    assert receiver.stats.acks_sent < 20
