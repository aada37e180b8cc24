"""ACK generation and timestamp machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.ack import AckGenerator, SelectiveAckTracker
from repro.control.timestamp import JitterEstimator, PlayoutBuffer
from repro.errors import TransportError


class TestAckGenerator:
    def test_in_order_advances(self):
        acks = AckGenerator(delayed_ack_every=1)
        assert acks.on_segment(0, 100)
        assert acks.cumulative == 100
        acks.on_segment(100, 100)
        assert acks.cumulative == 200

    def test_gap_holds_cumulative_and_acks_immediately(self):
        acks = AckGenerator(delayed_ack_every=10)
        acks.on_segment(0, 100)
        assert acks.on_segment(200, 100) is True  # dup-ack trigger
        assert acks.cumulative == 100
        # The island is held: filling the hole carries the point past it.
        acks.on_segment(100, 100)
        assert acks.cumulative == 300

    def test_fill_absorbs_islands(self):
        acks = AckGenerator()
        acks.on_segment(0, 100)
        acks.on_segment(200, 100)
        acks.on_segment(300, 100)
        acks.on_segment(100, 100)  # fills the hole
        assert acks.cumulative == 400

    def test_delayed_ack_policy(self):
        acks = AckGenerator(delayed_ack_every=2)
        assert acks.on_segment(0, 10) is False
        assert acks.on_segment(10, 10) is True

    def test_duplicate_data_tolerated(self):
        acks = AckGenerator()
        acks.on_segment(0, 100)
        acks.on_segment(0, 100)
        assert acks.cumulative == 100

    def test_validation(self):
        with pytest.raises(TransportError):
            AckGenerator(delayed_ack_every=0)
        with pytest.raises(TransportError):
            AckGenerator().on_segment(-1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(10))))
    def test_any_arrival_order_converges(self, order):
        """However segments arrive, once all are in, the cumulative point
        covers everything."""
        acks = AckGenerator()
        for index in order:
            acks.on_segment(index * 10, 10)
        assert acks.cumulative == 100


def reference_absorb(cumulative: int, islands: dict[int, int]) -> int:
    """The generator's former absorb loop: re-sort, take one, repeat."""
    absorbed = True
    while absorbed:
        absorbed = False
        for island_start in sorted(islands):
            if island_start <= cumulative:
                cumulative = max(cumulative, islands.pop(island_start))
                absorbed = True
                break
    return cumulative


class TestAckGeneratorIslands:
    def test_five_hundred_shuffled_islands_match_reference(self):
        rng = random.Random(7)
        # 500 islands of varied length, some overlapping, tiling
        # [10, end) with no gap: the fill of [0, 10) absorbs them all
        # in one call.
        segments = []
        start = 10
        for _ in range(500):
            length = rng.randint(1, 12)
            segments.append((start, length))
            start += length - rng.randint(0, length - 1)
        rng.shuffle(segments)
        acks = AckGenerator()
        cumulative, islands = 0, {}
        for seg_start, length in segments + [(0, 10)]:
            acks.on_segment(seg_start, length)
            end = seg_start + length
            if seg_start > cumulative:
                islands[seg_start] = max(islands.get(seg_start, seg_start), end)
            else:
                cumulative = reference_absorb(max(cumulative, end), islands)
            assert acks.cumulative == cumulative
            assert acks._out_of_order == islands
        assert not acks._out_of_order
        assert acks.cumulative == max(s + n for s, n in segments)


class TestSelectiveAck:
    def test_records_and_dedups(self):
        tracker = SelectiveAckTracker()
        assert tracker.on_adu(3) is True
        assert tracker.on_adu(3) is False
        assert 3 in tracker and 2 not in tracker
        assert len(tracker) == 1
        assert tracker.cumulative == 0
        assert tracker.received_above() == [3]

    def test_missing_below_highest(self):
        tracker = SelectiveAckTracker()
        for sequence in (0, 2, 5):
            tracker.on_adu(sequence)
        assert tracker.missing_below_highest() == [1, 3, 4]

    def test_ack_payload(self):
        tracker = SelectiveAckTracker()
        tracker.on_adu(1)
        payload = tracker.ack_payload()
        assert payload == {"cum": 0, "received": [1], "missing": [0], "highest": 1}
        tracker.on_adu(0)
        payload = tracker.ack_payload()
        assert payload == {"cum": 2, "received": [], "missing": [], "highest": 1}

    def test_negative_rejected(self):
        with pytest.raises(TransportError):
            SelectiveAckTracker().on_adu(-1)


class TestJitter:
    def test_first_packet_no_jitter(self):
        estimator = JitterEstimator()
        assert estimator.on_packet(0.0, 0.1) == 0.0

    def test_constant_transit_zero_jitter(self):
        estimator = JitterEstimator()
        for n in range(10):
            estimator.on_packet(n * 0.01, n * 0.01 + 0.05)
        assert estimator.jitter == pytest.approx(0.0)

    def test_variation_raises_jitter(self):
        estimator = JitterEstimator()
        estimator.on_packet(0.0, 0.05)
        estimator.on_packet(0.01, 0.08)  # transit jumped by 20ms
        assert estimator.jitter > 0.0


class TestPlayout:
    def test_on_time_scheduled(self):
        playout = PlayoutBuffer(playout_offset=0.1)
        play_time = playout.on_unit(1, sender_timestamp=0.0, arrival_time=0.05)
        assert play_time == pytest.approx(0.1)
        assert len(playout.scheduled) == 1

    def test_late_dropped(self):
        playout = PlayoutBuffer(playout_offset=0.1)
        assert playout.on_unit(1, 0.0, 0.2) is None
        assert playout.late == [1]

    def test_bigger_offset_tolerates_more(self):
        tight = PlayoutBuffer(playout_offset=0.05)
        loose = PlayoutBuffer(playout_offset=0.5)
        for unit, arrival in enumerate((0.06, 0.3, 0.45)):
            tight.on_unit(unit, 0.0, arrival)
            loose.on_unit(unit, 0.0, arrival)
        assert len(loose.scheduled) > len(tight.scheduled)

    def test_validation(self):
        with pytest.raises(TransportError):
            PlayoutBuffer(-0.1)
