"""Flow control: windows, AIMD, pacing."""

import pytest

from repro.control.flow import AimdCongestionControl, SlidingWindow
from repro.errors import TransportError


class TestSlidingWindow:
    def test_basic_accounting(self):
        window = SlidingWindow(1000)
        assert window.available() == 1000
        window.on_send(400)
        assert window.in_flight == 400
        assert window.available() == 600
        window.on_ack(400)
        assert window.in_flight == 0

    def test_overrun_rejected(self):
        window = SlidingWindow(100)
        window.on_send(100)
        with pytest.raises(TransportError, match="overrun"):
            window.on_send(1)

    def test_can_send(self):
        window = SlidingWindow(100)
        assert window.can_send(100)
        assert not window.can_send(101)

    def test_ack_beyond_sent_rejected(self):
        window = SlidingWindow(100)
        window.on_send(10)
        with pytest.raises(TransportError):
            window.on_ack(11)

    def test_ack_is_cumulative_idempotent(self):
        window = SlidingWindow(100)
        window.on_send(50)
        window.on_ack(30)
        window.on_ack(20)  # older ack: no regression
        assert window.acked == 30

    def test_construction_validation(self):
        with pytest.raises(TransportError):
            SlidingWindow(0)


class TestAimd:
    def test_slow_start_doubles(self):
        congestion = AimdCongestionControl(mss=1000)
        assert congestion.window_bytes() == 1000
        congestion.on_ack(1000)
        assert congestion.window_bytes() == 2000

    def test_loss_halves(self):
        congestion = AimdCongestionControl(mss=1000, initial_cwnd=8000)
        congestion.on_loss()
        assert congestion.window_bytes() == 4000
        assert congestion.losses == 1

    def test_floor_at_one_mss(self):
        congestion = AimdCongestionControl(mss=1000)
        for _ in range(5):
            congestion.on_loss()
        assert congestion.window_bytes() >= 1000

    def test_congestion_avoidance_is_linear(self):
        congestion = AimdCongestionControl(mss=1000, initial_cwnd=8000)
        congestion.on_loss()  # ssthresh = 4000, cwnd = 4000
        before = congestion.window_bytes()
        congestion.on_ack(1000)
        growth = congestion.window_bytes() - before
        assert 0 < growth <= 1000  # additive, not doubling

    def test_validation(self):
        with pytest.raises(TransportError):
            AimdCongestionControl(mss=0)
