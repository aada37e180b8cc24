"""Simulator core: event loop, RNG streams, tracer."""

import pytest

from repro.errors import SimulationError
from repro.net.host import Host
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.transport.drain import SharedDrainEngine


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        log = []
        loop.schedule(2.0, log.append, "late")
        loop.schedule(1.0, log.append, "early")
        loop.run()
        assert log == ["early", "late"]
        assert loop.now == 2.0

    def test_ties_break_by_schedule_order(self):
        loop = EventLoop()
        log = []
        loop.schedule(1.0, log.append, "first")
        loop.schedule(1.0, log.append, "second")
        loop.run()
        assert log == ["first", "second"]

    def test_run_until_advances_clock(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run(until=2.0)
        assert loop.now == 2.0
        assert loop.pending == 1
        loop.run()
        assert loop.now == 5.0

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                loop.schedule(1.0, chain, n + 1)

        loop.schedule(0.0, chain, 0)
        loop.run()
        assert log == [0, 1, 2, 3]
        assert loop.now == 3.0

    def test_cancel(self):
        loop = EventLoop()
        log = []
        event = loop.schedule(1.0, log.append, "no")
        loop.schedule(2.0, log.append, "yes")
        event.cancel()
        loop.run()
        assert log == ["yes"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(3.0, log.append, "x")
        loop.run()
        assert loop.now == 3.0

    def test_max_events_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.1, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            loop.run(max_events=100)

    def test_events_run_counter(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(1.0, lambda: None)
        loop.run()
        assert loop.events_run == 5

    def test_late_event_raises(self):
        # An event timed before the loop's clock can only come from heap
        # corruption: both the run and the single-step path refuse it.
        def make_late():
            loop = EventLoop()
            loop.schedule(2.0, lambda: None)
            loop.run()
            event = loop.schedule(0.0, lambda: None)
            event.time = 1.0
            return loop

        with pytest.raises(SimulationError, match="time went backwards"):
            make_late().run()
        with pytest.raises(SimulationError, match="time went backwards"):
            make_late().step()

    def test_ten_thousand_ties_fire_fifo_with_unorderable_args(self):
        # Heap entries are (time, sequence, event) tuples and sequence
        # is unique, so neither the Event nor its args (dicts here) are
        # ever compared.
        loop = EventLoop()
        log = []
        for index in range(10_000):
            loop.schedule(1.0, log.append, {"index": index})
        loop.run()
        assert [entry["index"] for entry in log] == list(range(10_000))
        assert loop.now == 1.0

    def test_events_are_not_orderable(self):
        loop = EventLoop()
        first = loop.schedule(1.0, lambda: None)
        second = loop.schedule(2.0, lambda: None)
        with pytest.raises(TypeError):
            first < second  # noqa: B015
        with pytest.raises(TypeError):
            sorted([second, first])
        assert (first.time, first.sequence) < (second.time, second.sequence)

    def test_next_event_time_skips_cancelled_heads(self):
        loop = EventLoop()
        assert loop.next_event_time() is None
        early = loop.schedule(1.0, lambda: None)
        loop.schedule(1.0, lambda: None).cancel()
        loop.schedule(3.0, lambda: None)
        assert loop.next_event_time() == 1.0
        early.cancel()
        assert loop.next_event_time() == 3.0
        assert loop.pending == 1  # the cancelled heads were discarded
        assert loop._cancelled == 0
        assert loop.step() is True
        assert loop.now == 3.0
        assert loop.next_event_time() is None
        assert loop.step() is False

    def test_schedule_at_keeps_relative_arithmetic(self):
        # schedule_at(t) lands at now + (t - now), which can differ from
        # t in the last bit; event times must not change with the heap.
        loop = EventLoop()
        loop.schedule(0.1, lambda: None)
        loop.run()
        event = loop.schedule_at(0.3, lambda: None)
        assert event.time == loop.now + (0.3 - loop.now)


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(1).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        streams = RngStreams(1)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream(
            "x"
        ).random()

    def test_creation_order_irrelevant(self):
        fwd = RngStreams(3)
        first_a = fwd.stream("a").random()
        rev = RngStreams(3)
        rev.stream("b")  # create b first
        assert rev.stream("a").random() == first_a

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")
        assert streams.names() == ["x"]


class TestTracer:
    def test_collects(self):
        tracer = Tracer()
        tracer.emit(1.0, "net", "sent", packet=4)
        tracer.emit(2.0, "app", "done")
        assert len(tracer.records) == 2
        assert tracer.records[0].field_dict() == {"packet": 4}

    def test_filters(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", "m1")
        tracer.emit(2.0, "b", "m2")
        assert [r.message for r in tracer.by_category("a")] == ["m1"]
        assert tracer.messages() == ["m1", "m2"]
        assert tracer.messages("b") == ["m2"]

    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "a", "m")
        assert tracer.records == []

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", "m")
        tracer.clear()
        assert tracer.records == []


class TestSharedDisabledTracer:
    def test_components_without_a_tracer_share_one_that_records_nothing(self):
        loop = EventLoop()
        a, b = Host(loop, "a"), Host(loop, "b")
        engine = SharedDrainEngine(loop)
        assert a.tracer is b.tracer is engine.tracer is DISABLED_TRACER
        a.tracer.emit(0.0, "net", "sent", packet=1)
        assert a.tracer.records == () and b.tracer.messages() == []
        a.tracer.clear()
        assert b.tracer.by_category("net") == []

    def test_it_cannot_be_switched_on_or_filled(self):
        with pytest.raises(AttributeError):
            DISABLED_TRACER.enabled = True
        with pytest.raises(AttributeError):
            DISABLED_TRACER.records = []
        with pytest.raises(AttributeError):
            DISABLED_TRACER.records.append("record")
        assert DISABLED_TRACER.enabled is False

    def test_a_traced_component_is_unaffected(self):
        loop = EventLoop()
        tracer = Tracer()
        traced, untraced = Host(loop, "a", tracer=tracer), Host(loop, "b")
        traced.tracer.emit(0.0, "net", "sent")
        untraced.tracer.emit(0.0, "net", "sent")
        assert len(tracer.records) == 1
        assert untraced.tracer.records == ()
