"""EventLoop heap compaction: cancelled timers must not accumulate.

Regression for the retransmit-timer leak: every ACK cancels and re-arms
the sender's coarse timer, and before compaction each cancelled entry
stayed in the heap until its (possibly distant) expiry surfaced it.
"""

from __future__ import annotations

import gc
import weakref

from repro.sim.eventloop import EventLoop


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, fired.append, "cancelled")
    loop.schedule(2.0, fired.append, "kept")
    event.cancel()
    loop.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()  # second cancel must not double-count
    assert loop.pending <= 1
    loop.run()


def test_cancelled_event_pins_nothing_while_in_the_heap():
    class Owner:
        def on_timer(self, payload):
            raise AssertionError("a cancelled event fired")

    loop = EventLoop()
    owner, payload = Owner(), Owner()
    owner_ref, payload_ref = weakref.ref(owner), weakref.ref(payload)
    event = loop.schedule(1.0, owner.on_timer, payload)
    event.cancel()
    del owner, payload
    gc.collect()
    assert loop.pending == 1  # the dead entry is still queued
    assert owner_ref() is None  # the bound method no longer holds it
    assert payload_ref() is None
    loop.run()


def test_many_cancelled_retransmit_timers_compact_the_heap():
    """The retransmit pattern: arm a long timer, cancel it, re-arm."""
    loop = EventLoop()
    fired = []
    # One live sentinel far in the future keeps the heap non-trivial.
    loop.schedule(1000.0, fired.append, "sentinel")
    for _ in range(10_000):
        timer = loop.schedule(500.0, fired.append, "timer")
        timer.cancel()
    # Without compaction all 10k dead entries would still be queued.
    assert loop.pending < 100
    assert loop.compactions > 0
    loop.run()
    assert fired == ["sentinel"]


def test_compaction_preserves_ordering_and_live_events():
    loop = EventLoop()
    fired = []
    for i in range(50):
        loop.schedule(float(100 + i), fired.append, i)
    # Cancel enough churn timers to force several compactions.
    for _ in range(1000):
        loop.schedule(50.0, fired.append, "dead").cancel()
    loop.run()
    assert fired == list(range(50))


def test_compaction_counter_stays_consistent_when_cancelled_events_pop():
    loop = EventLoop()
    # Cancel just under the compaction threshold so dead entries surface
    # through the heap pop path, then keep churning; the internal count
    # must not drift negative or trigger spurious compactions.
    survivors = []
    for i in range(8):
        loop.schedule(0.5 + i, survivors.append, i)
    for i in range(4):
        loop.schedule(0.1, survivors.append, "dead").cancel()
    loop.run(until=0.2)  # pops the cancelled entries
    assert loop._cancelled == 0
    loop.run()
    assert survivors == list(range(8))
