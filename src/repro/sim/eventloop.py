"""A minimal, deterministic discrete-event loop.

Events are callbacks scheduled at absolute times; ties are broken by a
monotonically increasing sequence number, so runs are exactly
reproducible.  Time is a float in seconds.

The heap holds ``(time, sequence, event)`` tuples.  ``sequence`` is
unique, so heapq's C tuple comparison settles every ordering on the
first two fields and never reaches the :class:`Event`: no sift step
calls back into Python, whatever the callback's arguments.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback: the handle :meth:`EventLoop.schedule`
    returns.  Events are not orderable; the loop orders its heap
    entries, not the events inside them."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        loop: "EventLoop | None" = None,
    ):
        self.time = time
        self.sequence = sequence
        self.callback: Callable[..., None] | None = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Prevent the event from firing.

        The entry is lazily discarded: it stays in the heap until it
        either surfaces or the owning loop compacts (which it does once
        cancelled entries dominate the queue), so retransmit-timer
        churn cannot grow the heap without bound.  The callback and
        its arguments are dropped at once, so the dead entry pins
        nothing it was handed (a bound method would keep its owner
        alive).
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        if self._loop is not None:
            self._loop._on_cancel()


class EventLoop:
    """Priority-queue event loop with deterministic tie-breaking."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._cancelled = 0
        self.events_run = 0
        self.compactions = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay {delay})")
        time = self.now + delay
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args, self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def _on_cancel(self) -> None:
        self._cancelled += 1
        # Compact when dead entries outnumber live ones: O(n) rebuild,
        # amortized O(1) per cancellation.
        if self._cancelled > len(self._heap) // 2 and len(self._heap) > 8:
            self._compact()

    def _compact(self) -> None:
        # In place: a running `run` holds a reference to the list.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in time order.

        Args:
            until: stop once the next event would be later than this
                time (the clock advances to ``until``).  None runs to
                quiescence.
            max_events: safety valve against runaway simulations.
        """
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            if not heap or (until is not None and heap[0][0] > until):
                break
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = event.time
            event.callback(*event.args)
            self.events_run += 1
            processed += 1
        if until is not None and self.now < until:
            self.now = until

    def next_event_time(self) -> float | None:
        """Time of the earliest live event, or None when idle.

        Cancelled heap heads are discarded on the way, so the answer is
        exact: None means no live timer is left, without running any.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones)."""
        return len(self._heap)
