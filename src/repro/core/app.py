"""The application process as the pipeline bottleneck.

Section 5's key dynamic argument: when presentation conversion is needed,
"the application process... will be the usual bottleneck in overall
network throughput.  On the receiving end, if the application cannot run
whenever data arrives from the network, it will fall behind, and since it
is the bottleneck, it will never catch up."

:class:`ApplicationProcess` models that process: a serial server with a
finite processing rate (its presentation-conversion speed).  Transports
feed it work; it tracks busy time, idle time and backlog.  The pipeline
experiment compares how well each transport keeps this process fed when
the network loses and reorders data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ApplicationError
from repro.sim.eventloop import EventLoop


@dataclass(frozen=True)
class CompletedWork:
    """One processed work item."""

    label: Any
    n_bytes: int
    submitted_at: float
    finished_at: float


class ApplicationProcess:
    """A serial application process with a fixed processing rate.

    Args:
        loop: simulation event loop.
        processing_rate_bps: how fast the process can convert/consume
            data, in bits per second.
        on_done: optional callback per completed item.
    """

    def __init__(
        self,
        loop: EventLoop,
        processing_rate_bps: float,
        on_done: Callable[[CompletedWork], None] | None = None,
    ):
        if processing_rate_bps <= 0:
            raise ApplicationError("processing_rate_bps must be positive")
        self.loop = loop
        self.processing_rate_bps = processing_rate_bps
        self.on_done = on_done

        self._queue: deque[tuple[Any, int, float, float | None]] = deque()
        self._busy = False
        self.completed: list[CompletedWork] = []
        self.processed_bytes = 0
        self.busy_time = 0.0
        self._busy_started: float | None = None

    def submit(
        self, label: Any, n_bytes: int, duration: float | None = None
    ) -> None:
        """Hand the process a unit of work (e.g. one ADU to convert).

        ``duration`` overrides the rate-derived service time — used when
        the caller has a better model of the work (e.g. modelled cycles
        for this specific ADU's stage-two pipeline).
        """
        if n_bytes < 0:
            raise ApplicationError("n_bytes must be >= 0")
        if duration is not None and duration < 0:
            raise ApplicationError("duration must be >= 0")
        self._queue.append((label, n_bytes, self.loop.now, duration))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            return
        self._busy = True
        self._busy_started = self.loop.now
        label, n_bytes, submitted_at, duration = self._queue.popleft()
        if duration is None:
            duration = n_bytes * 8 / self.processing_rate_bps
        self.loop.schedule(duration, self._finish, label, n_bytes, submitted_at)

    def _finish(self, label: Any, n_bytes: int, submitted_at: float) -> None:
        assert self._busy_started is not None
        self.busy_time += self.loop.now - self._busy_started
        self._busy_started = None
        self._busy = False
        self.processed_bytes += n_bytes
        work = CompletedWork(label, n_bytes, submitted_at, self.loop.now)
        self.completed.append(work)
        if self.on_done is not None:
            self.on_done(work)
        self._start_next()

    @property
    def backlog(self) -> int:
        """Work items queued but not started."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """Whether the process is currently idle."""
        return not self._busy

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of elapsed time spent processing (0..1).

        When the app is the bottleneck, throughput == utilization × rate;
        a transport that stalls the app shows up directly here.
        """
        horizon = self.loop.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_started is not None:
            busy += self.loop.now - self._busy_started
        return min(busy / horizon, 1.0)
