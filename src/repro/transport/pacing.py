"""Rate-paced train shaping with a drain-pressure backpressure loop.

The paper's §3 argument: a new generation of protocols should use
**rate-based flow control rather than windows** — "the rate at which the
sender transmits" is "computed on an out-of-band basis", and the sender
shapes its output to what the path and receiver can absorb.  PR 7 made
packet trains the native unit NIC-to-drain on the *receive* side; this
module closes the loop on the *send* side:

* :class:`TrainPacer` — a token-bucket rate shaper whose releases are
  **train-aligned**: credit accumulates at ``rate_bytes_per_s`` and a
  release waits until it covers a whole train of ``target_train``
  packets, which then leaves as one back-to-back run at a single
  instant (the downstream link serializes it contiguously).  The pacer
  never leaks single packets while a train's worth of data is queued —
  trains are deliberate, not an accident of link coalescing.  Released
  packets carry ``header["train"]`` / ``header["train_len"]`` tags so
  switches and links downstream can preserve the shaped boundaries.
* **Drain-pressure feedback** — :func:`quantize_pressure` folds the
  receive-side :class:`~repro.transport.drain.SharedDrainEngine`
  adaptive backlog EWMA into a 4-bit quantum; the receiver piggybacks
  it on ACKs (``header["dp"]``) and :meth:`TrainPacer.on_pressure`
  converts it into AIMD rate adjustments: additive raise while
  pressure is low, multiplicative back-off (guarded by a hold-off
  interval so one ACK flight cannot collapse the rate repeatedly) when
  the receiver reports backlog.

The earlier :mod:`repro.control.ratecontrol` helper paces *ADU sources*
from a receiver-computed rate; this module shapes the *wire* — packet
trains, switch-preservable tags, and a pressure signal that rides the
existing ACK channel instead of a dedicated control flow.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import TransportError
from repro.machine.accounting import PacingCounters
from repro.sim.eventloop import Event, EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet

#: The drain-pressure quantum is a 4-bit header field: 0 (idle) .. 15.
PRESSURE_MAX = 15

#: Default AIMD thresholds.  A backlog EWMA equal to the engine's
#: ``ramp_rows`` (the pressure at which adaptive epochs reach their
#: configured window) quantizes to 8 — the back-off threshold — so the
#: sender starts yielding exactly where the receiver starts stretching
#: its epochs.
PRESSURE_HIGH = 8
PRESSURE_LOW = 2


def quantize_pressure(backlog_ewma: float, ramp_rows: int) -> int:
    """Fold a drain engine's backlog EWMA into the 4-bit ACK quantum.

    Linear in the EWMA, scaled so ``ramp_rows`` of pressure — the point
    where adaptive epochs hit their configured window — maps to
    :data:`PRESSURE_HIGH`, and saturating at :data:`PRESSURE_MAX`
    (about twice the ramp).  Idle engines quantize to 0.
    """
    if backlog_ewma <= 0.0 or ramp_rows <= 0:
        return 0
    quantum = int(round(PRESSURE_HIGH * backlog_ewma / ramp_rows))
    return min(PRESSURE_MAX, quantum)


class TrainPacer:
    """Token-bucket egress shaper releasing whole packet trains.

    Args:
        loop: simulation event loop.
        rate_bytes_per_s: initial shaping rate (wire bytes per second;
            the AIMD loop moves it between ``min_rate_bytes_per_s`` and
            ``max_rate_bytes_per_s``).
        target_train: packets per shaped train.  A release waits for
            bucket credit covering ``min(target_train, queued)`` packets
            and emits them back-to-back at one instant; only the tail
            of a transfer goes out shorter.
        mtu: nominal packet payload size — sizes the bucket and the
            default additive increase.
        bucket_trains: bucket depth in trains (burst tolerance: after
            an idle period up to this many trains leave back-to-back
            before the rate limit bites).
        aimd_increase: bytes/s added per low-pressure signal (defaults
            to one ``mtu`` per second).
        aimd_backoff: multiplicative factor applied per high-pressure
            signal (0.5 = halve).
        high_pressure / low_pressure: quantum thresholds for the AIMD
            decision; quanta between them leave the rate alone.
        backoff_interval: seconds after a back-off during which further
            high-pressure signals are ignored — one congested ACK
            flight reports the same epoch many times and must not
            collapse the rate geometrically.
        min_rate_bytes_per_s / max_rate_bytes_per_s: AIMD rate bounds.
        send: the transmission callback (usually ``host.send``); may be
            bound later via :meth:`bind`.
        counters: pacing ledger (defaults to a fresh
            :class:`~repro.machine.accounting.PacingCounters`).
        tracer: optional event tracer.
        name: label for traces.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_bytes_per_s: float = 125_000.0,
        target_train: int = 8,
        mtu: int = 1024,
        bucket_trains: float = 2.0,
        aimd_increase: float | None = None,
        aimd_backoff: float = 0.5,
        high_pressure: int = PRESSURE_HIGH,
        low_pressure: int = PRESSURE_LOW,
        backoff_interval: float = 0.05,
        min_rate_bytes_per_s: float = 1_000.0,
        max_rate_bytes_per_s: float = 1.25e9,
        send: Callable[["Packet"], None] | None = None,
        counters: PacingCounters | None = None,
        tracer: Tracer | None = None,
        name: str = "pacer",
    ):
        if rate_bytes_per_s <= 0:
            raise TransportError("rate_bytes_per_s must be positive")
        if target_train < 1:
            raise TransportError(
                f"target_train must be >= 1, got {target_train}"
            )
        if mtu <= 0:
            raise TransportError("mtu must be positive")
        if bucket_trains < 1.0:
            raise TransportError(
                f"bucket_trains must be >= 1, got {bucket_trains}"
            )
        if not 0.0 < aimd_backoff < 1.0:
            raise TransportError(
                f"aimd_backoff must be in (0, 1), got {aimd_backoff}"
            )
        if not 0 <= low_pressure < high_pressure <= PRESSURE_MAX:
            raise TransportError(
                "need 0 <= low_pressure < high_pressure <= "
                f"{PRESSURE_MAX}, got {low_pressure}/{high_pressure}"
            )
        if not 0 < min_rate_bytes_per_s <= max_rate_bytes_per_s:
            raise TransportError("invalid rate bounds")
        self.loop = loop
        self.rate_bytes_per_s = float(rate_bytes_per_s)
        self.target_train = target_train
        self.mtu = mtu
        self.aimd_increase = (
            float(aimd_increase) if aimd_increase is not None else float(mtu)
        )
        self.aimd_backoff = aimd_backoff
        self.high_pressure = high_pressure
        self.low_pressure = low_pressure
        self.backoff_interval = backoff_interval
        self.min_rate_bytes_per_s = float(min_rate_bytes_per_s)
        self.max_rate_bytes_per_s = float(max_rate_bytes_per_s)
        self.counters = counters if counters is not None else PacingCounters()
        self.tracer = tracer or DISABLED_TRACER
        self.name = name
        self._send = send
        # Bucket state: credit starts full so the first train leaves
        # immediately; the cap bounds post-idle bursts to bucket_trains.
        self._bucket_bytes = float(bucket_trains) * target_train * mtu
        self._credit = self._bucket_bytes
        self._stamp = loop.now
        self._queue: deque[tuple["Packet", Callable[["Packet"], None] | None]] = (
            deque()
        )
        self._queued_bytes = 0
        self._held: dict[tuple[int, int], int] = {}
        self._release_event: Event | None = None
        self._next_train_id = 1
        # Local mirrors for benches/tests that compare two pacers
        # without resetting the process-wide ledger.
        self.trains = 0
        self.backoffs = 0
        self.raises = 0
        self.first_backoff_time: float | None = None
        self.last_backoff_time = -1e9

    # ------------------------------------------------------------------
    # Wiring

    def bind(self, send: Callable[["Packet"], None]) -> None:
        """Attach (or replace) the transmission callback."""
        self._send = send

    def seed_rate(self, rate_bytes_per_s: float) -> float:
        """Replace the shaping rate with a measured estimate.

        Used by ``pacing_auto_rate=``: a session that sampled its INIT
        round-trip seeds the pacer at one shaped train per RTT instead
        of the operator-configured default, so AIMD starts its search
        from a path-informed point.  The estimate is clamped to the
        configured AIMD bounds; returns the rate actually installed.
        """
        rate = max(
            self.min_rate_bytes_per_s,
            min(self.max_rate_bytes_per_s, float(rate_bytes_per_s)),
        )
        self.rate_bytes_per_s = rate
        return rate

    # ------------------------------------------------------------------
    # Egress queue

    @property
    def queued_packets(self) -> int:
        """Packets waiting in the shaping queue."""
        return len(self._queue)

    def holds(self, flow_id: int, sequence: int) -> bool:
        """Whether any fragment of (flow, ADU) is still queued here.

        The sender's repair path checks this so an ADU waiting its turn
        in the shaping queue is not "repaired" — it has not been lost,
        it has not even been transmitted.
        """
        return (flow_id, sequence) in self._held

    def submit(
        self,
        packet: "Packet",
        on_release: Callable[["Packet"], None] | None = None,
    ) -> None:
        """Queue one packet for train-aligned release.

        ``on_release`` (if given) fires when the packet actually leaves
        — senders use it to start their retransmit clocks at wire time
        rather than submit time.
        """
        if self._send is None:
            raise TransportError(f"{self.name}: no send callback bound")
        self._queue.append((packet, on_release))
        self._queued_bytes += packet.wire_size
        sequence = packet.header.get("adu_seq")
        if sequence is not None:
            key = (packet.flow_id, int(sequence))
            self._held[key] = self._held.get(key, 0) + 1
        self.counters.record_submit(packet.wire_size)
        self._arm()

    # ------------------------------------------------------------------
    # Token bucket and release

    def _accrue(self) -> None:
        """Fold elapsed time into bucket credit at the current rate."""
        now = self.loop.now
        elapsed = now - self._stamp
        if elapsed > 0.0:
            self._credit = min(
                self._bucket_bytes,
                self._credit + elapsed * self.rate_bytes_per_s,
            )
        self._stamp = now

    def _need(self) -> int:
        """Wire bytes the next train (head of queue) requires."""
        n = min(self.target_train, len(self._queue))
        need = 0
        for index, (packet, _) in enumerate(self._queue):
            if index >= n:
                break
            need += packet.wire_size
        return need

    def _covers(self, need: int) -> bool:
        """Whether credit covers ``need`` wire bytes.

        The tolerance forgives accumulated float error from repeated
        ``elapsed * rate`` accruals — without it a credit a few ulps
        short of ``need`` re-arms with a delay too small to advance the
        clock, and the release event spins at one timestamp forever.
        """
        return self._credit >= need - (1e-9 * need + 1e-6)

    def _arm(self) -> None:
        """Schedule the next release when credit will cover a train.

        Always via a scheduled event (zero-delay when credit is already
        sufficient): every submit of the current timestep lands in the
        queue before the release fires, so a batch handed to the sender
        in one call leaves as full trains, not a leading singleton.
        """
        if self._release_event is not None or not self._queue:
            return
        self._accrue()
        need = self._need()
        if self._covers(need):
            delay = 0.0
        else:
            delay = (need - self._credit) / self.rate_bytes_per_s
            self.counters.record_stall()
        self._release_event = self.loop.schedule(delay, self._release)

    def _release(self) -> None:
        self._release_event = None
        if not self._queue:
            return
        self._accrue()
        need = self._need()
        if not self._covers(need):
            # The rate dropped (a back-off) while this release was
            # armed; re-arm against the new rate.
            self._arm()
            return
        n = min(self.target_train, len(self._queue))
        train_id = self._next_train_id
        self._next_train_id += 1
        callbacks: list[tuple[Callable[["Packet"], None], "Packet"]] = []
        for _ in range(n):
            packet, on_release = self._queue.popleft()
            self._queued_bytes -= packet.wire_size
            self._credit -= packet.wire_size
            sequence = packet.header.get("adu_seq")
            if sequence is not None:
                key = (packet.flow_id, int(sequence))
                remaining = self._held.get(key, 0) - 1
                if remaining <= 0:
                    self._held.pop(key, None)
                else:
                    self._held[key] = remaining
            # The shaped-train tags downstream elements preserve: the
            # switch queues same-tag packets as one unit, a train-mode
            # link closes its open train on a tag boundary.
            packet.header["train"] = train_id
            packet.header["train_len"] = n
            self._send(packet)
            if on_release is not None:
                callbacks.append((on_release, packet))
        self.trains += 1
        self.counters.record_release(n, full=n >= self.target_train)
        if self.tracer.enabled:
            self.tracer.emit(self.loop.now, "pacing", "release",
                             pacer=self.name, train=train_id, packets=n)
        for on_release, packet in callbacks:
            on_release(packet)
        self._arm()

    def flush(self) -> None:
        """Release everything queued immediately, rate limit ignored.

        Teardown helper: trains still leave whole (tagged runs of up to
        ``target_train``), but no credit is required or consumed.
        """
        while self._queue:
            self._credit = max(self._credit, float(self._need()))
            self._release()
        if self._release_event is not None:
            self._release_event.cancel()
            self._release_event = None

    # ------------------------------------------------------------------
    # Backpressure (AIMD)

    def on_pressure(self, quantum: int) -> None:
        """Fold one receiver drain-pressure quantum into the rate.

        Additive increase while the receiver is comfortably idle,
        multiplicative decrease when it reports backlog — with a
        hold-off so the many ACKs of one congested flight trigger at
        most one back-off per ``backoff_interval``.
        """
        quantum = max(0, min(PRESSURE_MAX, int(quantum)))
        self.counters.record_pressure(quantum)
        now = self.loop.now
        if quantum >= self.high_pressure:
            if now - self.last_backoff_time < self.backoff_interval:
                return
            self.last_backoff_time = now
            if self.first_backoff_time is None:
                self.first_backoff_time = now
            self.rate_bytes_per_s = max(
                self.min_rate_bytes_per_s,
                self.rate_bytes_per_s * self.aimd_backoff,
            )
            self.backoffs += 1
            self.counters.record_backoff()
            self.tracer.emit(now, "pacing", "backoff", pacer=self.name,
                             quantum=quantum, rate=self.rate_bytes_per_s)
        elif quantum <= self.low_pressure:
            self.rate_bytes_per_s = min(
                self.max_rate_bytes_per_s,
                self.rate_bytes_per_s + self.aimd_increase,
            )
            self.raises += 1
            self.counters.record_raise()

    # ------------------------------------------------------------------
    # Introspection

    def snapshot(self) -> dict[str, object]:
        """Pacer state for benches and the CLI."""
        return {
            "rate_bytes_per_s": self.rate_bytes_per_s,
            "queued_packets": len(self._queue),
            "queued_bytes": self._queued_bytes,
            "credit_bytes": self._credit,
            "trains": self.trains,
            "backoffs": self.backoffs,
            "raises": self.raises,
        }
