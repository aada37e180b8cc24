"""Host-level shared-plan drain engine: cross-flow ADU batching.

Each flow's wire manipulation is one compiled read pass.  An
:class:`~repro.transport.alf.receiver.AlfReceiver` without an engine
runs it on arrival, one dispatch per ADU — per-connection processing of
what §4 frames as a shared host resource.  With an engine, the receiver
queues each completed ADU as a ready row instead; either way the row
ends in the receiver's ``resolve_drained``, the one place that compares
the checksum, counts failures, releases buffers and delivers.
Once demultiplexing has tagged each ADU with its flow state, the
*manipulation* (verify + decrypt + convert) is identical for every flow
whose wire plan has the same shape, so nothing prevents batching rows
from different associations into one vectorized dispatch.

:class:`SharedDrainEngine` does exactly that.  Receivers register keyed
by their :attr:`~repro.transport.alf.receiver.AlfReceiver.drain_key`
(compiled-plan cache key × schema fingerprint × cipher token ×
integrity-policy fingerprint); each
drain epoch coalesces the completed-but-unverified ADUs of *all* flows
sharing a key into one ``run_batch`` call:

* **fairness** — rows are collected round-robin across the group's
  flows (rotating the starting flow each dispatch), so under the
  max-rows cap no flow can monopolize a batch;
* **flush policy** — an epoch fires on the event loop either
  immediately when the pending backlog reaches ``max_rows`` or after
  ``max_delay`` from the first pending row (the default 0.0 drains on
  the next zero-delay event, within the arrival's timestep);
* **corruption isolation** — verification is per row; a corrupt ADU is
  charged to its owning flow's ``stats.checksum_failures`` and released,
  without discarding any other flow's rows;
* **exactly-once delivery** — each verified row is routed back through
  its owning receiver's normal delivery path, which dedupes on the
  flow's delivered-set;
* **adaptive epochs** (``adaptive=True``) — the engine tracks offered
  load as a leaky integrator of pending rows: every ready notification
  adds :data:`EWMA_ALPHA` × its pending backlog to the pressure, and the
  pressure halves each ``max_delay`` of silence.  The flush policy
  scales with it — sustained arrivals earn longer windows (up to
  :data:`ADAPTIVE_BOOST` × the configured ``max_delay``) so more rows
  coalesce per dispatch, while an idle engine collapses to an
  immediate flush: burst amortization when there are bursts, per-ADU
  latency when there are not.  Two orderings matter.  Each
  notification computes its flush delay *before* folding itself into
  the pressure, so the first lone ADU after silence always flushes
  immediately.  And the signal integrates *arrivals* rather than
  averaging queue depth or dispatch size — either of those
  self-extinguishes, because an engine stuck flushing immediately only
  ever sees depth-1 queues and size-1 dispatches no matter how fast
  rows pour in.

Backlog bookkeeping is linear in the rows, not in the registered
flows.  The engine keeps a running count of queued rows (so sizing the
backlog on each notification is O(1)) and, per plan group, the set of
flows that actually hold rows: ``notify_ready`` adds a flow, a drain
window removes the flows it empties, and ``unregister``, ``shutdown``
and the receiver's own :meth:`ready_discarded` hook retire the rest.
A window orders just those backlogged flows by registration ordinal and
rotates the start, so dispatch order is the registration-order
round-robin a walk over every flow would produce — without visiting
the idle ones.

Dispatch amortization is measured, not asserted:
:class:`~repro.machine.accounting.DrainCounters` (the engine's
``counters``) counts dispatches, rows per dispatch, cross-flow
batches, fairness stalls and the flows the bookkeeping touches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import TransportError
from repro.machine.accounting import DrainCounters
from repro.sim.eventloop import Event, EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer
from repro.transport.alf.wire import WIRE_CHECKSUM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.transport.alf.receiver import AlfReceiver

#: Ceiling on how far backlog may stretch an adaptive engine's effective
#: delay, as a multiple of ``max_delay``.
ADAPTIVE_BOOST = 8.0

#: Weight each ready notification's pending backlog adds to an adaptive
#: engine's pressure integrator.
EWMA_ALPHA = 0.5


@dataclass
class ReadyAdu:
    """One completed-but-unverified ADU: a ready row queued for the
    engine, or, without one, the ADU its receiver resolves on arrival.

    Attributes:
        sequence: the ADU's sequence number on its flow.
        partial: the receiver's reassembly record (fragment buffers are
            released when the row resolves).
        adu: the reassembled ADU (payload may be a scatter-gather chain).
        expected: the checksum the wire plan's observation must match.
        corrupt_spans: ADU-relative ``(lo, hi)`` byte ranges the PHY
            flagged as corrupted that fall outside the flow's integrity
            policy coverage.  Under a tolerant policy a matching row
            delivers with these spans attached (ALF "ignore" mode)
            instead of being discarded.
    """

    sequence: int
    partial: Any
    adu: Any
    expected: int
    corrupt_spans: tuple[tuple[int, int], ...] = ()


@dataclass
class _PlanGroup:
    """The flows sharing one wire-plan shape.

    ``flows`` maps each receiver to its registration ordinal (and
    iterates in registration order); ``ready`` holds only the flows
    with queued rows, so a drain window never visits an idle flow.
    """

    key: Hashable
    flows: dict["AlfReceiver", int] = field(default_factory=dict)
    ready: set["AlfReceiver"] = field(default_factory=set)
    rotation: int = 0


class SharedDrainEngine:
    """Coalesces ready ADUs across flows into shared plan dispatches.

    Args:
        loop: the event loop drain epochs are scheduled on.
        max_rows: cap on ADU rows per ``run_batch`` dispatch.  Reaching
            it flushes immediately; a group whose backlog exceeds it
            splits the epoch into several capped dispatches (counted as
            fairness stalls), each collected round-robin.
        max_delay: seconds a pending row may wait for more rows to
            coalesce.  0.0 (default) drains on the next zero-delay
            event, within the arrival's timestep.
        adaptive: scale the flush policy with the backlog EWMA (see
            module docstring).  False (default) keeps the fixed
            ``max_rows`` / ``max_delay`` policy byte-for-byte.
        ramp_rows: pressure at which the effective delay reaches the
            configured ``max_delay`` (and effective rows reach
            ``max_rows``).  Defaults to ``min(64, max_rows)`` — a
            dispatch-size scale, deliberately independent of a possibly
            huge ``max_rows`` cap.
        counters: drain ledger (defaults to a fresh
            :class:`~repro.machine.accounting.DrainCounters`).
        tracer: optional event tracer.
    """

    def __init__(
        self,
        loop: EventLoop,
        max_rows: int = 256,
        max_delay: float = 0.0,
        adaptive: bool = False,
        ramp_rows: int | None = None,
        counters: DrainCounters | None = None,
        tracer: Tracer | None = None,
    ):
        if max_rows <= 0:
            raise TransportError(f"max_rows must be positive, got {max_rows}")
        if max_delay < 0:
            raise TransportError(f"max_delay must be >= 0, got {max_delay}")
        if ramp_rows is not None and ramp_rows <= 0:
            raise TransportError(f"ramp_rows must be positive, got {ramp_rows}")
        self.loop = loop
        self.max_rows = max_rows
        self.max_delay = max_delay
        self.adaptive = bool(adaptive)
        self.ramp_rows = ramp_rows if ramp_rows is not None else min(64, max_rows)
        self._backlog_ewma = 0.0
        self._ewma_stamp = loop.now
        self.counters = counters if counters is not None else DrainCounters()
        self.tracer = tracer or DISABLED_TRACER
        self._groups: dict[Hashable, _PlanGroup] = {}
        self._flow_groups: dict["AlfReceiver", _PlanGroup] = {}
        self._ordinal = 0  # next registration ordinal
        self._pending = 0  # ready rows queued across registered flows
        self._flush_event: Event | None = None
        self._flush_due: float = 0.0
        self.delivered_total = 0
        # Reentrant because flush() reads pending_rows and notify_ready
        # can run from delivery callbacks inside an in-flight flush.
        # The simulator drives an engine from one thread (shards run
        # serially); the lock guards registration, flushing and
        # snapshots for a caller outside it, so a snapshot taken from
        # another thread never observes a half-applied epoch.
        self._mutex = threading.RLock()

    # ------------------------------------------------------------------
    # Registration

    def register(self, receiver: "AlfReceiver") -> None:
        """Add a flow; its ready rows join its plan-shape group."""
        with self._mutex:
            if receiver in self._flow_groups:
                raise TransportError(
                    f"flow {receiver.flow_id} already registered with this engine"
                )
            key = receiver.drain_key
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _PlanGroup(key)
            group.flows[receiver] = self._ordinal
            self._ordinal += 1
            self._flow_groups[receiver] = group
            if receiver.pending_ready:
                group.ready.add(receiver)
                self._pending += receiver.pending_ready
            self.tracer.emit(self.loop.now, "drain", "register",
                             flow_id=receiver.flow_id, groups=len(self._groups))

    def unregister(self, receiver: "AlfReceiver") -> None:
        """Remove a flow (its still-queued rows stay with the receiver;
        callers that are tearing the flow down should
        ``receiver.discard_ready()`` first)."""
        with self._mutex:
            group = self._flow_groups.pop(receiver, None)
            if group is None:
                return
            del group.flows[receiver]
            group.ready.discard(receiver)
            self._pending -= receiver.pending_ready
            if not group.flows:
                del self._groups[group.key]

    def ready_discarded(self, receiver: "AlfReceiver", rows: int) -> None:
        """A flow emptied its ready queue of ``rows`` rows outside a
        drain window (teardown).  No-op for a flow that is not
        registered here."""
        with self._mutex:
            group = self._flow_groups.get(receiver)
            if group is None:
                return
            group.ready.discard(receiver)
            self._pending -= rows

    @property
    def flow_count(self) -> int:
        """Registered flows."""
        return len(self._flow_groups)

    @property
    def group_count(self) -> int:
        """Distinct wire-plan shapes currently registered."""
        return len(self._groups)

    @property
    def pending_rows(self) -> int:
        """Ready ADUs queued across every registered flow (a running
        count: O(1), however many flows are registered)."""
        return self._pending

    # ------------------------------------------------------------------
    # Adaptive epochs

    def _observe_backlog(self, pending: int) -> None:
        """Fold one backlog observation into the pressure integrator.

        Old pressure halves every ``max_delay`` seconds of silence, so
        an engine that stops seeing rows forgets its burst and returns
        to immediate flushing — without any timer of its own.  Settle
        time is logarithmic in the peak: pressure P falls under one row
        after ``log2(P)`` quiet epochs.
        """
        now = self.loop.now
        if self.max_delay > 0.0:
            elapsed = now - self._ewma_stamp
            if elapsed > 0.0:
                self._backlog_ewma *= 0.5 ** (elapsed / self.max_delay)
        self._ewma_stamp = now
        self._backlog_ewma += EWMA_ALPHA * pending

    @property
    def backlog_ewma(self) -> float:
        """The pressure integrator as of now (decay applied, not stored)."""
        ewma = self._backlog_ewma
        if self.max_delay > 0.0:
            elapsed = self.loop.now - self._ewma_stamp
            if elapsed > 0.0:
                ewma *= 0.5 ** (elapsed / self.max_delay)
        return ewma

    @property
    def effective_max_delay(self) -> float:
        """The epoch window the current backlog earns.

        Idle engines (EWMA under one row) flush immediately; pressure
        ramps the window linearly to ``max_delay`` at ``ramp_rows`` and
        on past it, capped at :data:`ADAPTIVE_BOOST` × ``max_delay``.
        """
        if not self.adaptive:
            return self.max_delay
        ewma = self.backlog_ewma
        if ewma < 1.0:
            return 0.0
        return self.max_delay * min(ADAPTIVE_BOOST, ewma / self.ramp_rows)

    @property
    def effective_max_rows(self) -> int:
        """The dispatch cap the current backlog earns (floor 1/16th)."""
        if not self.adaptive:
            return self.max_rows
        floor = max(1, self.max_rows // 16)
        scaled = int(self.max_rows * self.backlog_ewma / self.ramp_rows)
        return max(floor, min(self.max_rows, scaled))

    @property
    def pressure_quantum(self) -> int:
        """The backlog EWMA folded into the 4-bit ACK field.

        Receivers stamp this on outgoing ACKs (``header["dp"]``) so a
        :class:`~repro.transport.pacing.TrainPacer` at the sender can
        close the rate loop.  Non-adaptive engines (no backlog
        integrator) always report 0 — the sender sees an always-idle
        receiver and additive-increases to its configured maximum.
        """
        if not self.adaptive:
            return 0
        from repro.transport.pacing import quantize_pressure

        return quantize_pressure(self.backlog_ewma, self.ramp_rows)

    # ------------------------------------------------------------------
    # Flush scheduling

    def notify_ready(self, receiver: "AlfReceiver") -> None:
        """A registered flow queued one completed ADU: (re)arm the flush.

        Backlog at or past ``max_rows`` flushes on the next zero-delay
        event; otherwise the epoch fires ``max_delay`` after the first
        pending row (never later than an already-armed flush).
        """
        with self._mutex:
            group = self._flow_groups.get(receiver)
            if group is None:
                raise TransportError(
                    f"flow {receiver.flow_id} is not registered with this engine"
                )
            # O(1): the notifying flow joins its group's ready set and
            # the running count sizes the backlog — no walk over flows.
            group.ready.add(receiver)
            self._pending += 1
            self.counters.record_notify_scan()
            pending = self._pending
            delay = (
                0.0
                if pending >= self.effective_max_rows
                else self.effective_max_delay
            )
            if self.adaptive:
                # Observed AFTER computing the delay: the first row
                # after silence flushes immediately, and only *then*
                # starts re-building pressure.
                self._observe_backlog(pending)
            due = self.loop.now + delay
            if self._flush_event is not None:
                if self._flush_due <= due:
                    return
                self._flush_event.cancel()
            self._flush_event = self.loop.schedule(delay, self._flush_epoch)
            self._flush_due = due

    def _flush_epoch(self) -> None:
        self._flush_event = None
        self.flush()

    # ------------------------------------------------------------------
    # Draining

    def flush(self) -> int:
        """Drain every group's backlog now; returns ADUs delivered.

        Each group issues one ``run_batch`` dispatch per ``max_rows``
        window, rows collected one-per-flow round-robin.  Callers may
        invoke this directly (benchmarks do); scheduled epochs arrive
        here too.
        """
        with self._mutex:
            if self._flush_event is not None:
                self._flush_event.cancel()
                self._flush_event = None
            self.counters.record_epoch()
            delivered = 0
            row_cap = self.effective_max_rows
            for group in list(self._groups.values()):
                delivered += self._drain_group(group, row_cap)
            self.delivered_total += delivered
            return delivered

    def _drain_group(self, group: _PlanGroup, row_cap: int) -> int:
        delivered = 0
        while group.ready:
            # Only backlogged flows, in registration order: the same
            # window a walk over every registered flow would select.
            backlog = sorted(group.ready, key=group.flows.__getitem__)
            self.counters.record_window_scan(len(backlog))
            start = group.rotation % len(backlog)
            order = backlog[start:] + backlog[:start]
            group.rotation += 1
            rows: list[tuple["AlfReceiver", ReadyAdu]] = []
            # Round-robin passes, one row per flow per pass; each pass
            # keeps only the flows that still hold rows.
            active = order
            while active and len(rows) < row_cap:
                active = active[: row_cap - len(rows)]
                for flow in active:
                    rows.append((flow, flow.pop_ready()))
                active = [flow for flow in active if flow.pending_ready]
            for flow in order[:row_cap]:  # every flow this window touched
                if not flow.pending_ready:
                    group.ready.discard(flow)
            self._pending -= len(rows)
            capped = bool(group.ready)
            delivered += self._dispatch(rows, capped)
            if not capped:
                break
        return delivered

    def _dispatch(
        self, rows: list[tuple["AlfReceiver", ReadyAdu]], capped: bool
    ) -> int:
        plan = rows[0][0].wire_plan
        batch = plan.run_batch([entry.adu.payload for _, entry in rows])
        checksums = batch.observations[WIRE_CHECKSUM]
        receivers: list["AlfReceiver"] = []
        seen: set[int] = set()
        for receiver, _ in rows:
            if id(receiver) not in seen:
                seen.add(id(receiver))
                receivers.append(receiver)
        self.counters.record_dispatch(len(rows), len(receivers), capped)
        if self.tracer.enabled:
            self.tracer.emit(self.loop.now, "drain", "dispatch",
                             rows=len(rows), flows=len(receivers), capped=capped)
        # Bracket delivery so each flow coalesces its acks: one ACK per
        # flow per dispatch instead of one per delivered ADU.
        for receiver in receivers:
            receiver.begin_drain_dispatch()
        delivered = 0
        try:
            for (receiver, entry), checksum, out in zip(
                rows, checksums, batch.outputs
            ):
                if checksum != entry.expected:
                    self.counters.record_corrupt_row()
                delivered += receiver.resolve_drained(entry, checksum, out)
        finally:
            for receiver in receivers:
                receiver.finish_drain_dispatch()
        return delivered

    # ------------------------------------------------------------------
    # Teardown

    def shutdown(self) -> None:
        """Stop draining and release every flow's in-flight ready rows.

        Safe mid-drain: each registered receiver discards its queued
        rows (releasing fragment and payload buffer references back to
        their pools) and is unregistered.  The engine can be reused by
        registering flows again.
        """
        with self._mutex:
            if self._flush_event is not None:
                self._flush_event.cancel()
                self._flush_event = None
            for receiver in list(self._flow_groups):
                receiver.discard_ready()
                self.unregister(receiver)

    # ------------------------------------------------------------------
    # Introspection

    def backlog_export(self) -> dict[str, object]:
        """The compact backlog view a sharded front end samples per shard.

        A :class:`~repro.net.shard.RebalancePolicy` wants just the
        load-bearing numbers — queued rows, the pressure integrator,
        lifetime deliveries — without paying for a full counter
        snapshot on every train boundary.
        Taken under the engine mutex for a consistent view.
        """
        with self._mutex:
            return {
                "pending_rows": self.pending_rows,
                "backlog_ewma": self.backlog_ewma if self.adaptive else 0.0,
                "delivered_total": self.delivered_total,
                "pressure_quantum": self.pressure_quantum,
            }

    def snapshot(self) -> dict[str, object]:
        """Engine state plus its counters, for benches and the CLI.

        Taken under the engine mutex, so a snapshot requested while a
        ``_flush_epoch`` is in flight waits for the epoch to finish and
        reports a consistent view (counters, pending backlog and
        delivered totals from the same instant) instead of a torn one.
        """
        with self._mutex:
            data = self.counters.snapshot()
            data["flows"] = self.flow_count
            data["plan_groups"] = self.group_count
            data["pending_rows"] = self.pending_rows
            data["delivered_total"] = self.delivered_total
            data["adaptive"] = self.adaptive
            if self.adaptive:
                data["backlog_ewma"] = self.backlog_ewma
                data["effective_max_rows"] = self.effective_max_rows
                data["effective_max_delay"] = self.effective_max_delay
                data["pressure_quantum"] = self.pressure_quantum
            return data
