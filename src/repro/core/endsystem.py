"""A complete receiving end system: network + stage-two + machine model.

This module closes the reproduction's loop.  The transports deliver ADUs
in *simulated network time*; the machine model prices the stage-two
manipulation pipeline in *cycles*.  An :class:`AlfEndSystem` connects
the two: every delivered ADU's stage-two pipeline is executed (really)
and its modelled cycles become the simulated service time of a serial
host processor.  End-to-end goodput then depends on both the network
(loss, bandwidth, recovery) and the engineering of the receive path
(layered vs integrated) — which is exactly the claim of the paper: ILP
is an *end-system* engineering choice with end-to-end consequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.adu import Adu
from repro.core.app import ApplicationProcess
from repro.errors import ApplicationError
from repro.ilp.executor import IntegratedExecutor, LayeredExecutor
from repro.ilp.pipeline import Pipeline
from repro.machine.profile import MachineProfile
from repro.net.host import Host
from repro.sim.eventloop import EventLoop
from repro.stages.base import Facts, Stage
from repro.transport.alf import AlfReceiver
from repro.transport.base import DeliveredAdu


@dataclass
class EndSystemStats:
    """What the end system accomplished."""

    adus_processed: int = 0
    payload_bytes: int = 0
    total_cycles: float = 0.0
    processing_failures: int = 0

    def goodput_bps(self, elapsed: float) -> float:
        """Application-level goodput over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.payload_bytes * 8 / elapsed


class AlfEndSystem:
    """An ALF receiver whose host CPU is the machine model.

    Args:
        loop: simulation event loop.
        host: local host.
        peer: sender's host name.
        flow_id: association id.
        machine: the host CPU's profile; stage-two cycles on this profile
            become simulated processing time.
        stage_two: factory building the manipulation stages for one ADU.
        integrated: engineer the receive path as integrated loops.
        speculative: allow optimistic in-loop fact consumption.
        expected_adus: for completion reporting.
        on_processed: callback after an ADU clears the host processor.
    """

    def __init__(
        self,
        loop: EventLoop,
        host: Host,
        peer: str,
        flow_id: int,
        machine: MachineProfile,
        stage_two: Callable[[Adu], list[Stage]],
        integrated: bool = True,
        speculative: bool = False,
        expected_adus: int | None = None,
        on_processed: Callable[[Adu], None] | None = None,
    ):
        self.loop = loop
        self.machine = machine
        self.stage_two = stage_two
        self.on_processed = on_processed
        self.stats = EndSystemStats()
        if integrated:
            self._executor: LayeredExecutor | IntegratedExecutor = (
                IntegratedExecutor(machine, speculative=speculative)
            )
        else:
            self._executor = LayeredExecutor(machine)
        # The host processor: a serial server; service times are supplied
        # per ADU from the modelled cycles, so the nominal rate is unused.
        self.processor = ApplicationProcess(loop, processing_rate_bps=1.0)
        self.receiver = AlfReceiver(
            loop, host, peer, flow_id,
            deliver=self._on_delivered,
            expected_adus=expected_adus,
        )

    def _on_delivered(self, delivered: DeliveredAdu) -> None:
        adu = Adu(delivered.sequence, delivered.payload, dict(delivered.name))
        pipeline = Pipeline(
            self.stage_two(adu),
            name=f"adu-{adu.sequence}",
            initial_facts={Facts.EXTRACTED, Facts.DEMUXED, Facts.ADU_COMPLETE},
        )
        try:
            _, report = self._executor.execute(pipeline, adu.payload)
        except ApplicationError:
            self.stats.processing_failures += 1
            return
        service_time = self.machine.seconds_for_cycles(report.total_cycles)
        self.stats.total_cycles += report.total_cycles
        self.processor.submit(
            adu.sequence, len(adu.payload), duration=service_time
        )
        self.stats.adus_processed += 1
        self.stats.payload_bytes += len(adu.payload)
        if self.on_processed is not None:
            self.on_processed(adu)

    @property
    def completion_time(self) -> float:
        """When the host processor finished its last ADU (0 if none)."""
        if not self.processor.completed:
            return 0.0
        return self.processor.completed[-1].finished_at
