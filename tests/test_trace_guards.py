"""Trace records on the incast path are built only when tracing is on.

Four emits sit on paths a congested run takes thousands of times: the
sender's ``retransmit``, the switch's ``queue-drop``, the pacer's
``release`` and the drain engine's ``register``.  Each is guarded by
``tracer.enabled``, so a run with tracing off builds none of their
records, while a traced run still records every one.
"""

from __future__ import annotations

from repro.bench.workloads import octet_payload
from repro.core.adu import Adu
from repro.net.topology import hosts_via_switch
from repro.sim.trace import Tracer
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import TrainPacer

GUARDED = {
    ("alf", "retransmit"),
    ("switch", "queue-drop"),
    ("pacing", "release"),
    ("drain", "register"),
}


class EmitLog(Tracer):
    """A tracer that logs every ``emit`` call, enabled or not."""

    def __init__(self, enabled: bool):
        super().__init__(enabled=enabled)
        self.calls: list[tuple[str, str]] = []

    def emit(self, time, category, message, **fields):
        self.calls.append((category, message))
        super().emit(time, category, message, **fields)


def incast(tracer: Tracer) -> None:
    """Four paced senders burst into one switch port with a 4-packet
    queue: the port drops, the senders retransmit, every ADU lands."""
    senders = [f"s{index}" for index in range(4)]
    net = hosts_via_switch(senders + ["hub"], seed=3, queue_capacity=4)
    net.switch.tracer = tracer
    hub = net.hosts["hub"]
    engine = SharedDrainEngine(net.loop, tracer=tracer)
    delivered = []
    for flow_id, name in enumerate(senders, start=1):
        AlfReceiver(net.loop, hub, name, flow_id,
                    deliver=lambda adu: delivered.append(adu.sequence),
                    drain_engine=engine)
        pacer = TrainPacer(net.loop, rate_bytes_per_s=1e6, target_train=4,
                           tracer=tracer, name=f"pacer-{name}")
        sender = AlfSender(net.loop, net.hosts[name], "hub", flow_id, mtu=512,
                           pacing=pacer, rto=0.05, tracer=tracer)
        for sequence in range(4):
            sender.send_adu(Adu(sequence, octet_payload(2048, seed=sequence)))
    net.loop.run(until=5.0)
    assert sorted(delivered) == sorted(list(range(4)) * 4)


def test_untraced_run_builds_no_guarded_record():
    tracer = EmitLog(enabled=False)
    incast(tracer)
    assert not GUARDED & set(tracer.calls)
    assert tracer.records == []


def test_traced_run_records_every_guarded_emit():
    tracer = EmitLog(enabled=True)
    incast(tracer)
    recorded = {(record.category, record.message) for record in tracer.records}
    assert GUARDED <= recorded
