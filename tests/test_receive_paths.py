"""Both receive routes end in one verify-and-deliver step.

An ALF receiver verifies a completed ADU on arrival (no drain engine)
or queues it for a :class:`~repro.transport.drain.SharedDrainEngine`;
either way :meth:`AlfReceiver.resolve_drained` compares the checksum,
releases the buffers and delivers.  FEC-recovered ADUs take the same
routes.  The property drives every combination of route, reassembly
form, cipher and FEC over a lossy, corrupting, duplicating link, per
packet or in trains, with pooled receive buffers and a prompt or a
delayed drain, and checks the outcome the application and the pools
see.  Once every ADU is delivered the receiver holds no reassembly row
and the loop no event: a late fragment of an ADU that is complete but
not yet drained must not open a partial that nothing completes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.buffers.pool import BufferPool
from repro.core.adu import Adu
from repro.net.host import Host
from repro.net.link import Link
from repro.sim.eventloop import EventLoop
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.drain import SharedDrainEngine

KEY = 0x5EED1234
MTU = 256


@settings(max_examples=60, deadline=None)
@given(
    drained=st.booleans(),
    zero_copy=st.booleans(),
    encrypted=st.booleans(),
    fec_group=st.sampled_from([None, 4]),
    loss=st.floats(0.0, 0.1),
    corruption=st.floats(0.0, 0.05),
    duplication=st.floats(0.0, 0.3),
    max_train=st.sampled_from([1, 16]),
    max_delay=st.sampled_from([0.0, 5e-3]),
    sizes=st.lists(st.integers(0, 1200), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_every_route_delivers_each_adu_once_with_its_bytes(
    drained, zero_copy, encrypted, fec_group, loss, corruption, duplication,
    max_train, max_delay, sizes, seed,
):
    loop = EventLoop()
    pools = [BufferPool(256, MTU, label=f"rx-{name}") for name in "ab"]
    a = Host(loop, "a", rx_pool=pools[0])
    b = Host(loop, "b", rx_pool=pools[1])
    forward = Link(loop, random.Random(seed), bandwidth_bps=1e8,
                   loss_rate=loss, corrupt_rate=corruption,
                   duplicate_rate=duplication, max_train=max_train,
                   train_window=1e-3 if max_train > 1 else 0.0)
    reverse = Link(loop, random.Random(seed + 1), bandwidth_bps=1e8,
                   loss_rate=loss)
    forward.connect(b.receive)
    reverse.connect(a.receive)
    a.add_link("b", forward)
    b.add_link("a", reverse)

    engine = SharedDrainEngine(loop, max_delay=max_delay) if drained else None
    key = KEY if encrypted else None
    delivered: list[tuple[int, bytes]] = []
    receiver = AlfReceiver(
        loop, b, "a", 1,
        deliver=lambda d: delivered.append((d.sequence, bytes(d.payload))),
        zero_copy=zero_copy, encryption=key, drain_engine=engine,
    )
    sender = AlfSender(
        loop, a, "b", 1, mtu=MTU, fec_group=fec_group, encryption=key,
        max_attempts=60,
    )
    rng = random.Random(seed)
    payloads = [rng.randbytes(size) for size in sizes]
    for sequence, payload in enumerate(payloads):
        sender.send_adu(Adu(sequence, payload, {"i": sequence}))
    sender.close()
    loop.run(until=60.0)
    assert receiver.quiescent
    assert loop.next_event_time() is None
    receiver.close()
    if engine is not None:
        engine.shutdown()

    assert not sender.adus_abandoned
    assert sorted(sequence for sequence, _ in delivered) == list(
        range(len(payloads))
    )
    assert dict(delivered) == dict(enumerate(payloads))
    for pool in pools:
        assert pool.leak_report() == []
