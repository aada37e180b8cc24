"""ALF packetization without fragment records.

The sender builds each wire header straight from the ADU's payload
pieces (``fragment_payloads``), and the receiver takes whole ADUs as
runs, so a whole ADU crosses the stack without one ``AduFragment``.
These tests pin the sender's wire units to what ``fragment_adu``
records, headed by ``AlfSender._header``, produce, for ``bytes`` and
``BufferChain`` ADUs alike, and count fragment records end to end.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.core.adu import Adu, AduFragment, fragment_adu
from repro.integrity import IntegrityPolicy
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.topology import sharded_ingress, two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.lwts import LwtsCodec
from repro.sim.eventloop import EventLoop
from repro.stages.presentation import PresentationBinding
from repro.transport.alf.receiver import PROTOCOL, AlfReceiver
from repro.transport.alf.sender import AlfSender

from tests.test_run_receive import counting

FLOW = 1
MTU = 64
KEY = 0x5A5AC3D2
SIZES = (0, 1, MTU - 1, MTU, MTU + 1, 16 * 1024)
FLOWS = {
    "plain": {},
    "lwts_cipher": {
        "presentation": PresentationBinding(
            ArrayOf(Int32(), fixed_count=4096),
            LwtsCodec(byte_order="little"),
            LwtsCodec(byte_order="big"),
        ),
        "encryption": KEY,
    },
    "headers_only": {"integrity": IntegrityPolicy.headers_only(6)},
}


def make_sender(flow: str) -> AlfSender:
    loop = EventLoop()
    return AlfSender(loop, Host(loop, "a"), "b", FLOW, mtu=MTU, **FLOWS[flow])


def reference_units(sender: AlfSender, adu: Adu) -> list:
    """The wire units as fragment records would make them."""
    payload, checksum = sender._wire_form(adu)
    wire = dataclasses.replace(adu, payload=payload)
    return [
        (
            AlfSender._header(
                fragment.adu_sequence, fragment.index, fragment.total,
                fragment.adu_length, fragment.adu_checksum, fragment.name,
            ),
            fragment.payload,
        )
        for fragment in fragment_adu(wire, sender.mtu, checksum=checksum)
    ]


def release(units) -> None:
    for _, piece in units:
        if isinstance(piece, BufferChain):
            piece.release()


def as_bytes(piece) -> bytes:
    return piece.linearize() if isinstance(piece, BufferChain) else bytes(piece)


def assert_same_units(units, reference, adu: Adu) -> None:
    assert [header for header, _ in units] == [header for header, _ in reference]
    assert [type(piece) for _, piece in units] == [
        type(piece) for _, piece in reference
    ]
    assert [as_bytes(piece) for _, piece in units] == [
        as_bytes(piece) for _, piece in reference
    ]
    names = [header["name"] for header, _ in units]
    assert len({id(name) for name in names}) == len(names)
    assert all(name is not adu.name for name in names)


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("chain", [False, True])
@pytest.mark.parametrize("size", SIZES)
def test_wire_units_match_fragment_records(flow, chain, size):
    sender = make_sender(flow)
    payload = random.Random(size).randbytes(size)
    adu = Adu(3, BufferChain.wrap(payload) if chain else payload,
              {"file": "f", "at": 3})
    units = list(sender._wire_units(adu))
    reference = reference_units(sender, adu)
    assert len(units) == max(1, -(-size // MTU))
    assert_same_units(units, reference, adu)
    if flow != "lwts_cipher" and size:
        # An unconverted ADU goes out in windows of its own type.
        kind = BufferChain if chain else (bytes if size <= MTU else memoryview)
        assert all(type(piece) is kind for _, piece in units)
    release(units)
    release(reference)
    sender._drop_wire_memo(adu.sequence)


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("size", (1, MTU, MTU + 1, 16 * 1024))
def test_chain_payload_refcounts_unchanged_after_release(flow, size):
    pool = BufferPool(64, 1024, label="app")
    chain = pool.dma_chain(random.Random(size).randbytes(size))
    before = [segment.refcount for segment in chain.segments]
    sender = make_sender(flow)
    adu = Adu(5, chain, {"at": 5})
    units = list(sender._wire_units(adu))
    reference = reference_units(sender, adu)
    assert_same_units(units, reference, adu)
    release(units)
    release(reference)
    sender._drop_wire_memo(adu.sequence)
    assert [segment.refcount for segment in chain.segments] == before
    chain.release()
    assert pool.leak_report() == []


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("size", (MTU, 16 * 1024))
def test_chain_adus_cross_a_default_sender_end_to_end(flow, size):
    pool = BufferPool(64, 1024, label="app")
    payloads = [random.Random(size + s).randbytes(size) for s in range(3)]
    chains = [pool.dma_chain(payload) for payload in payloads]
    before = [[segment.refcount for segment in c.segments] for c in chains]
    path = two_hosts(seed=5, bandwidth_bps=1e9)
    delivered = {}
    AlfReceiver(path.loop, path.b, "a", FLOW,
                deliver=lambda d: delivered.__setitem__(d.sequence, bytes(d.payload)),
                **FLOWS[flow])
    sender = AlfSender(path.loop, path.a, "b", FLOW, mtu=MTU, **FLOWS[flow])
    for sequence, chain in enumerate(chains):
        sender.send_adu(Adu(sequence, chain, {"s": sequence}))
    path.loop.run(until=10.0)
    assert delivered == dict(enumerate(payloads))
    assert sender.outstanding_count == 0 and sender._wire == {}
    assert [[segment.refcount for segment in c.segments] for c in chains] == before
    for chain in chains:
        chain.release()
    assert pool.leak_report() == []


def send_and_count(n_fragments: int, scramble: bool = False) -> tuple:
    """Send four ``n_fragments``-fragment ADUs on a 4-shard ingress;
    return the ``AduFragment`` constructions and what was delivered."""
    made: Counter = Counter()
    with counting(AduFragment, "__post_init__", made):
        ing = sharded_ingress(shards=4, max_train=16, train_window=1e-3,
                              pool_buffers=256)
        shard = ing.sharded.shard_for(PROTOCOL, FLOW)
        delivered = []
        AlfReceiver(shard.loop, shard.host, "a", FLOW,
                    deliver=lambda adu: delivered.append(bytes(adu.payload)),
                    ack_interval=0, drain_engine=shard.engine)
        sender = AlfSender(ing.loop, ing.a, "b", FLOW, mtu=MTU)
        payloads = [random.Random(s).randbytes(n_fragments * MTU)
                    for s in range(4)]
        adus = [Adu(s, payload, {"s": s}) for s, payload in enumerate(payloads)]
        if scramble:
            # ADU 0 goes out by hand with its first two fragments
            # swapped: the only partial ADU here.
            units = list(sender._wire_units(adus[0]))
            units[0], units[1] = units[1], units[0]
            for header, piece in units:
                ing.a.send(Packet(src="a", dst="b", protocol=PROTOCOL,
                                  flow_id=FLOW, header=header, payload=piece))
            adus = adus[1:]
        for adu in adus:
            sender.send_adu(adu)
        ing.loop.run()
        ing.sharded.drain()
    assert not any(ing.sharded.shutdown().values())
    return made["__post_init__"], delivered, payloads


@pytest.mark.parametrize("n_fragments", [1, 16])
def test_whole_adus_build_no_fragment_records(n_fragments):
    made, delivered, payloads = send_and_count(n_fragments)
    assert delivered == payloads
    assert made == 0


def test_only_an_out_of_order_partial_builds_fragment_records():
    made, delivered, payloads = send_and_count(16, scramble=True)
    assert sorted(delivered) == sorted(payloads)
    assert made == 16
