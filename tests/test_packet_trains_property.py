"""Property: train-mode delivery is byte-identical and exactly-once.

The invariant the link's train mode promises: aggregation is a control
optimization, never a semantic change.  For any mix of flows, loss,
corruption, duplication and train boundaries, a seeded run delivers the
exact same ADU bytes — each at most once — whether the link hands the
sharded host one packet per upcall or whole trains.

ADUs stay single-fragment (payloads below the MTU) so a lost packet is
a lost ADU in both modes and the comparison stays crisp.

A second property pins the sender's one-call hand-over: a run given to
``Link.send`` as one list draws, times, delivers and counts exactly like
the same packets sent one call each.
"""

from __future__ import annotations

import dataclasses
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import NetworkError
from repro.machine.accounting import ShardCounters
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.shard import ShardedHost, SteeringTable
from repro.net.topology import two_hosts
from repro.sim.eventloop import EventLoop

from tests.test_net_shard import adu_packets, adu_payload, bind_flow


CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_flows": st.integers(min_value=1, max_value=4),
        "adus_per_flow": st.integers(min_value=1, max_value=6),
        "adu_bytes": st.integers(min_value=16, max_value=192),
        "loss_rate": st.sampled_from([0.0, 0.1, 0.3]),
        "corrupt_rate": st.sampled_from([0.0, 0.1, 0.3]),
        "duplicate_rate": st.sampled_from([0.0, 0.1]),
        "reorder_rate": st.sampled_from([0.0, 0.1]),
        "max_train": st.sampled_from([2, 3, 8, 16]),
        "train_window": st.sampled_from([1e-4, 1e-3, 1e-2]),
    }
)


def run_case(case: dict, max_train: int) -> dict:
    """One end-to-end run; returns per-flow delivered payload lists."""
    path = two_hosts(
        seed=case["seed"],
        loss_rate=case["loss_rate"],
        corrupt_rate=case["corrupt_rate"],
        duplicate_rate=case["duplicate_rate"],
        reorder_rate=case["reorder_rate"],
        max_train=max_train,
        train_window=case["train_window"] if max_train > 1 else 0.0,
    )
    sharded = ShardedHost(path.b, 4, counters=ShardCounters())
    sharded.attach_link(path.a_to_b)
    delivered: dict[int, list[bytes]] = {}
    flows = list(range(1, case["n_flows"] + 1))
    streams = {}
    try:
        for flow_id in flows:
            bind_flow(sharded, flow_id, delivered)
            payloads = [
                adu_payload(1000 * flow_id + i, case["adu_bytes"])
                for i in range(case["adus_per_flow"])
            ]
            streams[flow_id] = adu_packets(flow_id, payloads)
        # Interleave the flows round-robin, the way concurrent senders
        # would share the wire — runs and train boundaries cut across
        # flow boundaries arbitrarily.
        for round_no in range(case["adus_per_flow"]):
            for flow_id in flows:
                path.a.send(streams[flow_id][round_no])
        path.loop.run()
        sharded.drain()
    finally:
        sharded.shutdown()
    return delivered


def assert_exactly_once(delivered: dict[int, list[bytes]]) -> None:
    for flow_id, payloads in delivered.items():
        assert len(payloads) == len(set(payloads)), (
            f"flow {flow_id} delivered a payload more than once"
        )


def fingerprint(delivered: dict[int, list[bytes]]) -> dict[int, list[bytes]]:
    # Reordering can legitimately change per-flow delivery *order*
    # (a reordered packet misses its train in one mode and not the
    # other); bytes and multiplicity must not change.
    return {flow_id: sorted(payloads) for flow_id, payloads in delivered.items()}


@settings(max_examples=30, deadline=None)
@given(case=CASES)
def test_serial_train_delivery_matches_packet_at_a_time(case):
    baseline = run_case(case, max_train=1)
    trains = run_case(case, max_train=case["max_train"])
    assert_exactly_once(baseline)
    assert_exactly_once(trains)
    assert fingerprint(trains) == fingerprint(baseline)


# ----------------------------------------------------------------------
# A run is its packets: ``Link.send(list)`` against one call per packet

MTU = 128

RUN_CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "runs": st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=MTU),  # payload size
                    st.sampled_from([("alf", 1), ("alf", 2), ("other", 1)]),
                ),
                min_size=1,
                max_size=32,
            ),
            min_size=2,
            max_size=3,
        ),
        "loss_rate": st.sampled_from([0.0, 0.2]),
        "corrupt_rate": st.sampled_from([0.0, 0.3]),
        "reorder_rate": st.sampled_from([0.0, 0.2]),
        "duplicate_rate": st.sampled_from([0.0, 0.2]),
        "corrupt_span": st.sampled_from([None, (0, 4), (40, 200)]),
        "max_train": st.sampled_from([1, 4, 16]),
        "steering": st.booleans(),
        "tagged": st.booleans(),
        "gap": st.sampled_from([0.0, 2e-5, 1e-2]),
        # A rate changed between the first and the second run.
        "change": st.sampled_from(
            [None, ("loss_rate", 0.5), ("corrupt_rate", 0.5),
             ("reorder_rate", 0.5), ("duplicate_rate", 0.5),
             ("bandwidth_bps", 3e6)]
        ),
        # Index (clamped to the first run) of a packet over the MTU.
        "oversize_at": st.none() | st.integers(min_value=0, max_value=31),
    }
)


def run_packets(case: dict) -> list[list[Packet]]:
    """Fresh packets for every run (links mutate corrupted packets)."""
    draw = random.Random(case["seed"])
    runs = []
    for run_no, run in enumerate(case["runs"]):
        packets = []
        for index, (size, (protocol, flow_id)) in enumerate(run):
            header = {"run": run_no, "n": index}
            if case["tagged"]:
                header["train"] = run_no
            packets.append(Packet("a", "b", protocol, flow_id, header,
                                  draw.randbytes(size)))
        runs.append(packets)
    oversize_at = case["oversize_at"]
    if oversize_at is not None:
        first = runs[0]
        first[min(oversize_at, len(first) - 1)].payload = bytes(MTU + 1)
    return runs


def seen(packet: Packet) -> tuple:
    return (packet.src, packet.dst, packet.protocol, packet.flow_id,
            dict(packet.header), bytes(packet.payload))


def link_run(case: dict, as_runs: bool):
    """Send the case's runs over a fresh link, each run either as one
    ``send`` call or one call per packet; returns everything observable."""
    loop = EventLoop()
    link = Link(
        loop, random.Random(case["seed"]), bandwidth_bps=10e6,
        propagation_delay=1e-4, loss_rate=case["loss_rate"],
        corrupt_rate=case["corrupt_rate"], reorder_rate=case["reorder_rate"],
        duplicate_rate=case["duplicate_rate"],
        corrupt_span=case["corrupt_span"], mtu=MTU,
        max_train=case["max_train"],
        train_window=1e-4 if case["max_train"] > 1 else 0.0,
    )
    delivered = []
    link.connect(
        lambda packet: delivered.append(("one", loop.now, seen(packet))),
        burst_receiver=lambda packets: delivered.append(
            ("burst", loop.now, [seen(packet) for packet in packets])
        ),
    )
    table = None
    if case["steering"]:
        table = SteeringTable(4, protocols=("alf",), buckets_per_shard=2)
        link.set_steering(table, lambda shard, packets: delivered.append(
            ("steered", shard, loop.now, [seen(packet) for packet in packets])
        ))
    states = []
    for run_no, packets in enumerate(run_packets(case)):
        if run_no == 1 and case["change"] is not None:
            setattr(link, *case["change"])
        oversize = [len(packet.payload) > MTU for packet in packets]
        try:
            if as_runs:
                link.send(packets)
            else:
                for packet in packets:
                    link.send(packet)
            raised = False
        except NetworkError as error:
            assert "exceeds MTU" in str(error)
            raised = True
        assert raised == any(oversize)
        states.append((dataclasses.asdict(link.stats), link.rng.getstate(),
                       link._busy_until))
        loop.run(until=loop.now + case["gap"])
    loop.run()
    table_state = None if table is None else (
        table.snapshot(), table.bucket_packets
    )
    return delivered, states, dataclasses.asdict(link.stats), table_state


@settings(max_examples=150, deadline=None)
@given(case=RUN_CASES)
def test_a_run_is_its_packets(case):
    """One ``Link.send`` of a run draws, times, delivers and counts
    exactly like one call per packet — an oversize packet mid-run
    included, which raises after its prefix went out."""
    assert link_run(case, as_runs=True) == link_run(case, as_runs=False)
