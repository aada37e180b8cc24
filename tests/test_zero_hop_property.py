"""Property: steered ingress delivers exactly what front-end demux does.

The zero-hop path is a placement optimization, never a semantic change.
For any mix of flows, loss, corruption, duplication, reordering and
train boundaries — and even with a bucket migration forced between the
first and second half of the run — a seeded steered run delivers the
exact same ADU bytes, each at most once, as the same run demuxed
per-packet through the front end.

ADUs stay single-fragment (payloads below the MTU) so a lost packet is
a lost ADU in both modes and the comparison stays crisp.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.machine.accounting import ShardCounters
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts
from repro.transport.alf.receiver import PROTOCOL

from tests.test_net_shard import adu_packets, adu_payload, bind_flow
from tests.test_packet_trains_property import assert_exactly_once, fingerprint


CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_flows": st.integers(min_value=1, max_value=4),
        "adus_per_flow": st.integers(min_value=2, max_value=6),
        "adu_bytes": st.integers(min_value=16, max_value=192),
        "loss_rate": st.sampled_from([0.0, 0.1, 0.3]),
        "corrupt_rate": st.sampled_from([0.0, 0.1, 0.3]),
        "duplicate_rate": st.sampled_from([0.0, 0.1]),
        "reorder_rate": st.sampled_from([0.0, 0.1]),
        "max_train": st.sampled_from([2, 3, 8, 16]),
        "train_window": st.sampled_from([1e-4, 1e-3, 1e-2]),
        "migrate": st.booleans(),
    }
)


def run_case(case: dict, steer: bool, max_train: int) -> dict:
    """One end-to-end run; returns per-flow delivered payload lists.

    ``case["migrate"]`` forces every flow's bucket one shard over
    between the two halves of the stream — through the safe commit
    path, so a flow mid-reassembly simply stays put.
    """
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
    sharded.attach_link(path.a_to_b, steer=steer and max_train > 1)
    delivered: dict[int, list[bytes]] = {}
    flows = list(range(1, case["n_flows"] + 1))
    streams = {}
    try:
        for flow_id in flows:
            _, receiver = bind_flow(sharded, flow_id, delivered)
            sharded.register_flow(PROTOCOL, flow_id, receiver)
            payloads = [
                adu_payload(1000 * flow_id + i, case["adu_bytes"])
                for i in range(case["adus_per_flow"])
            ]
            streams[flow_id] = adu_packets(flow_id, payloads)
        half = case["adus_per_flow"] // 2
        for round_no in range(half):
            for flow_id in flows:
                path.a.send(streams[flow_id][round_no])
        path.loop.run()
        sharded.drain()
        if case["migrate"]:
            for flow_id in flows:
                bucket = sharded.steering.bucket_of(PROTOCOL, flow_id)
                target = (sharded.steering.map[bucket] + 1) % 4
                sharded.migrate_bucket(bucket, target)
        for round_no in range(half, case["adus_per_flow"]):
            for flow_id in flows:
                path.a.send(streams[flow_id][round_no])
        path.loop.run()
        sharded.drain()
    finally:
        reports = sharded.shutdown()
        assert all(report == [] for report in reports.values())
    return delivered


@settings(max_examples=30, deadline=None)
@given(case=CASES)
def test_serial_steered_matches_front_demux(case):
    baseline = run_case(case, steer=False, max_train=1)
    steered = run_case(case, steer=True, max_train=case["max_train"])
    assert_exactly_once(baseline)
    assert_exactly_once(steered)
    assert fingerprint(steered) == fingerprint(baseline)
