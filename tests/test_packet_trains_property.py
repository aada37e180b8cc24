"""Property: train-mode delivery is byte-identical and exactly-once.

The invariant the link's train mode promises: aggregation is a control
optimization, never a semantic change.  For any mix of flows, loss,
corruption, duplication and train boundaries, a seeded run delivers the
exact same ADU bytes — each at most once — whether the link hands the
sharded host one packet per upcall or whole trains.

ADUs stay single-fragment (payloads below the MTU) so a lost packet is
a lost ADU in both modes and the comparison stays crisp.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.machine.accounting import ShardCounters
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts

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
