"""Property: paced egress is byte-identical and exactly-once.

The invariant the pacer promises: shaping is a *timing* change, never a
semantic one.  For any mix of flows, loss, reordering and duplication,
a transfer driven through a :class:`TrainPacer` recovers to the exact same
delivered bytes as the unpaced sender, each ADU exactly once.

ADUs stay single-fragment (payloads below the MTU) and recovery runs in
TRANSPORT_BUFFER mode with a generous attempt budget, so both the paced
and unpaced runs are expected to *complete*; the comparison is between
their full delivered sets (the RNG draw sequences differ under pacing,
so per-packet fate is not comparable — final semantics are).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.adu import Adu
from repro.machine.accounting import ShardCounters
from repro.net.shard import ShardedHost
from repro.net.topology import two_hosts
from repro.transport.alf import AlfSender, RecoveryMode

from tests.test_net_shard import adu_payload, bind_flow
from tests.test_packet_trains_property import assert_exactly_once, fingerprint


CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_flows": st.integers(min_value=1, max_value=3),
        "adus_per_flow": st.integers(min_value=1, max_value=5),
        "adu_bytes": st.integers(min_value=16, max_value=192),
        "loss_rate": st.sampled_from([0.0, 0.1]),
        "duplicate_rate": st.sampled_from([0.0, 0.1]),
        "reorder_rate": st.sampled_from([0.0, 0.1]),
        "rate": st.sampled_from([50_000.0, 250_000.0]),
        "target_train": st.sampled_from([2, 4, 8]),
    }
)


def run_case(case: dict, paced: bool) -> dict:
    """One recovered end-to-end run; per-flow delivered payload lists."""
    path = two_hosts(
        seed=case["seed"],
        bandwidth_bps=50e6,
        loss_rate=case["loss_rate"],
        duplicate_rate=case["duplicate_rate"],
        reorder_rate=case["reorder_rate"],
        max_train=8,
        train_window=1e-3,
        pacing=paced,
        rate=case["rate"],
        target_train=case["target_train"],
    )
    sharded = ShardedHost(path.b, 4, counters=ShardCounters())
    sharded.attach_link(path.a_to_b)
    delivered: dict[int, list[bytes]] = {}
    flows = list(range(1, case["n_flows"] + 1))
    senders = []
    done: list[int] = []
    try:
        for flow_id in flows:
            bind_flow(sharded, flow_id, delivered)
            sender = AlfSender(
                path.loop, path.a, "b", flow_id,
                recovery=RecoveryMode.TRANSPORT_BUFFER,
                rto=0.1, max_attempts=60,
                pacing=path.pacer if paced else None,
                on_complete=lambda: done.append(1),
            )
            senders.append(sender)
            for i in range(case["adus_per_flow"]):
                sender.send_adu(
                    Adu(i, adu_payload(1000 * flow_id + i, case["adu_bytes"]),
                        {"i": i})
                )
            sender.close()
        # Recovery needs rounds: the main loop runs link + retransmit
        # timers, the shard drain settles delivery + ACK emission.
        for _ in range(200):
            path.loop.run(until=path.loop.now + 0.5)
            sharded.drain()
            if len(done) == len(flows):
                break
        path.loop.run(until=path.loop.now + 0.5)
        sharded.drain()
    finally:
        sharded.shutdown()
    assert len(done) == len(flows), "a sender failed to complete recovery"
    assert all(not s.adus_abandoned for s in senders)
    return delivered


def offered(case: dict) -> dict[int, list[bytes]]:
    return {
        flow_id: sorted(
            adu_payload(1000 * flow_id + i, case["adu_bytes"])
            for i in range(case["adus_per_flow"])
        )
        for flow_id in range(1, case["n_flows"] + 1)
    }


@settings(max_examples=20, deadline=None)
@given(case=CASES)
def test_serial_paced_recovers_to_unpaced_bytes(case):
    unpaced = run_case(case, paced=False)
    paced = run_case(case, paced=True)
    assert_exactly_once(unpaced)
    assert_exactly_once(paced)
    assert fingerprint(paced) == fingerprint(unpaced) == offered(case)
