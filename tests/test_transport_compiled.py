"""The compiled wire plan inside the ALF transport and sessions.

Steady-state traffic must plan its wire manipulation exactly once: the
sender and receiver of a flow share one cached :class:`CompiledPlan`,
and the receiver's verification (now an observation comparison instead of
``reassemble_fragments``'s internal pass) still rejects corrupt ADUs.
"""

import struct

from repro.bench.workloads import octet_payload
from repro.core.adu import Adu, fragment_adu
from repro.ilp.compiler import PlanCache
from repro.net.packet import Packet
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.negotiate import LocalSyntax
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)

SCHEMAS = {
    "ints": ArrayOf(Int32()),
    "fixed": ArrayOf(Int32(), fixed_count=64),
}


def make_adus(count=12, size=2500):
    return [
        Adu(i, octet_payload(size, seed=300 + i), {"offset": i * size})
        for i in range(count)
    ]


def make_flow(cache, expected=None, seed=0, **sender_kwargs):
    path = two_hosts(seed=seed, bandwidth_bps=50e6)
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, d),
        expected_adus=expected,
        plan_cache=cache,
    )
    sender = AlfSender(path.loop, path.a, "b", 1, plan_cache=cache, **sender_kwargs)
    return path, sender, receiver, got


class TestSharedWirePlan:
    def test_one_compile_serves_both_ends(self):
        cache = PlanCache()
        adus = make_adus()
        path, sender, receiver, got = make_flow(cache, expected=len(adus))
        for adu in adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=60)
        assert len(got) == len(adus)
        # The sender checksummed every ADU and the receiver verified
        # every ADU, all through ONE compiled plan.
        assert cache.stats.misses == 1
        assert cache.stats.hits >= 1
        assert sender.wire_plan is receiver.wire_plan

    def test_wire_plan_is_fully_lowered_single_loop(self):
        cache = PlanCache()
        path, sender, receiver, _ = make_flow(cache)
        assert sender.wire_plan.fully_lowered
        assert sender.wire_plan.n_loops == 1


class TestCompiledVerification:
    def test_corrupt_checksum_rejected_nothing_delivered(self):
        cache = PlanCache()
        path, _, receiver, got = make_flow(cache)
        adu = Adu(0, octet_payload(2000, seed=9), {"offset": 0})
        wrong = (adu.checksum + 1) & 0xFFFF
        for fragment in fragment_adu(adu, 800, checksum=wrong):
            path.a.send(
                Packet(
                    src="a",
                    dst="b",
                    protocol="alf",
                    flow_id=1,
                    header={
                        "adu_seq": fragment.adu_sequence,
                        "frag": fragment.index,
                        "nfrags": fragment.total,
                        "adu_len": fragment.adu_length,
                        "adu_csum": fragment.adu_checksum,
                        "name": fragment.name,
                    },
                    payload=fragment.payload,
                )
            )
        path.loop.run(until=5)
        assert receiver.stats.checksum_failures == 1
        assert got == {}
        assert receiver.delivered_count == 0


class TestSessionCompiledPlan:
    """An association's wire plan is its endpoints' ``wire_plan``."""

    def run_handshake(self, listener_syntax, initiator_syntax, cache,
                      schema="ints", presentation=False):
        path = two_hosts(seed=1)
        listener = SessionListener(
            path.loop, path.b, SCHEMAS,
            local_syntax=listener_syntax,
            plan_cache=cache,
            presentation=presentation,
        )
        initiator = SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name=schema, local_syntax=initiator_syntax),
            SCHEMAS,
            plan_cache=cache,
            presentation=presentation,
        )
        path.loop.run(until=5)
        assert initiator.established
        peer = listener.sessions[initiator.session.flow_id]
        return initiator.session.sender, peer.receiver

    def test_both_ends_share_one_plan_matching_orders(self):
        cache = PlanCache()
        sender, receiver = self.run_handshake(
            LocalSyntax("listener", "big"), LocalSyntax("init", "big"), cache
        )
        assert sender.wire_plan is receiver.wire_plan
        assert sender.wire_plan.fully_lowered
        # Same byte order: checksum only, no conversion stage.
        assert sender.wire_plan.n_stages == 1

    def test_byteswap_added_when_byte_orders_differ(self):
        cache = PlanCache()
        sender, receiver = self.run_handshake(
            LocalSyntax("listener", "little"), LocalSyntax("init", "big"),
            cache, schema="fixed", presentation=True,
        )
        # The sender converts to the listener's order fused with its
        # checksum; the receiver verifies the wire bytes it was sent.
        assert sender.wire_plan.fully_lowered
        assert sender.wire_plan.n_stages == 2
        assert "convert" in sender.wire_plan.groups[0].label
        values = list(range(-32, 32))
        wire, _ = sender.wire_plan.run(struct.pack(">64i", *values))
        assert wire == struct.pack("<64i", *values)  # a word byteswap
        assert receiver.wire_plan.n_stages == 1
        assert sender.wire_plan is not receiver.wire_plan

    def test_session_plan_compiles_on_first_read(self):
        cache = PlanCache()
        sender, receiver = self.run_handshake(
            LocalSyntax("listener", "little"), LocalSyntax("init", "big"), cache
        )

        def lookups():
            snapshot = cache.snapshot()
            return snapshot["hits"] + snapshot["misses"]

        # The handshake itself looked up no wire plan: the first read
        # compiles it, the peer's first read hits the same cache entry,
        # and later reads reuse the plan without a lookup.
        before = lookups()
        plan = sender.wire_plan
        assert lookups() == before + 1
        assert receiver.wire_plan is plan
        assert lookups() == before + 2
        assert sender.wire_plan is plan and receiver.wire_plan is plan
        assert lookups() == before + 2
        assert plan.n_stages == 1
