"""An endpoint's wire configuration resolves once per configuration.

Two halves.  The plan half: an endpoint fetches its compiled wire plan
through the plan cache by a configuration token (direction, fused
conversion, cipher, integrity, machine profile), and that lookup must be
indistinguishable from compiling the endpoint's wire pipeline through
``get_or_compile`` — the same plan object, the same hits, misses and
evictions, even in a two-entry cache that evicts constantly.  The
conversion half: a codec pair's conversion kernel is built once per pair,
and bring-up of a fused binding builds no byte permutation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adu import Adu
from repro.ilp.compiler import PlanCache
from repro.integrity import IntegrityPolicy
from repro.machine.profile import MICROVAX_III, MIPS_R2000
from repro.net.topology import two_hosts
from repro.presentation import compiler
from repro.presentation.abstract import ArrayOf, Field, Float64, Int32, Struct
from repro.presentation.ber import BerCodec
from repro.presentation.lwts import LwtsCodec
from repro.stages.encrypt import WordXorStage
from repro.stages.presentation import PresentationBinding, PresentationConvertStage
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.wire import WireConfig, wire_pipeline

SCHEMA = Struct(
    (
        Field("a", Int32()),
        Field("b", Float64()),
        Field("c", ArrayOf(Int32(), fixed_count=4)),
    )
)
LITTLE = LwtsCodec(byte_order="little")
BIG = LwtsCodec(byte_order="big")

#: name -> (binding, whether its conversion fuses into the plan)
PRESENTATIONS = {
    "none": (None, False),
    "lwts-le-to-be": (PresentationBinding(SCHEMA, LITTLE, BIG), True),
    "lwts-be-to-le": (PresentationBinding(SCHEMA, BIG, LITTLE), True),
    "ber": (PresentationBinding(SCHEMA, LITTLE, BerCodec()), False),
}
KEYS = (None, 0x5A5AC3D2, 0x0F1E2D3C)
POLICIES = {
    "none": None,
    "full": IntegrityPolicy.full(),
    "spans": IntegrityPolicy.of_spans([(0, 4), (12, 20)]),
    "headers_only": IntegrityPolicy.headers_only(8),
}
PROFILES = (MIPS_R2000, MICROVAX_III)

configurations = st.tuples(
    st.booleans(),
    st.sampled_from(sorted(PRESENTATIONS)),
    st.sampled_from(KEYS),
    st.sampled_from(sorted(POLICIES)),
    st.sampled_from(PROFILES),
)


def reference_pipeline(receiving, presentation, key, policy):
    """The endpoint's wire pipeline, built without :class:`WireConfig`."""
    binding, fused = PRESENTATIONS[presentation]
    convert = None
    if fused:
        src, dst = (binding.wire, binding.local) if receiving else (binding.local, binding.wire)
        convert = PresentationConvertStage(binding.schema, src, dst)
    encrypt = None
    if key is not None:
        encrypt = WordXorStage(key, name="decrypt" if receiving else "encrypt")
    return wire_pipeline(
        convert, convert_after=receiving, encrypt=encrypt, integrity=POLICIES[policy]
    )


def counts(cache: PlanCache) -> tuple[int, int, int, int]:
    snapshot = cache.snapshot()
    return (snapshot["hits"], snapshot["misses"], snapshot["evictions"], snapshot["entries"])


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(configurations, min_size=1, max_size=5),
    order=st.lists(st.integers(0, 4), min_size=1, max_size=20),
)
def test_configuration_memo_matches_get_or_compile(pool, order):
    memo = PlanCache(capacity=2)
    reference = PlanCache(capacity=2)
    resolved = []  # (plan, reference plan key)
    for index in order:
        receiving, presentation, key, policy, profile = pool[index % len(pool)]
        wire = WireConfig(
            receiving, PRESENTATIONS[presentation][0], key, POLICIES[policy],
            profile, memo,
        )
        plan = wire.plan
        assert wire.plan is plan  # held: a second read probes nothing
        pipeline = reference_pipeline(receiving, presentation, key, policy)
        expected = reference.get_or_compile(pipeline, profile)
        assert plan.key == expected.key
        assert counts(memo) == counts(reference)
        # The memo-resolved plan is the one get_or_compile serves for the
        # same configuration (one more hit on each side).
        assert memo.get_or_compile(pipeline, profile) is plan
        assert reference.get_or_compile(pipeline, profile) is expected
        assert counts(memo) == counts(reference)
        resolved.append((plan, expected.key))
    for plan, key in resolved:
        for other, other_key in resolved:
            if plan is other:
                assert key == other_key


def test_endpoint_plans_count_one_lookup_each():
    cache = PlanCache()
    path = two_hosts(seed=1)
    senders = [AlfSender(path.loop, path.a, "b", flow, plan_cache=cache) for flow in range(4)]
    plans = {id(sender.wire_plan) for sender in senders}
    assert len(plans) == 1
    assert (cache.stats.misses, cache.stats.hits) == (1, 3)
    receiver = AlfReceiver(path.loop, path.b, "a", 9, deliver=lambda adu: None,
                           plan_cache=cache)
    assert receiver.wire_plan is senders[0].wire_plan  # same shape, one entry
    assert (cache.stats.misses, cache.stats.hits) == (1, 4)


def test_evicted_configuration_compiles_again():
    cache = PlanCache(capacity=1)
    path = two_hosts(seed=1)
    plain = AlfSender(path.loop, path.a, "b", 1, plan_cache=cache).wire_plan
    AlfSender(path.loop, path.a, "b", 2, plan_cache=cache, encryption=7).wire_plan
    again = AlfSender(path.loop, path.a, "b", 3, plan_cache=cache).wire_plan
    assert again is not plain and again.key == plain.key
    assert (cache.stats.misses, cache.stats.evictions) == (3, 2)


def count_permutations(monkeypatch) -> list[tuple[str, str]]:
    """Count conversion_permutation calls over fresh shared codecs."""
    calls = []
    real = compiler.conversion_permutation

    def counted(src, dst):
        calls.append((src.syntax, dst.syntax))
        return real(src, dst)

    monkeypatch.setattr(compiler, "conversion_permutation", counted)
    monkeypatch.setattr(compiler, "_SHARED_CODEC_CACHE", compiler.CodecCache())
    return calls


def test_general_permutation_is_built_once_per_codec_pair(monkeypatch):
    calls = count_permutations(monkeypatch)
    binding = PRESENTATIONS["lwts-le-to-be"][0]
    path = two_hosts(seed=1)
    for flow in range(8):
        sender = AlfSender(path.loop, path.a, "b", flow, presentation=binding)
        receiver = AlfReceiver(path.loop, path.b, "a", flow,
                               deliver=lambda adu: None, presentation=binding)
        assert sender.wire.fused and receiver.wire.fused
    # One permutation per direction's codec pair, shared by every
    # endpoint, its kernel and its stage's apply.
    assert sorted(calls) == [("lwts-be", "lwts-le"), ("lwts-le", "lwts-be")]
    stage = binding.sender_stage()
    data = LITTLE.encode({"a": -7, "b": 2.5, "c": [1, 2, 3, 4]}, SCHEMA)
    assert stage.apply(data) == stage.dst.encode(stage.src.decode(data))
    assert stage.apply(data) == BIG.encode({"a": -7, "b": 2.5, "c": [1, 2, 3, 4]}, SCHEMA)
    assert len(calls) == 2


def test_non_fusable_binding_keeps_the_stage_path(monkeypatch):
    calls = count_permutations(monkeypatch)
    binding = PRESENTATIONS["ber"][0]
    path = two_hosts(seed=1)
    delivered = []
    receiver = AlfReceiver(path.loop, path.b, "a", 1, deliver=delivered.append,
                           presentation=binding, encryption=0x5A5AC3D2)
    sender = AlfSender(path.loop, path.a, "b", 1, presentation=binding,
                       encryption=0x5A5AC3D2)
    for end in (sender, receiver):
        assert not end.wire.fused
        assert end.wire.staged_convert is end.wire.convert is not None
        assert end.wire_plan.n_stages == 2  # cipher + checksum, no convert
    value = {"a": 3, "b": -1.5, "c": [9, 8, 7, 6]}
    local = LITTLE.encode(value, SCHEMA)
    stage = binding.sender_stage()
    assert stage.apply(local) == BerCodec().encode(value, SCHEMA)
    sender.send_adu(Adu(0, local, {}))
    path.loop.run(until=10)
    assert [bytes(adu.payload) for adu in delivered] == [local]
    assert calls == []  # BER has no fixed layout: nothing to permute
