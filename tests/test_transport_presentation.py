"""Presentation bindings fused into the ALF transport and sessions.

With a ``presentation=`` binding the sender converts local → wire syntax
inside its compiled wire plan (fused with the checksum when the schema's
layout permits a permutation kernel), and the receiver verifies on wire
bytes then hands the application local-syntax bytes.
"""

from __future__ import annotations

import pytest

from repro.core.adu import Adu
from repro.net.topology import two_hosts
from repro.presentation.abstract import (
    ArrayOf,
    Field,
    Float64,
    Int32,
    Struct,
    Utf8String,
)
from repro.presentation.ber import BerCodec
from repro.presentation.lwts import LwtsCodec
from repro.presentation.negotiate import LocalSyntax
from repro.stages.presentation import PresentationBinding
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)

FIXED = Struct(
    (
        Field("a", Int32()),
        Field("b", Float64()),
        Field("c", ArrayOf(Int32(), fixed_count=4)),
    )
)
VARIABLE = Struct((Field("name", Utf8String()), Field("xs", ArrayOf(Int32()))))
VALUE = {"a": -7, "b": 2.5, "c": [1, 2, 3, 4]}


def make_pair(binding_tx, binding_rx, loss_rate=0.0, seed=1, zero_copy=False):
    path = two_hosts(seed=seed, loss_rate=loss_rate)
    delivered = []
    AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=delivered.append,
        presentation=binding_rx,
        zero_copy=zero_copy,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=512,
        presentation=binding_tx,
    )
    return path, sender, delivered


def lwts_binding(schema, wire_order="big"):
    return PresentationBinding(
        schema=schema,
        local=LwtsCodec(byte_order="little"),
        wire=LwtsCodec(byte_order=wire_order),
    )


class TestAlfPresentation:
    def test_fused_conversion_delivers_local_syntax(self):
        binding = lwts_binding(FIXED)
        path, sender, delivered = make_pair(binding, binding)
        assert sender.wire.fused  # fixed layout lowers to a kernel
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert len(delivered) == 1
        assert bytes(delivered[0].payload) == local

    def test_wire_bytes_are_converted(self):
        """The network sees the wire syntax, not the local one."""
        binding = lwts_binding(FIXED)
        path, sender, delivered = make_pair(binding, None)
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        wire = LwtsCodec(byte_order="big").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        # Receiver without a binding reassembles raw wire bytes.
        assert bytes(delivered[0].payload) == wire

    def test_variable_layout_uses_compiled_codecs(self):
        binding = lwts_binding(VARIABLE)
        path, sender, delivered = make_pair(binding, binding)
        assert not sender.wire.fused  # no fixed layout, no kernel
        value = {"name": "héllo", "xs": [10, -20, 30]}
        local = LwtsCodec(byte_order="little").encode(value, VARIABLE)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert bytes(delivered[0].payload) == local

    def test_identity_binding_means_no_conversion(self):
        binding = PresentationBinding(
            schema=FIXED,
            local=LwtsCodec(byte_order="big"),
            wire=LwtsCodec(byte_order="big"),
        )
        path, sender, delivered = make_pair(binding, binding)
        assert sender.wire.convert is None
        payload = LwtsCodec(byte_order="big").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, payload, {}))
        path.loop.run(until=10)
        assert bytes(delivered[0].payload) == payload

    def test_ber_wire_syntax_roundtrips(self):
        binding = PresentationBinding(
            schema=FIXED, local=LwtsCodec(byte_order="little"), wire=BerCodec()
        )
        path, sender, delivered = make_pair(binding, binding)
        assert not sender.wire.fused  # TLV framing is not a permutation
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert bytes(delivered[0].payload) == local

    def test_conversion_survives_loss_and_retransmission(self):
        binding = lwts_binding(FIXED)
        path, sender, delivered = make_pair(binding, binding, loss_rate=0.3, seed=5)
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        for i in range(6):
            sender.send_adu(Adu(i, local, {"i": i}))
        path.loop.run(until=60)
        assert len(delivered) == 6
        assert all(bytes(adu.payload) == local for adu in delivered)

    def test_wire_form_memo_is_cleaned_on_ack(self):
        binding = lwts_binding(FIXED)
        path, sender, delivered = make_pair(binding, binding)
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert delivered
        assert sender._wire == {}

    def test_zero_copy_chains_with_fused_binding(self):
        binding = lwts_binding(FIXED)
        path, sender, delivered = make_pair(binding, binding, zero_copy=True)
        local = LwtsCodec(byte_order="little").encode(VALUE, FIXED)
        sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert bytes(delivered[0].payload) == local


class TestSessionPresentation:
    SCHEMAS = {"fixed": FIXED, "var": VARIABLE}

    def run_session(self, schema_name, value, init_syntax=None):
        path = two_hosts(seed=3)
        delivered = []
        listener = SessionListener(
            path.loop, path.b, self.SCHEMAS,
            deliver=lambda fid, adu: delivered.append(adu),
            presentation=True,
        )
        kwargs = {} if init_syntax is None else {"local_syntax": init_syntax}
        config = SessionConfig(schema_name=schema_name, **kwargs)
        initiator = SessionInitiator(
            path.loop, path.a, "b", config, self.SCHEMAS, presentation=True,
        )
        path.loop.run(until=5)
        assert initiator.established
        schema = self.SCHEMAS[schema_name]
        sender_codec = LwtsCodec(byte_order=config.local_syntax.byte_order)
        local = sender_codec.encode(value, schema)
        initiator.session.sender.send_adu(Adu(0, local, {}))
        path.loop.run(until=10)
        assert len(delivered) == 1
        receiver_codec = LwtsCodec(byte_order=listener.local_syntax.byte_order)
        assert bytes(delivered[0].payload) == receiver_codec.encode(value, schema)
        return initiator

    def test_sender_converts_fixed_schema_fused(self):
        initiator = self.run_session("fixed", VALUE)
        assert initiator.session.plan.strategy == "sender-converts"
        assert initiator.session.sender.wire.fused

    def test_sender_converts_variable_schema(self):
        initiator = self.run_session(
            "var", {"name": "x", "xs": [1, 2, 3]}
        )
        assert not initiator.session.sender.wire.fused

    def test_identity_when_syntaxes_agree(self):
        path = two_hosts(seed=3)
        listener = SessionListener(
            path.loop, path.b, self.SCHEMAS, presentation=True
        )
        initiator = self.run_session(
            "fixed", VALUE,
            init_syntax=LocalSyntax("init", listener.local_syntax.byte_order),
        )
        assert initiator.session.plan.strategy == "identity"
        assert initiator.session.sender.wire.convert is None

    def test_presentation_off_is_unchanged(self):
        path = two_hosts(seed=3)
        delivered = []
        SessionListener(
            path.loop, path.b, self.SCHEMAS,
            deliver=lambda fid, adu: delivered.append(adu),
        )
        initiator = SessionInitiator(
            path.loop, path.a, "b",
            SessionConfig(schema_name="fixed"), self.SCHEMAS,
        )
        path.loop.run(until=5)
        assert initiator.established
        assert initiator.session.sender.presentation is None
        initiator.session.sender.send_adu(Adu(0, b"\x01\x02\x03\x04", {}))
        path.loop.run(until=10)
        assert bytes(delivered[0].payload) == b"\x01\x02\x03\x04"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))


def test_bulk_binding_builds_without_a_permutation(monkeypatch):
    """Bring-up of ``bulk_secure``'s binding (16 KiB of int32, LWTS
    little -> big, XOR key): 8 sender/receiver pairs decide the fused
    word swap from the layouts and never build the byte permutation.
    ``apply`` computes it on first use, once per codec pair."""
    import numpy as np

    from repro.presentation import compiler

    calls = []
    real = compiler.conversion_permutation

    def counted(src, dst):
        calls.append((src.syntax, dst.syntax))
        return real(src, dst)

    monkeypatch.setattr(compiler, "conversion_permutation", counted)
    # Fresh codecs, so no earlier test's memo can hide a computation.
    monkeypatch.setattr(compiler, "_SHARED_CODEC_CACHE", compiler.CodecCache())
    schema = ArrayOf(Int32(), fixed_count=4096)
    binding = PresentationBinding(
        schema, LwtsCodec(byte_order="little"), LwtsCodec(byte_order="big")
    )
    path = two_hosts(seed=1)
    for flow_id in range(8):
        receiver = AlfReceiver(
            path.loop, path.b, "a", flow_id, deliver=lambda adu: None,
            presentation=binding, encryption=0x5A5AC3D2,
        )
        sender = AlfSender(path.loop, path.a, "b", flow_id,
                           presentation=binding, encryption=0x5A5AC3D2)
        assert sender.wire.fused and receiver.wire.fused
        assert sender.wire_plan.n_loops == 1 and receiver.wire_plan.n_loops == 1
    assert calls == []

    stage = binding.sender_stage()
    data = bytes(range(256)) * 64
    expected = np.frombuffer(data, dtype=np.uint8)[real(stage.src, stage.dst)].tobytes()
    assert stage.apply(data) == expected
    assert binding.sender_stage().apply(data) == expected
    assert stage.apply(data) == stage.dst.encode(stage.src.decode(data))
    assert calls == [("lwts-le", "lwts-be")]
