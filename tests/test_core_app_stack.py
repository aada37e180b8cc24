"""Application-process model and the protocol stack builder."""

import pytest

from repro.core.app import ApplicationProcess
from repro.core.stack import ProtocolStack, StackConfig
from repro.errors import ApplicationError, PipelineError
from repro.machine.profile import MICROVAX_III, MIPS_R2000
from repro.presentation.abstract import ArrayOf, Int32, OctetString
from repro.presentation.ber import BerCodec
from repro.presentation.costs import RAW_IMAGE, TOOLKIT_BER, TUNED_BER
from repro.presentation.xdr import XdrCodec
from repro.sim.eventloop import EventLoop


class TestApplicationProcess:
    def test_processes_at_rate(self):
        loop = EventLoop()
        app = ApplicationProcess(loop, processing_rate_bps=8000)
        app.submit("work", 1000)  # 8000 bits at 8000 bps = 1s
        loop.run()
        assert app.processed_bytes == 1000
        assert loop.now == pytest.approx(1.0)

    def test_serial_queueing(self):
        loop = EventLoop()
        app = ApplicationProcess(loop, processing_rate_bps=8000)
        app.submit("a", 1000)
        app.submit("b", 1000)
        assert app.backlog == 1
        loop.run()
        assert app.completed[1].finished_at == pytest.approx(2.0)

    def test_utilization_full_when_saturated(self):
        loop = EventLoop()
        app = ApplicationProcess(loop, processing_rate_bps=8000)
        app.submit("a", 1000)
        app.submit("b", 1000)
        loop.run()
        assert app.utilization() == pytest.approx(1.0)

    def test_idle_gap_lowers_utilization(self):
        loop = EventLoop()
        app = ApplicationProcess(loop, processing_rate_bps=8000)
        app.submit("a", 1000)
        loop.schedule(3.0, app.submit, "b", 1000)
        loop.run()
        assert app.utilization() == pytest.approx(0.5)

    def test_on_done_callback(self):
        loop = EventLoop()
        done = []
        app = ApplicationProcess(loop, 8000, on_done=done.append)
        app.submit("x", 100)
        loop.run()
        assert done[0].label == "x"

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ApplicationError):
            ApplicationProcess(loop, 0)
        with pytest.raises(ApplicationError):
            ApplicationProcess(loop, 100).submit("x", -1)


class TestProtocolStack:
    def test_roundtrip_with_codec(self, int_array):
        stack = ProtocolStack(StackConfig(schema=ArrayOf(Int32())))
        value, send_report, receive_report = stack.transfer(int_array)
        assert value == int_array
        assert send_report.total_cycles > 0
        assert receive_report.total_cycles > 0

    def test_roundtrip_image_mode(self, payload_4k):
        stack = ProtocolStack(StackConfig(codec=None))
        value, _, _ = stack.transfer(payload_4k)
        assert value == payload_4k

    def test_roundtrip_with_encryption(self, payload_4k):
        stack = ProtocolStack(
            StackConfig(
                schema=OctetString(), codec=BerCodec(), encrypt_key=42
            )
        )
        value, _, _ = stack.transfer(payload_4k)
        assert value == payload_4k

    def test_xdr_stack(self, int_array):
        stack = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), codec=XdrCodec())
        )
        value, _, _ = stack.transfer(int_array)
        assert value == int_array

    def test_codec_requires_schema(self):
        with pytest.raises(PipelineError):
            ProtocolStack(StackConfig(schema=None))

    def test_integrated_cheaper_than_layered(self, int_array):
        layered = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), integrated=False)
        )
        integrated = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), integrated=True)
        )
        layered.transfer(int_array)
        integrated.transfer(int_array)
        assert integrated.total_cycles() < layered.total_cycles()

    def test_corrupted_wire_detected(self, int_array):
        from repro.errors import StageError

        stack = ProtocolStack(StackConfig(schema=ArrayOf(Int32())))
        sent = stack.send(int_array)
        tampered = b"\x00" + sent.wire_bytes[1:]
        with pytest.raises(StageError, match="mismatch"):
            stack.receive(tampered, sent.checksum)

    def test_no_retransmit_buffer_option(self, int_array):
        with_buffer = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), retransmit_buffering=True)
        )
        without = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), retransmit_buffering=False)
        )
        with_buffer.send(int_array)
        without.send(int_array)
        assert (
            without.send_reports[0].total_cycles
            < with_buffer.send_reports[0].total_cycles
        )

    def test_presentation_share_raw_vs_toolkit(self, payload_4k):
        toolkit = ProtocolStack(
            StackConfig(
                schema=ArrayOf(Int32()), codec_costs=TOOLKIT_BER
            )
        )
        toolkit.transfer(list(range(1000)))
        assert toolkit.presentation_share() > 0.9

    def test_machine_choice_matters(self, int_array):
        fast = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), machine=MIPS_R2000)
        )
        slow = ProtocolStack(
            StackConfig(schema=ArrayOf(Int32()), machine=MICROVAX_III)
        )
        fast.transfer(int_array)
        slow.transfer(int_array)
        assert slow.total_cycles() > fast.total_cycles()

    def test_presentation_share_zero_before_traffic(self):
        stack = ProtocolStack(StackConfig(schema=ArrayOf(Int32())))
        assert stack.presentation_share() == 0.0
