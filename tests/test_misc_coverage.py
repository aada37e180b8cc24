"""Cross-cutting checks: reprs, error text quality, enum stability,
and the report object's less-travelled paths."""

import pytest

from repro.core.adu import Adu
from repro.errors import PipelineError
from repro.ilp.executor import LayeredExecutor
from repro.ilp.pipeline import Pipeline
from repro.ilp.report import ExecutionReport
from repro.machine.profile import MIPS_R2000
from repro.net.packet import Packet
from repro.stages.base import Facts, PassthroughStage
from repro.stages.copy import CopyStage
from repro.transport.alf import RecoveryMode


class TestReprs:
    """Reprs are part of the debugging API; keep them informative."""

    def test_packet_repr(self):
        packet = Packet("a", "b", "alf", 7, header={"k": 1}, payload=b"xy")
        text = repr(packet)
        assert "a->b" in text and "alf/7" in text and "2B" in text

    def test_stage_repr(self):
        assert "passthrough" in repr(PassthroughStage())

    def test_pipeline_repr(self):
        pipeline = Pipeline([CopyStage(name="one")])
        assert "one" in repr(pipeline)

    def test_buffer_reprs(self):
        from repro.buffers.chain import BufferChain
        from repro.buffers.pool import BufferPool
        from repro.buffers.segment import Segment

        assert "length=4" in repr(Segment.wrap(b"abcd", label="x"))
        assert "length=3" in repr(BufferChain.wrap(b"abc"))
        assert "free" in repr(BufferPool(2, 8))


class TestErrorQuality:
    """Errors must say what went wrong in domain terms."""

    def test_checksum_error_carries_values(self):
        from repro.errors import StageError
        from repro.stages.checksum import ChecksumVerifyStage

        stage = ChecksumVerifyStage()
        stage.expect(0xABCD)
        with pytest.raises(StageError) as excinfo:
            stage.apply(b"wrong")
        assert "0xabcd" in str(excinfo.value)

    def test_fact_error_names_both_sides(self):
        from repro.errors import StageError

        needs = PassthroughStage("needy")
        needs.requires = frozenset({Facts.VERIFIED})
        with pytest.raises(StageError) as excinfo:
            Pipeline([needs])
        message = str(excinfo.value)
        assert "needy" in message and "verified" in message

    def test_mtu_error_names_link(self):
        from repro.errors import NetworkError
        from repro.net.topology import two_hosts

        path = two_hosts()
        path.a_to_b.mtu = 10
        with pytest.raises(NetworkError) as excinfo:
            path.a_to_b.send(
                Packet("a", "b", "t", 1, payload=bytes(100))
            )
        assert "a->b" in str(excinfo.value)


class TestEnumStability:
    """RecoveryMode values travel in session handshakes; they are wire
    format and must never change."""

    def test_values(self):
        assert RecoveryMode.TRANSPORT_BUFFER.value == "transport-buffer"
        assert RecoveryMode.APP_RECOMPUTE.value == "app-recompute"
        assert RecoveryMode.NO_RETRANSMIT.value == "no-retransmit"

    def test_roundtrip_by_value(self):
        for mode in RecoveryMode:
            assert RecoveryMode(mode.value) is mode


class TestFactsVocabulary:
    def test_all_contains_every_fact(self):
        named = {
            getattr(Facts, name)
            for name in dir(Facts)
            if name.isupper() and name != "ALL"
        }
        assert named == set(Facts.ALL)


class TestReportEdges:
    def test_empty_report_throughput_raises(self):
        report = ExecutionReport(
            pipeline_name="p", mode="layered", profile=MIPS_R2000,
            payload_bytes=100,
        )
        with pytest.raises(PipelineError):
            report.mbps()

    def test_summary_lists_speculative_facts(self):
        report = ExecutionReport(
            pipeline_name="p", mode="integrated", profile=MIPS_R2000,
            payload_bytes=100, speculative_facts={Facts.VERIFIED},
        )
        _, priced = LayeredExecutor(MIPS_R2000).execute(
            Pipeline([CopyStage()]), b"x" * 100
        )
        report.executions = priced.executions
        assert "verified" in report.summary()


class TestAduEdges:
    def test_checksum_stable_across_name_changes(self):
        a = Adu(0, b"data", {"x": 1})
        b = Adu(1, b"data", {"y": 2})
        assert a.checksum == b.checksum  # names are control, not data
