"""Copy-family stages."""

import pytest

from repro.buffers.appspace import ApplicationAddressSpace, ScatterMap
from repro.errors import StageError
from repro.machine.costs import COPY_COST
from repro.stages.copy import BufferForRetransmitStage, CopyStage, MoveToAppStage


class TestCopyStage:
    def test_identity_copy(self):
        data = bytearray(b"abc")
        out = CopyStage().apply(bytes(data))
        assert out == b"abc"
        data[0] = 0  # mutating the source never affects the copy
        assert out == b"abc"

    def test_cost_is_copy(self):
        assert CopyStage().cost == COPY_COST

    def test_custom_category(self):
        assert CopyStage(category="application").category == "application"


class TestRetransmitBuffer:
    def test_retains_passing_data(self):
        stage = BufferForRetransmitStage()
        stage.apply(b"one")
        stage.apply(b"two")
        assert stage.buffered_bytes == 6

    def test_reset(self):
        stage = BufferForRetransmitStage()
        stage.apply(b"x")
        stage.reset()
        assert stage.buffered_bytes == 0


class TestMoveToApp:
    def test_delivers_via_scatter(self):
        space = ApplicationAddressSpace()
        space.add_region("dst", 10)
        stage = MoveToAppStage(space)
        stage.set_destination(ScatterMap.linear("dst", 2, 5))
        assert stage.apply(b"hello") == b"hello"
        assert space.read_region("dst")[2:7] == b"hello"

    def test_requires_destination(self):
        space = ApplicationAddressSpace()
        stage = MoveToAppStage(space)
        with pytest.raises(StageError, match="no scatter map"):
            stage.apply(b"data")

    def test_requires_complete_verified_adu(self):
        from repro.stages.base import Facts

        stage = MoveToAppStage(ApplicationAddressSpace())
        assert Facts.ADU_COMPLETE in stage.requires
        assert Facts.VERIFIED in stage.requires

    def test_reset_clears_destination(self):
        space = ApplicationAddressSpace()
        space.add_region("dst", 4)
        stage = MoveToAppStage(space)
        stage.set_destination(ScatterMap.linear("dst", 0, 4))
        stage.reset()
        with pytest.raises(StageError):
            stage.apply(b"data")


class TestRetransmitChainSnapshots:
    """Chains are saved by reference: no bytes move."""

    def _chain(self, data: bytes, cut: int):
        from repro.buffers.chain import BufferChain
        from repro.buffers.segment import Segment

        return BufferChain([Segment.wrap(data[:cut]), Segment.wrap(data[cut:])])

    def test_saving_a_chain_copies_nothing(self):
        from repro.machine.accounting import datapath_counters

        stage = BufferForRetransmitStage()
        chain = self._chain(b"abcdefgh", 3)
        counters = datapath_counters()
        counters.reset()
        out = stage.apply(chain)
        snap = counters.snapshot()
        assert out is chain
        assert snap["copies"] == 0
        assert snap["zero_copy_ops"] >= 1
        counters.reset()

    def test_release_without_retrieve_frees_the_reference(self):
        stage = BufferForRetransmitStage()
        chain = self._chain(b"xyzw", 2)
        segments = chain.segments
        stage.apply(chain)
        chain.release()
        stage.reset()
        assert stage.buffered_bytes == 0
        assert all(segment.refcount == 0 for segment in segments)
