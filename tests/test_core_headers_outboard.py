"""Shared-header encoding (§8) and the outboard-processor analysis (§6)."""

import pytest

from repro.buffers.appspace import ScatterMap
from repro.control.instructions import InstructionCounter
from repro.core.headers import (
    FragmentInfo,
    LayeredEncapsulation,
    SharedHeader,
)
from repro.core.outboard import (
    OffloadPartition,
    feasibility,
    partition_receive_path,
    steering_bytes,
)
from repro.errors import FramingError
from repro.machine.profile import MIPS_R2000
from repro.presentation.costs import RAW_IMAGE, TOOLKIT_BER

INFO = FragmentInfo(
    flow_id=9, adu_sequence=21, fragment_index=2, fragment_total=5,
    adu_length=5000, checksum=0xABCD, app_name=777,
)


class TestHeaders:
    @pytest.mark.parametrize(
        "scheme", [LayeredEncapsulation(), SharedHeader()],
        ids=["layered", "shared"],
    )
    def test_roundtrip(self, scheme):
        packed = scheme.pack(INFO, 1000)
        parsed, size = scheme.parse(packed)
        assert parsed == INFO
        assert size == scheme.header_bytes

    def test_shared_is_smaller(self):
        assert SharedHeader().header_bytes < LayeredEncapsulation().header_bytes

    def test_layered_parses_four_times(self):
        counter = InstructionCounter()
        scheme = LayeredEncapsulation()
        scheme.parse(scheme.pack(INFO, 100), counter)
        assert counter.by_operation["header_parse"] == 40

    def test_shared_parses_once(self):
        counter = InstructionCounter()
        scheme = SharedHeader()
        scheme.parse(scheme.pack(INFO, 100), counter)
        assert counter.by_operation["header_parse"] == 10

    @pytest.mark.parametrize(
        "scheme", [LayeredEncapsulation(), SharedHeader()],
        ids=["layered", "shared"],
    )
    def test_truncated_rejected(self, scheme):
        packed = scheme.pack(INFO, 100)
        with pytest.raises(FramingError, match="truncated"):
            scheme.parse(packed[:10])

    def test_fragment_info_validation(self):
        with pytest.raises(FramingError):
            FragmentInfo(1, 1, 9, 5, 100, 0, 0)


class TestOutboard:
    def test_steering_bytes(self):
        linear = ScatterMap.linear("file", 0, 4096)
        assert steering_bytes(linear) == 16
        scattered = ScatterMap()
        for index in range(100):
            scattered.add(index * 4, "v", 0, 4)
        assert steering_bytes(scattered) == 1600

    def test_feasibility_ratio_grows_with_scatter(self):
        linear = feasibility([(4096, ScatterMap.linear("f", 0, 4096))])
        fine = ScatterMap()
        for index in range(1024):
            fine.add(index * 4, "v", 0, 4)
        scattered = feasibility([(4096, fine)])
        assert linear.steering_ratio < 0.01
        assert scattered.steering_ratio >= 1.0  # "the same bulk"

    def test_zero_data_edge(self):
        empty = feasibility([])
        assert empty.steering_ratio == 0.0

    def test_partition_raw_transfer_offloads_well(self):
        partition = partition_receive_path(
            MIPS_R2000, RAW_IMAGE, 4096, raw_octets=True
        )
        assert partition.speedup_bound > 1.5

    def test_partition_toolkit_offloads_nothing(self):
        """When presentation dominates, outboarding the transport
        manipulations is pointless — the paper's conclusion."""
        partition = partition_receive_path(MIPS_R2000, TOOLKIT_BER, 4096)
        assert partition.speedup_bound < 1.1
        assert partition.host_share > 0.9

    def test_partition_math(self):
        partition = OffloadPartition(offloaded_cycles=300, host_cycles=100)
        assert partition.speedup_bound == pytest.approx(4.0)
        assert partition.host_share == pytest.approx(0.25)

    def test_partition_degenerate(self):
        assert OffloadPartition(0, 0).host_share == 0.0
        assert OffloadPartition(10, 0).speedup_bound == float("inf")
