"""Instruction accounting: control-operation costs and counters."""

import pytest

from repro.control.instructions import InstructionCosts, InstructionCounter
from repro.errors import ReproError


class TestCosts:
    def test_lookup_by_name(self):
        costs = InstructionCosts()
        assert costs.budgets["demux_lookup"] == 12
        assert costs.budgets["ack_compute"] == 15

    def test_unknown_operation(self):
        with pytest.raises(ReproError, match="unknown control operation"):
            InstructionCounter().record("quantum_teleport")

    def test_every_budget_is_tens_not_hundreds(self):
        """The paper's claim, enforced on the budgets themselves."""
        costs = InstructionCosts()
        assert set(costs.budgets) == set(costs.__dataclass_fields__)
        for budget in costs.budgets.values():
            assert 1 <= budget < 100


class TestCounter:
    def test_record_accumulates(self):
        counter = InstructionCounter()
        counter.record("demux_lookup")
        counter.record("demux_lookup", times=2)
        assert counter.total == 36
        assert counter.by_operation == {"demux_lookup": 36}

    def test_negative_times_rejected(self):
        with pytest.raises(ReproError):
            InstructionCounter().record("demux_lookup", times=-1)

    def test_per_packet(self):
        counter = InstructionCounter()
        counter.record("ack_compute", times=4)
        counter.note_packet()
        counter.note_packet()
        assert counter.per_packet() == 30.0

    def test_per_packet_no_packets(self):
        assert InstructionCounter().per_packet() == 0.0

    def test_merge(self):
        a, b = InstructionCounter(), InstructionCounter()
        a.record("timestamp")
        b.record("timestamp")
        b.record("timer_set")
        b.note_packet()
        a.merge(b)
        assert a.by_operation["timestamp"] == 8
        assert a.by_operation["timer_set"] == 8
        assert a.packets_processed == 1

