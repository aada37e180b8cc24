"""Cycle ledger: attribution and aggregation."""

import pytest

from repro.errors import MachineModelError
from repro.machine.accounting import CycleLedger
from repro.machine.costs import CHECKSUM_COST, COPY_COST
from repro.machine.profile import MICROVAX_III, MIPS_R2000


@pytest.fixture
def ledger():
    return CycleLedger(MIPS_R2000)


def test_charge_returns_cycles(ledger):
    cycles = ledger.charge("copy", COPY_COST, 4000)
    assert cycles == pytest.approx(MIPS_R2000.cycles(COPY_COST, 4000))
    assert ledger.total_cycles == pytest.approx(cycles)


def test_categories_accumulate(ledger):
    ledger.charge("copy", COPY_COST, 4000, category="transport")
    ledger.charge("csum", CHECKSUM_COST, 4000, category="transport")
    ledger.charge("conv", COPY_COST, 4000, category="presentation")
    by_cat = ledger.cycles_by_category()
    assert set(by_cat) == {"transport", "presentation"}
    assert by_cat["transport"] > by_cat["presentation"]


def test_share(ledger):
    ledger.charge("a", COPY_COST, 4000, category="x")
    ledger.charge("b", COPY_COST, 4000, category="y")
    assert ledger.share("x") == pytest.approx(0.5)
    assert ledger.share("missing") == 0.0


def test_share_empty_ledger(ledger):
    assert ledger.share("anything") == 0.0


def test_labels(ledger):
    ledger.charge("copy", COPY_COST, 100)
    ledger.charge("copy", COPY_COST, 100)
    assert [entry.label for entry in ledger.entries] == ["copy", "copy"]
    assert ledger.total_cycles == pytest.approx(2 * MIPS_R2000.cycles(COPY_COST, 100))


def test_reset(ledger):
    ledger.charge("copy", COPY_COST, 4000)
    ledger.reset()
    assert ledger.total_cycles == 0
    assert ledger.entries == []


def test_merged(ledger):
    other = CycleLedger(MIPS_R2000)
    ledger.charge("a", COPY_COST, 100)
    other.charge("b", COPY_COST, 100)
    merged = ledger.merged(other)
    assert len(merged.entries) == 2
    assert merged.total_cycles == pytest.approx(
        ledger.total_cycles + other.total_cycles
    )


def test_merged_rejects_different_profiles(ledger):
    other = CycleLedger(MICROVAX_III)
    with pytest.raises(MachineModelError):
        ledger.merged(other)
