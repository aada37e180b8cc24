"""Cost-vector algebra: the fusion arithmetic everything rests on."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineModelError
from repro.machine.costs import CHECKSUM_COST, COPY_COST, ZERO_COST, CostVector

nonneg = st.floats(min_value=0, max_value=100, allow_nan=False)
vectors = st.builds(
    CostVector,
    reads_per_word=nonneg,
    writes_per_word=nonneg,
    alu_per_word=nonneg,
    calls_per_word=nonneg,
    per_call_ops=nonneg,
)


def test_canonical_costs():
    assert COPY_COST.reads_per_word == 1.0
    assert COPY_COST.writes_per_word == 1.0
    assert CHECKSUM_COST.alu_per_word == 2.0
    assert CHECKSUM_COST.writes_per_word == 0.0


def test_negative_rejected():
    with pytest.raises(MachineModelError):
        CostVector(reads_per_word=-1)


def test_add_is_componentwise():
    total = COPY_COST + CHECKSUM_COST
    assert total.reads_per_word == 2.0
    assert total.writes_per_word == 1.0
    assert total.alu_per_word == 2.0


def test_fuse_after_eliminates_one_read():
    fused = CHECKSUM_COST.fuse_after(COPY_COST)
    assert fused.reads_per_word == 1.0  # checksum's read came from a register
    assert fused.writes_per_word == 1.0
    assert fused.alu_per_word == 2.0


def test_fuse_after_with_no_reads_saves_nothing():
    write_only = CostVector(writes_per_word=1.0)
    fused = write_only.fuse_after(COPY_COST)
    assert fused.reads_per_word == COPY_COST.reads_per_word
    assert fused.writes_per_word == 2.0


def test_scaled():
    doubled = COPY_COST.scaled(2.0)
    assert doubled.reads_per_word == 2.0
    assert doubled.writes_per_word == 2.0


def test_scaled_rejects_negative():
    with pytest.raises(MachineModelError):
        COPY_COST.scaled(-1)


@given(vectors, vectors)
def test_fuse_never_exceeds_plain_sum(a, b):
    """Fusion is a saving: fused cost <= component-wise sum, field by field."""
    fused = b.fuse_after(a)
    total = a + b
    assert fused.reads_per_word <= total.reads_per_word
    assert fused.writes_per_word == total.writes_per_word
    assert fused.alu_per_word == total.alu_per_word


@given(vectors, vectors)
def test_fuse_saves_at_most_one_read(a, b):
    fused = b.fuse_after(a)
    total = a + b
    assert total.reads_per_word - fused.reads_per_word <= 1.0 + 1e-9


@given(vectors)
def test_add_zero_is_identity(v):
    total = v + ZERO_COST
    assert total == v
