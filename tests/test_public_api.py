"""The public API surface: imports, errors, version."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    """Every ``__all__`` in the package names something that exists, so
    a deletion cannot leave an export dangling."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # runs the CLI on import
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 16
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_error_hierarchy():
    """Every library error is catchable as ReproError."""
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            if obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name


def test_specific_hierarchies():
    assert issubclass(errors.DecodeError, errors.PresentationError)
    assert issubclass(errors.OrderingConstraintError, errors.PipelineError)


def test_quickstart_snippet_works():
    """The README/docstring quickstart must keep working."""
    from repro import transfer_file
    from repro.bench import experiments

    table = experiments.table1()
    assert "Table 1" in table.format()
    result = transfer_file(b"hello" * 1000, loss_rate=0.05, seed=1)
    assert result.ok


def test_machine_profiles_exposed():
    assert repro.MIPS_R2000.name == "MIPS R2000"
    assert repro.MICROVAX_III.clock_hz > 0
    assert repro.SUPERSCALAR.alu_cycles < 1


def test_recovery_modes_enum():
    assert len(repro.RecoveryMode) == 3


#: Constructor parameter names of the main endpoints and engines, in
#: order.  A new option fails here until the same change edits the pin,
#: so every option added is a visible, reviewed decision.
OPTION_PINS = {
    "repro.transport.alf.sender.AlfSender": (
        "loop", "host", "peer", "flow_id", "mtu", "recovery", "recompute",
        "rto", "max_attempts", "max_outstanding", "fec_group", "plan_cache",
        "presentation", "encryption", "integrity", "pacing", "tracer",
        "on_complete",
    ),
    "repro.transport.alf.receiver.AlfReceiver": (
        "loop", "host", "peer", "flow_id", "deliver", "ack_interval",
        "expected_adus", "plan_cache", "tracer", "zero_copy",
        "presentation", "encryption", "drain_engine", "integrity",
    ),
    "repro.transport.session.SessionInitiator": (
        "loop", "host", "peer", "config", "schemas", "on_established",
        "on_failed", "handshake_timeout", "max_attempts", "recompute",
        "plan_cache", "tracer", "presentation", "encryption", "integrity",
        "pacing", "pacing_auto_rate",
    ),
    "repro.transport.session.SessionListener": (
        "loop", "host", "schemas", "local_syntax", "deliver", "on_session",
        "plan_cache", "tracer", "presentation", "encryption", "integrity",
        "drain_engine", "sharded",
    ),
    "repro.transport.drain.SharedDrainEngine": (
        "loop", "max_rows", "max_delay", "adaptive", "ramp_rows",
        "counters", "tracer",
    ),
    "repro.net.shard.ShardedHost": (
        "front", "shards", "rng", "pool_buffers", "buffer_size", "max_rows",
        "max_delay", "adaptive", "protocols", "buckets_per_shard",
        "rebalance", "counters", "tracer",
    ),
    "repro.transport.pacing.TrainPacer": (
        "loop", "rate_bytes_per_s", "target_train", "mtu", "bucket_trains",
        "aimd_increase", "aimd_backoff", "high_pressure", "low_pressure",
        "backoff_interval", "min_rate_bytes_per_s", "max_rate_bytes_per_s",
        "send", "counters", "tracer", "name",
    ),
}


@pytest.mark.parametrize("path", sorted(OPTION_PINS))
def test_constructor_options_are_pinned(path):
    module_name, _, class_name = path.rpartition(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    assert tuple(inspect.signature(cls).parameters) == OPTION_PINS[path]
