"""The command-line interface."""

import pytest

from repro.bench.harness import ExperimentResult
from repro.cli import CATALOG, main


def test_catalog_covers_design_index():
    """Every experiment id in DESIGN.md's index is runnable."""
    for eid in ("T1", "E1", "E2", "E3", "E4", "E5", "E6", "E7",
                "F1", "F2", "F3", "F4", "F5", "F6",
                "A1", "A2", "A3", "A4", "A5", "A6"):
        assert eid in CATALOG


def test_catalog_runners_return_results():
    _, runner = CATALOG["T1"]
    assert isinstance(runner(), ExperimentResult)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "Table 1" in out


def test_run_single(capsys):
    assert main(["run", "T1"]) == 0
    out = capsys.readouterr().out
    assert "[T1]" in out
    assert "130.00" in out


def test_run_is_case_insensitive(capsys):
    assert main(["run", "t1"]) == 0
    assert "[T1]" in capsys.readouterr().out


def test_run_multiple(capsys):
    assert main(["run", "T1", "E2"]) == 0
    out = capsys.readouterr().out
    assert "[T1]" in out and "[E2]" in out


def test_run_unknown_id(capsys):
    assert main(["run", "Z9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_nothing(capsys):
    assert main(["run"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_calibration(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "MIPS R2000" in out
    assert "90.0" in out  # the fused copy+checksum check


def test_report_to_path(tmp_path, capsys):
    target = tmp_path / "EXP.md"
    assert main(["report", str(target)]) == 0
    text = target.read_text()
    assert "[T1]" in text and "[E7]" in text


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    assert "guards hold" in capsys.readouterr().out


def test_verify_detects_drift(monkeypatch, capsys):
    from repro.bench import regress

    monkeypatch.setattr(
        regress, "verify_headlines", lambda: ["T1 / fake: drifted"]
    )
    assert main(["verify"]) == 1
    assert "DRIFT" in capsys.readouterr().err


def test_guard_bands_are_sane():
    from repro.bench.regress import _SUITES

    for _, guards in _SUITES:
        for guard in guards:
            assert guard.low <= guard.high


def _stats(capsys):
    """Run `repro stats` and parse its flat `section.key value` lines."""
    assert main(["stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stats = dict(line.split(" ", 1) for line in lines)
    assert len(stats) == len(lines)  # every key printed once
    return stats


def test_stats(capsys):
    stats = _stats(capsys)
    assert stats
    assert all(key.count(".") >= 1 for key in stats)


def test_ilp_stats(capsys):
    stats = _stats(capsys)
    assert "plan_cache.hit_rate" in stats


def test_buffers_stats(capsys):
    from repro.buffers import BufferChain
    from repro.machine.accounting import datapath_counters

    # Put something recognisable on the counters first.
    datapath_counters().reset()
    chain = BufferChain.wrap(b"x" * 128)
    chain.linearize()
    chain.release()

    stats = _stats(capsys)
    assert stats["datapath.copies_by_label.linearize"] == "128"
    # Rx pools belong to their hosts; no process-wide pool is printed.
    assert not any(key.startswith("rx_pool.") for key in stats)
    datapath_counters().reset()


def test_presentation_stats(capsys):
    from repro.presentation.abstract import ArrayOf, Int32
    from repro.presentation.compiler import shared_codec_cache
    from repro.presentation.lwts import LwtsCodec

    shared_codec_cache().get_or_compile(ArrayOf(Int32()), LwtsCodec())
    stats = _stats(capsys)
    assert "codec_cache.entries" in stats
    assert int(stats["codec_cache.lookups"]) >= 1
    assert "presentation.fused_conversions" in stats


def test_secure_stats(capsys):
    from repro.stages.encrypt import WordXorStage, secure_counters

    secure_counters().reset()
    WordXorStage(0xABCD).apply(b"x" * 64)
    stats = _stats(capsys)
    assert stats["secure.stage_passes"] == "1"
    assert stats["secure.stage_bytes"] == "64"
    assert "secure.fused_passes" in stats
    assert "secure.chain_passes" in stats
    assert "integrity.mask_cache_entries" in stats
    secure_counters().reset()


def test_subsystem_stats_commands_are_gone():
    with pytest.raises(SystemExit):
        main(["drain", "stats"])


def test_p3_in_catalog():
    assert "P3" in CATALOG
    result = CATALOG["P3"][1]()
    assert isinstance(result, ExperimentResult)
    assert result.measured("chain read passes per ADU, compiled-fused") == 1.0


def test_p4_in_catalog():
    assert "P4" in CATALOG
    result = CATALOG["P4"][1]()
    assert isinstance(result, ExperimentResult)
    assert result.measured("send-side read passes per ADU") == 1.0
    assert result.measured("receive-side read passes per ADU") == 1.0
