"""CLI and tooling smoke tests (fast paths only)."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import types

import pytest

from repro.experiments import parallel
from repro.experiments.chaos import ChaosPlan
from repro.experiments.cli import ALL_ORDER, main
from repro.experiments.common import EXPERIMENTS, Table
from repro.experiments.units import WorkUnit


def test_cli_run_single_experiment(capsys, tmp_path):
    out_file = tmp_path / "out.txt"
    rc = main(["run", "fig3", "--fast", "--out", str(out_file)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "fig3" in captured
    assert "shape check OK" in captured
    assert "fig3" in out_file.read_text()


def test_cli_no_check_flag(capsys):
    rc = main(["run", "fig10b", "--fast", "--no-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shape check OK" not in out


def test_cli_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["run", "fig99", "--fast"])


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "list"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "fig21" in proc.stdout


# ----------------------------------------------------------------------
# Supervision flags: --keep-going, mid-stream abort, Ctrl-C reporting
# ----------------------------------------------------------------------
def _ok_unit(x):
    return x * 10


def _bad_unit(x):
    raise ValueError(f"boom {x}")


def _fake_assemble(fast, results):
    table = Table("figcli", "fake", ["i", "v"])
    for i, v in enumerate(results):
        table.add(i, v)
    return table


def _register(monkeypatch, exp_id, funcs):
    mod = types.ModuleType(f"_vsched_cli_{exp_id}")
    units = [WorkUnit(exp_id=exp_id, label=f"u{i}", func=f, config=(i,),
                      seed=f"{exp_id}-{i}") for i, f in enumerate(funcs)]
    mod.scenarios = lambda fast, _u=units: list(_u)
    mod.assemble = _fake_assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, f"_vsched_cli_{exp_id}", mod)
    monkeypatch.setitem(EXPERIMENTS, exp_id, f"_vsched_cli_{exp_id}")


def test_cli_keep_going_streams_healthy_and_reports(monkeypatch, capsys):
    _register(monkeypatch, "figgood", [_ok_unit, _ok_unit])
    _register(monkeypatch, "figbadx", [_bad_unit, _ok_unit])
    rc = main(["run", "figgood,figbadx", "--fast", "--jobs", "2",
               "--keep-going"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "== figcli: fake ==" in out        # healthy table streamed
    assert "FAILED" in out
    assert "campaign failure report" in out
    assert "figbadx/u0: ValueError: boom 0" in out
    assert "attempts=1" in out


def test_cli_abort_still_prints_cache_summary_and_completed(
        monkeypatch, capsys, tmp_path):
    _register(monkeypatch, "figgood", [_ok_unit, _ok_unit])
    _register(monkeypatch, "figbadx", [_bad_unit])
    rc = main(["run", "figgood,figbadx", "--fast", "--jobs", "2",
               "--cache", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[cache] hits=" in out
    assert "campaign aborted" in out
    assert "experiments completed before abort: figgood" in out


def test_cli_default_run_aborts_like_pooled_run(monkeypatch, capsys):
    # No --jobs/--cache/--keep-going: the in-process campaign streams
    # units (the registered modules have no run()) and a failing unit
    # ends in the same abort report as a pooled campaign.
    _register(monkeypatch, "figgood", [_ok_unit, _ok_unit])
    _register(monkeypatch, "figbadx", [_bad_unit])
    rc = main(["run", "figgood,figbadx", "--fast"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "campaign aborted" in out
    assert "experiments completed before abort: figgood" in out


def test_cli_interrupt_prints_progress_summary(monkeypatch, capsys):
    def fake_run_units(*args, **kwargs):
        raise parallel.CampaignInterrupted(3, 10)
        yield  # pragma: no cover - make it a generator

    monkeypatch.setattr(parallel, "run_units", fake_run_units)
    rc = main(["run", "fig3", "--fast", "--jobs", "2"])
    out = capsys.readouterr().out
    assert rc == 130
    assert "interrupted after 3/10 units (cached results preserved)" in out


def test_cli_retry_flags_are_plumbed(monkeypatch, capsys):
    monkeypatch.delenv("VSCHED_REPRO_SNAPSHOT", raising=False)
    seen = {}
    real_run_units = parallel.run_units

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real_run_units(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_units", spy)
    _register(monkeypatch, "figgood", [_ok_unit, _ok_unit])
    rc = main(["run", "figgood", "--fast", "--jobs", "2",
               "--max-retries", "4", "--unit-timeout", "90",
               "--no-snapshot", "--chaos", "flaky:1.0"])
    assert rc == 0
    assert seen["max_retries"] == 4
    assert seen["unit_timeout"] == 90.0
    assert seen["keep_going"] is False
    assert seen["snapshot"] is False
    assert seen["chaos"] == ChaosPlan(flaky=1.0)
    # Settings are arguments: the mode did not leak into the process.
    assert "VSCHED_REPRO_SNAPSHOT" not in os.environ


def test_cli_malformed_chaos_exits_before_running(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(parallel, "run_units",
                        lambda *a, **kw: calls.append(a) or iter(()))
    with pytest.raises(SystemExit) as info:
        main(["run", "fig3", "--fast", "--jobs", "2",
              "--chaos", "explode:0.5"])
    assert info.value.code == 2
    assert "unknown mode" in capsys.readouterr().err
    assert calls == []


# ----------------------------------------------------------------------
# tools/make_experiments_md.py (tools/ is not a package: load by path)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def experiments_md():
    path = (pathlib.Path(__file__).resolve().parents[1] / "tools"
            / "make_experiments_md.py")
    spec = importlib.util.spec_from_file_location("make_experiments_md", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_experiments_md_claims_cover_catalogue(experiments_md):
    assert set(experiments_md.PAPER_CLAIMS) == set(ALL_ORDER)


def test_experiments_md_regenerates_byte_identically(experiments_md,
                                                     tmp_path):
    outs = [tmp_path / "a.md", tmp_path / "b.md"]
    for out in outs:
        assert experiments_md.main(
            ["--only", "fig3,fig10b", "--out", str(out)]) == 0
    text = outs[0].read_text()
    assert outs[1].read_text() == text
    assert text.count("shape checks PASSED") == 2
    assert "wall" not in text
