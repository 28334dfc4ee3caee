"""CLI and tooling smoke tests (fast paths only)."""

import importlib.util
import os
import pathlib
import signal
import subprocess
import sys
import types

import pytest

from repro.experiments import parallel
from repro.experiments.cli import main
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


def _spy_run_units(monkeypatch):
    """Replace ``run_units`` with a recorder; returns the call list."""
    calls = []
    monkeypatch.setattr(parallel, "run_units",
                        lambda *a, **kw: calls.append(a) or iter(()))
    return calls


def test_cli_unknown_experiment_raises(monkeypatch, capsys):
    calls = _spy_run_units(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(["run", "fig2,fig99", "--fast"])
    assert info.value.code == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flags, message", [
    (["--unit-timeout", "0"], "--unit-timeout must be > 0"),
    (["--unit-timeout", "-1"], "--unit-timeout must be > 0"),
    (["--unit-timeout", "nan"], "--unit-timeout must be > 0"),
    (["--max-retries", "-1"], "--max-retries must be >= 0"),
], ids=["timeout-zero", "timeout-negative", "timeout-nan",
        "retries-negative"])
def test_cli_rejects_bad_supervision_flags(monkeypatch, capsys, flags,
                                           message):
    calls = _spy_run_units(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(["run", "fig3", "--fast", "--jobs", "2"] + flags)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == []


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


def _kill_worker_once(marker, x):
    """SIGKILL the pool worker on the first attempt; succeed afterwards."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _kill_worker(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _fake_assemble(fast, results):
    table = Table("figcli", "fake", ["i", "v"])
    for i, v in enumerate(results):
        table.add(i, v)
    return table


def _register(monkeypatch, exp_id, funcs, configs=None):
    """Register a fake experiment; unit ``i`` computes ``funcs[i](i)``,
    or ``funcs[i](*configs[i])`` when ``configs`` is given."""
    mod = types.ModuleType(f"_vsched_cli_{exp_id}")
    configs = configs or [(i,) for i in range(len(funcs))]
    units = [WorkUnit(exp_id=exp_id, label=f"u{i}", func=f, config=c,
                      seed=f"{exp_id}-{i}")
             for i, (f, c) in enumerate(zip(funcs, configs))]
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
               "--no-snapshot"])
    assert rc == 0
    assert seen["max_retries"] == 4
    assert seen["unit_timeout"] == 90.0
    assert seen["keep_going"] is False
    assert seen["snapshot"] is False
    # Settings are arguments: the mode did not leak into the process.
    assert "VSCHED_REPRO_SNAPSHOT" not in os.environ


def test_cli_fault_drill(monkeypatch, capsys, tmp_path):
    """Pooled CLI campaigns recover a killed worker, and report a hopeless one.

    Recovery: one unit kills its worker once; the campaign exits 0, says
    so, and writes the bytes a clean serial run writes.  Failure: every
    unit kills its worker on every attempt; ``--keep-going`` ends in the
    failure report and exit 1 instead of a hang.
    """
    marker = str(tmp_path / "killed")
    _register(monkeypatch, "figdrill",
              [_ok_unit, _kill_worker_once, _ok_unit],
              configs=[(0,), (marker, 1), (2,)])
    drill, clean = tmp_path / "drill.txt", tmp_path / "clean.txt"
    rc = main(["run", "figdrill", "--fast", "--jobs", "2",
               "--max-retries", "1", "--out", str(drill)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 retried" in out
    assert os.path.exists(marker)  # the kill happened
    assert main(["run", "figdrill", "--fast", "--out", str(clean)]) == 0
    assert drill.read_bytes() == clean.read_bytes()

    _register(monkeypatch, "figdoomed", [_kill_worker, _kill_worker])
    capsys.readouterr()
    rc = main(["run", "figdoomed", "--fast", "--jobs", "2",
               "--keep-going", "--max-retries", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "campaign failure report" in out
    assert "worker died" in out
    assert "attempts=2" in out


# ----------------------------------------------------------------------
# tools/make_experiments_md.py and tools/abdiff.py (tools/ is not a
# package: load by path)
# ----------------------------------------------------------------------
def _load_tool(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def experiments_md():
    return _load_tool("make_experiments_md")


def test_abdiff_defaults_to_every_prefix_user_in_registry_order():
    """tab3 forks fig14's worlds and fig20 fig19's, so each must follow."""
    assert _load_tool("abdiff").prefix_users(True) == [
        "fig13", "fig14", "tab3", "fig15", "tab4", "fig18", "fig19",
        "fig20", "fig21"]


def test_experiments_md_claims_cover_catalogue(experiments_md):
    assert list(experiments_md.PAPER_CLAIMS) == list(EXPERIMENTS)


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
