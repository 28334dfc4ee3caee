"""Tests for the fault-tolerant campaign supervisor.

The supervisor must survive the faults PR 2's fire-and-forget pool could
not: a worker SIGKILLed mid-unit (requeue + respawn), a hung unit
(deadline kill), transient exceptions (bounded deterministic retry), and
permanent failures under --keep-going (failure panels + report instead of
an aborted campaign) — all without perturbing results, which stay pure
functions of ``(code, config, seed)``.
"""

import multiprocessing as mp
import os
import signal
import sys
import time
import types

import pytest

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.common import EXPERIMENTS, Table
from repro.experiments.supervisor import (
    CampaignInterrupted,
    DeadlinePolicy,
    RetryPolicy,
)
from repro.experiments.units import TransientUnitError, WorkUnit


# ----------------------------------------------------------------------
# Module-level unit bodies (must be picklable by reference).
# ----------------------------------------------------------------------
def _times10(x):
    return x * 10


def _slow_times10(x):
    time.sleep(0.05)
    return x * 10


def _kill_self_once(marker, x):
    """SIGKILL our own worker on the first attempt; succeed afterwards."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _hang_once(marker, x):
    """Hang (past any test deadline) on the first attempt only."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return x * 10


def _always_hangs(x):
    time.sleep(60)
    return x * 10


def _flaky_once(marker, x):
    """Raise a retryable error on the first attempt only."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise TransientUnitError("flaky once")
    return x * 10


def _always_fails(x):
    raise ValueError(f"boom {x}")


def _always_transient(x):
    raise TransientUnitError(f"never settles {x}")


def _assemble(fast, results):
    table = Table("figx", "fake", ["i", "v"])
    for i, v in enumerate(results):
        table.add(i, v)
    return table


def _install(monkeypatch, units, exp_id="figx"):
    """Register a synthetic experiment built from ``units``."""
    mod = types.ModuleType(f"_vsched_fake_{exp_id}")
    mod.scenarios = lambda fast, _u=list(units): list(_u)
    mod.assemble = _assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, f"_vsched_fake_{exp_id}", mod)
    monkeypatch.setitem(EXPERIMENTS, exp_id, f"_vsched_fake_{exp_id}")


def _plain_units(n, exp_id="figx", func=_slow_times10):
    return [WorkUnit(exp_id=exp_id, label=f"u{i}", func=func, config=(i,),
                     cost_hint=1.0, seed=f"{exp_id}-{i}")
            for i in range(n)]


def _expected_rendered(n):
    return _assemble(True, [i * 10 for i in range(n)]).render()


# ----------------------------------------------------------------------
# Crash recovery (the PR 2 hang: a dead worker deadlocked the campaign)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkilled_worker_is_requeued_and_campaign_completes(
            self, monkeypatch, tmp_path):
        marker = str(tmp_path / "killed")
        units = _plain_units(4)
        units[1] = WorkUnit(exp_id="figx", label="killer",
                            func=_kill_self_once, config=(marker, 1),
                            cost_hint=2.0, seed="figx-killer")
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2)
        assert res.ok
        assert res.rendered == _expected_rendered(4)
        stats = parallel.last_campaign_stats()
        assert stats.crashes >= 1
        assert stats.requeues >= 1
        assert stats.respawns >= 1
        killer = [u for u in res.unit_stats if u["label"] == "killer"]
        assert killer[0]["attempts"] == 2

    def test_crash_with_no_retries_fails_that_unit_only(
            self, monkeypatch, tmp_path):
        marker = str(tmp_path / "killed")
        units = _plain_units(3)
        units[0] = WorkUnit(exp_id="figx", label="killer",
                            func=_kill_self_once, config=(marker, 0),
                            cost_hint=2.0, seed="figx-killer",
                            max_retries=0)
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  keep_going=True)
        assert not res.ok
        assert len(res.failed_units) == 1
        fu = res.failed_units[0]
        assert fu.label == "killer"
        assert "worker died" in fu.error
        assert fu.attempts == 1

    def test_no_leaked_worker_processes(self, monkeypatch):
        _install(monkeypatch, _plain_units(4))
        list(parallel.run_units(["figx"], fast=True, jobs=2))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftovers = [p for p in mp.active_children()
                         if p.name.startswith("vsched-unit-")]
            if not leftovers:
                break
            time.sleep(0.05)
        assert not leftovers


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_hung_unit_is_killed_and_retried(self, monkeypatch, tmp_path):
        marker = str(tmp_path / "hung")
        units = _plain_units(3)
        units[2] = WorkUnit(exp_id="figx", label="hanger", func=_hang_once,
                            config=(marker, 2), cost_hint=2.0,
                            seed="figx-hanger")
        _install(monkeypatch, units)
        started = time.monotonic()
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  unit_timeout=1.5)
        assert time.monotonic() - started < 30
        assert res.ok
        assert res.rendered == _expected_rendered(3)
        stats = parallel.last_campaign_stats()
        assert stats.timeouts >= 1
        assert stats.kills >= 1

    def test_hopeless_hang_exhausts_retries_and_fails(self, monkeypatch,
                                                      tmp_path):
        units = [WorkUnit(exp_id="figx", label="hang", func=_always_hangs,
                          config=(0,), cost_hint=2.0, seed="figx-h"),
                 WorkUnit(exp_id="figx", label="fine", func=_times10,
                          config=(1,), cost_hint=1.0, seed="figx-fine")]
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  unit_timeout=1.0, max_retries=1,
                                  keep_going=True)
        assert not res.ok
        assert len(res.failed_units) == 1
        fu = res.failed_units[0]
        assert "deadline" in fu.error
        assert fu.attempts == 2
        assert "gave up" in fu.fate

    def test_derived_deadline_clamps_and_overrides(self):
        pol = DeadlinePolicy(multiplier=10.0, floor_s=5.0, ceil_s=100.0)
        tiny = WorkUnit(exp_id="e", label="l", func=_times10,
                        cost_hint=0.01)
        huge = WorkUnit(exp_id="e", label="l", func=_times10,
                        cost_hint=1e6)
        mid = WorkUnit(exp_id="e", label="l", func=_times10, cost_hint=2.0)
        assert pol.timeout_for(tiny, fast=True) == 5.0
        assert pol.timeout_for(huge, fast=True) == 100.0
        assert pol.timeout_for(mid, fast=True) == 20.0
        # Full mode scales the derived value and ceiling, not the floor.
        assert pol.timeout_for(mid, fast=False) > 20.0
        # Per-unit explicit timeout wins over derivation...
        explicit = WorkUnit(exp_id="e", label="l", func=_times10,
                            cost_hint=2.0, timeout_s=42.0)
        assert pol.timeout_for(explicit, fast=True) == 42.0
        # ...and the campaign-wide override wins over everything.
        over = DeadlinePolicy(multiplier=10.0, floor_s=5.0, ceil_s=100.0,
                              override_s=7.0)
        assert over.timeout_for(explicit, fast=True) == 7.0


# ----------------------------------------------------------------------
# Retry policy and deterministic backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_transient_error_is_retried(self, monkeypatch, tmp_path):
        marker = str(tmp_path / "flaked")
        units = _plain_units(2)
        units[0] = WorkUnit(exp_id="figx", label="flaky", func=_flaky_once,
                            config=(marker, 0), cost_hint=2.0,
                            seed="figx-flaky")
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=1)
        assert res.ok
        assert res.rendered == _expected_rendered(2)
        assert res.retries == 1
        flaky = [u for u in res.unit_stats if u["label"] == "flaky"][0]
        assert flaky["attempts"] == 2

    def test_plain_exception_is_not_retried(self, monkeypatch):
        units = [WorkUnit(exp_id="figx", label="bad", func=_always_fails,
                          config=(3,), seed="figx-bad")]
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=5, keep_going=True)
        fu = res.failed_units[0]
        assert fu.attempts == 1
        assert "boom 3" in fu.error
        assert "not retryable" in fu.fate

    def test_retry_budget_is_bounded(self, monkeypatch):
        units = [WorkUnit(exp_id="figx", label="t", func=_always_transient,
                          config=(1,), seed="figx-t")]
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=2, keep_going=True)
        fu = res.failed_units[0]
        assert fu.attempts == 3
        assert "gave up" in fu.fate

    def test_serial_path_retries_too(self, monkeypatch, tmp_path):
        marker = str(tmp_path / "flaked")
        units = [WorkUnit(exp_id="figx", label="flaky", func=_flaky_once,
                          config=(marker, 0), seed="figx-flaky")]
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=1,
                                  max_retries=1)
        assert res.ok and res.retries == 1

    def test_backoff_is_deterministic_and_bounded(self):
        pol = RetryPolicy(max_retries=3, backoff_base_s=0.1,
                          backoff_cap_s=5.0)
        first = pol.backoff_s("figx/u|seed", 1)
        assert first == pol.backoff_s("figx/u|seed", 1)
        assert pol.backoff_s("figx/u|seed", 2) != first  # new attempt draw
        assert 0.05 <= first < 0.15
        assert all(pol.backoff_s("t", a) <= 5.0 for a in range(1, 12))

    def test_per_unit_overrides(self):
        pol = RetryPolicy(max_retries=3)
        assert pol.retries_for(WorkUnit("e", "l", _times10)) == 3
        assert pol.retries_for(
            WorkUnit("e", "l", _times10, max_retries=0)) == 0
        assert pol.retries_for(
            WorkUnit("e", "l", _times10, retryable=False)) == 0


# ----------------------------------------------------------------------
# Keep-going partial campaigns
# ----------------------------------------------------------------------
class TestKeepGoing:
    def test_healthy_experiments_stream_past_a_failure(self, monkeypatch):
        _install(monkeypatch, _plain_units(3, exp_id="figok"),
                 exp_id="figok")
        bad = [WorkUnit(exp_id="figbad", label="bad", func=_always_fails,
                        config=(7,), seed="figbad-bad")]
        bad += _plain_units(2, exp_id="figbad")[1:]
        _install(monkeypatch, bad, exp_id="figbad")
        results = list(parallel.run_units(["figok", "figbad"], fast=True,
                                          jobs=2, keep_going=True))
        assert [r.exp_id for r in results] == ["figok", "figbad"]
        ok, failed = results
        assert ok.ok and ok.rendered == _expected_rendered(3)
        assert not failed.ok
        assert "FAILED" in failed.rendered
        assert "boom 7" in failed.rendered
        assert failed.failed_units[0].label == "bad"

    def test_keep_going_still_caches_successes(self, monkeypatch,
                                               tmp_path):
        bad = [WorkUnit(exp_id="figbad", label="bad", func=_always_fails,
                        config=(7,), seed="figbad-bad"),
               WorkUnit(exp_id="figbad", label="good", func=_times10,
                        config=(1,), seed="figbad-good")]
        _install(monkeypatch, bad, exp_id="figbad")
        cache = ResultCache(str(tmp_path))
        res, = parallel.run_units(["figbad"], fast=True, jobs=2,
                                  keep_going=True, cache=cache)
        assert not res.ok
        assert cache.stores == 1  # the healthy unit, not the failed one

    def test_without_keep_going_raises_at_assembly(self, monkeypatch):
        units = [WorkUnit(exp_id="figx", label="bad", func=_always_fails,
                          config=(3,), seed="figx-bad")]
        _install(monkeypatch, units)
        with pytest.raises(RuntimeError, match="figx/bad.*boom 3"):
            list(parallel.run_units(["figx"], fast=True, jobs=2))


# ----------------------------------------------------------------------
# Determinism under faults
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    def test_recovered_campaign_matches_clean_serial_run(
            self, monkeypatch, tmp_path):
        """Crash + hang + flaky recoveries must not perturb the table."""
        k_marker = str(tmp_path / "k")
        h_marker = str(tmp_path / "h")
        f_marker = str(tmp_path / "f")
        units = _plain_units(6)
        units[1] = WorkUnit(exp_id="figx", label="killer",
                            func=_kill_self_once, config=(k_marker, 1),
                            cost_hint=3.0, seed="figx-k")
        units[3] = WorkUnit(exp_id="figx", label="hanger", func=_hang_once,
                            config=(h_marker, 3), cost_hint=2.0,
                            seed="figx-h")
        units[5] = WorkUnit(exp_id="figx", label="flaky", func=_flaky_once,
                            config=(f_marker, 5), cost_hint=1.0,
                            seed="figx-f")
        _install(monkeypatch, units)
        faulty, = parallel.run_units(["figx"], fast=True, jobs=2,
                                     unit_timeout=1.5, max_retries=2)
        assert faulty.ok
        # Clean serial reference: pre-create the markers so no unit
        # misbehaves, then run in-process.
        for m in (k_marker, h_marker, f_marker):
            open(m, "w").close()
        clean, = parallel.run_units(["figx"], fast=True, jobs=1)
        assert faulty.rendered == clean.rendered


# ----------------------------------------------------------------------
# Ctrl-C
# ----------------------------------------------------------------------
class TestInterrupt:
    def test_interrupt_tears_down_and_reports_progress(self, monkeypatch):
        import _thread
        import threading
        units = _plain_units(2) + [
            WorkUnit(exp_id="figx", label=f"slow{i}", func=_always_hangs,
                     config=(i,), cost_hint=5.0,
                     seed=f"figx-slow{i}") for i in range(2)]
        _install(monkeypatch, units)
        timer = threading.Timer(1.0, _thread.interrupt_main)
        timer.start()
        try:
            with pytest.raises(CampaignInterrupted) as info:
                list(parallel.run_units(["figx"], fast=True, jobs=2,
                                        unit_timeout=300.0))
        finally:
            timer.cancel()
        assert 0 <= info.value.done < info.value.total == 4
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftovers = [p for p in mp.active_children()
                         if p.name.startswith("vsched-unit-")]
            if not leftovers:
                break
            time.sleep(0.05)
        assert not leftovers
