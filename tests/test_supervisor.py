"""Tests for the fault-tolerant campaign supervisor.

The supervisor must survive the faults PR 2's fire-and-forget pool could
not: a worker SIGKILLed mid-unit (requeue + respawn), a hung unit
(deadline kill), both retried within a bounded, deterministic budget, and
permanent failures under --keep-going (failure panels + report instead of
an aborted campaign) — all without perturbing results, which stay pure
functions of ``(code, config, seed)``.

A unit body that SIGKILLs its own process must run pooled: with one
pending unit ``run_units`` drops to the in-process path, and the kill
would take the test runner with it.  So every such fake experiment has
at least two units and runs with ``jobs=2``.
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
    backoff_s,
    deadline_s,
)
from repro.experiments.units import WorkUnit


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


def _always_kills_self(x):
    os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _always_fails(x):
    raise ValueError(f"boom {x}")


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


def _leftover_workers(grace_s=5.0):
    """Pool workers still alive after ``grace_s`` seconds of reaping."""
    deadline = time.monotonic() + grace_s
    while True:
        leftovers = [p for p in mp.active_children()
                     if p.name.startswith("vsched-unit-")]
        if not leftovers or time.monotonic() >= deadline:
            return leftovers
        time.sleep(0.05)


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
                            cost_hint=2.0, seed="figx-killer")
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=0, keep_going=True)
        assert not res.ok
        assert len(res.failed_units) == 1
        fu = res.failed_units[0]
        assert fu.label == "killer"
        assert "worker died" in fu.error
        assert fu.attempts == 1

    def test_no_leaked_worker_processes(self, monkeypatch):
        _install(monkeypatch, _plain_units(4))
        list(parallel.run_units(["figx"], fast=True, jobs=2))
        assert not _leftover_workers()

    def test_exhausted_respawn_budget_fails_every_pending_unit(
            self, monkeypatch):
        # 2 workers + a respawn budget of max(16, 8 * 2) = 16 gives 18
        # worker lives, fewer than the 24 attempts 12 units may take.
        units = _plain_units(12, func=_always_kills_self)
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=1, keep_going=True)
        assert not res.ok
        assert len(res.failed_units) == 12
        assert any(fu.error == "worker pool exhausted"
                   for fu in res.failed_units)
        stats = parallel.last_campaign_stats()
        assert stats.respawns == 16
        assert stats.crashes == 18
        assert not _leftover_workers()


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
        def unit(cost_hint):
            return WorkUnit(exp_id="e", label="l", func=_times10,
                            cost_hint=cost_hint)
        assert deadline_s(unit(0.01)) == 30.0      # floor
        assert deadline_s(unit(1e6)) == 1800.0     # ceiling
        assert deadline_s(unit(2.0)) == 60.0       # 30 x the hint
        # A full-mode hint is already in full-mode seconds (fig17's 55):
        # no second scale on top.
        assert deadline_s(unit(55.0)) == 1650.0
        # The campaign-wide override wins over the derivation.
        assert deadline_s(unit(2.0), 7.0) == 7.0
        assert deadline_s(unit(1e6), 7.0) == 7.0


# ----------------------------------------------------------------------
# Retry policy and deterministic backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_plain_exception_is_not_retried(self, monkeypatch):
        units = _plain_units(2)
        units[0] = WorkUnit(exp_id="figx", label="bad", func=_always_fails,
                            config=(3,), seed="figx-bad")
        _install(monkeypatch, units)
        for jobs in (2, 1):  # pooled, then in-process
            res, = parallel.run_units(["figx"], fast=True, jobs=jobs,
                                      max_retries=5, keep_going=True)
            fu, = res.failed_units
            assert fu.attempts == 1
            assert "boom 3" in fu.error
            assert "not retryable" in fu.fate

    def test_retry_budget_is_bounded(self, monkeypatch):
        units = _plain_units(2)
        units[0] = WorkUnit(exp_id="figx", label="t",
                            func=_always_kills_self, config=(0,),
                            cost_hint=2.0, seed="figx-t")
        _install(monkeypatch, units)
        res, = parallel.run_units(["figx"], fast=True, jobs=2,
                                  max_retries=2, keep_going=True)
        fu, = res.failed_units
        assert fu.label == "t"
        assert "worker died" in fu.error
        assert fu.attempts == 3
        assert "gave up" in fu.fate

    def test_backoff_is_deterministic_and_bounded(self):
        first = backoff_s("figx/u|seed", 1)
        assert first == backoff_s("figx/u|seed", 1)
        assert backoff_s("figx/u|seed", 2) != first  # new attempt draw
        assert 0.05 <= first < 0.15
        assert all(backoff_s("t", a) <= 5.0 for a in range(1, 12))


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
        """Crash + hang recoveries must not perturb the table."""
        k_marker = str(tmp_path / "k")
        h_marker = str(tmp_path / "h")
        units = _plain_units(6)
        units[1] = WorkUnit(exp_id="figx", label="killer",
                            func=_kill_self_once, config=(k_marker, 1),
                            cost_hint=3.0, seed="figx-k")
        units[3] = WorkUnit(exp_id="figx", label="hanger", func=_hang_once,
                            config=(h_marker, 3), cost_hint=2.0,
                            seed="figx-h")
        _install(monkeypatch, units)
        faulty, = parallel.run_units(["figx"], fast=True, jobs=2,
                                     unit_timeout=1.5, max_retries=2)
        assert faulty.ok
        # Clean serial reference: pre-create the markers so no unit
        # misbehaves, then run in-process.
        for m in (k_marker, h_marker):
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
        assert not _leftover_workers()
