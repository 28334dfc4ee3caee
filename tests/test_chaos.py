"""Tests for the deterministic fault-injection (chaos) harness.

Chaos decisions must be pure functions of ``(unit tag, attempt)``, so a
chaos campaign is reproducible; and when every injected fault is
transient and the retry budget covers it, a pooled chaos campaign must
render byte-identically to a clean serial run.
"""

import sys
import time
import types

import pytest

from repro.experiments import parallel
from repro.experiments.chaos import ChaosPlan
from repro.experiments.common import EXPERIMENTS, Table
from repro.experiments.units import TransientUnitError, WorkUnit


def _times10(x):
    time.sleep(0.02)
    return x * 10


def _assemble(fast, results):
    table = Table("figc", "fake", ["i", "v"])
    for i, v in enumerate(results):
        table.add(i, v)
    return table


def _units(n=4):
    return [WorkUnit(exp_id="figc", label=f"u{i}", func=_times10,
                     config=(i,), cost_hint=1.0, seed=f"figc-{i}")
            for i in range(n)]


@pytest.fixture
def fake_experiment(monkeypatch):
    mod = types.ModuleType("_vsched_fake_chaos")
    mod.scenarios = lambda fast: _units()
    mod.assemble = _assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, "_vsched_fake_chaos", mod)
    monkeypatch.setitem(EXPERIMENTS, "figc", "_vsched_fake_chaos")


class TestParse:
    def test_full_spec(self):
        plan = ChaosPlan.parse("crash:0.2,hang:0.1,flaky:0.5,hang_s=30")
        assert plan == ChaosPlan(crash=0.2, hang=0.1, flaky=0.5,
                                 hang_s=30.0)

    def test_partial_spec_defaults(self):
        plan = ChaosPlan.parse("flaky:1.0")
        assert plan.flaky == 1.0 and plan.crash == 0.0
        assert plan.hang_s == 3600.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ChaosPlan.parse("explode:0.5")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosPlan.parse("crash:1.5")
        with pytest.raises(ValueError, match="malformed"):
            ChaosPlan.parse("crash:lots")


class TestDecide:
    def test_decisions_are_deterministic(self):
        plan = ChaosPlan(crash=0.3, hang=0.3, flaky=0.5)
        decisions = [plan.decide(f"tag{i}", a)
                     for i in range(50) for a in range(3)]
        again = [plan.decide(f"tag{i}", a)
                 for i in range(50) for a in range(3)]
        assert decisions == again
        assert any(d == "crash" for d in decisions)
        assert any(d == "hang" for d in decisions)
        assert any(d is None for d in decisions)

    def test_flaky_fires_only_on_first_attempt(self):
        plan = ChaosPlan(flaky=1.0)
        for i in range(10):
            assert plan.decide(f"tag{i}", 0) == "flaky"
            assert plan.decide(f"tag{i}", 1) is None

    def test_flaky_injection_raises_transient(self):
        plan = ChaosPlan(flaky=1.0)
        with pytest.raises(TransientUnitError, match="chaos"):
            plan.maybe_inject("tag", 0)
        plan.maybe_inject("tag", 1)  # second attempt: no-op


class TestChaosCampaigns:
    """Drive each chaos mode through a 2-worker campaign."""

    def test_flaky_campaign_recovers_and_matches_serial(
            self, fake_experiment):
        clean, = parallel.run_units(["figc"], fast=True, jobs=1)
        chaotic, = parallel.run_units(["figc"], fast=True, jobs=2,
                                      max_retries=2,
                                      chaos=ChaosPlan.parse("flaky:1.0"))
        assert chaotic.ok
        assert chaotic.rendered == clean.rendered
        # flaky:1.0 fails every unit exactly once.
        assert all(u["attempts"] == 2 for u in chaotic.unit_stats)
        assert chaotic.retries == len(chaotic.unit_stats)

    def test_crash_campaign_recovers_and_matches_serial(
            self, fake_experiment):
        clean, = parallel.run_units(["figc"], fast=True, jobs=1)
        chaotic, = parallel.run_units(["figc"], fast=True, jobs=2,
                                      max_retries=5, keep_going=True,
                                      chaos=ChaosPlan.parse("crash:0.4"))
        assert chaotic.ok, chaotic.rendered
        assert chaotic.rendered == clean.rendered
        stats = parallel.last_campaign_stats()
        # crash:0.4 over 4 units deterministically kills at least one
        # attempt (seeded on unit tags, reproducible run to run).
        assert stats.crashes >= 1
        assert stats.respawns >= 1

    def test_hang_campaign_deadline_kills_then_recovers(
            self, fake_experiment):
        clean, = parallel.run_units(["figc"], fast=True, jobs=1)
        started = time.monotonic()
        chaotic, = parallel.run_units(
            ["figc"], fast=True, jobs=2, unit_timeout=1.0, max_retries=5,
            keep_going=True, chaos=ChaosPlan.parse("hang:0.5,hang_s=120"))
        assert time.monotonic() - started < 60
        assert chaotic.ok, chaotic.rendered
        assert chaotic.rendered == clean.rendered
        stats = parallel.last_campaign_stats()
        assert stats.timeouts >= 1
        assert stats.kills >= 1

    def test_hopeless_crash_campaign_fails_with_report(
            self, fake_experiment):
        res, = parallel.run_units(["figc"], fast=True, jobs=2,
                                  max_retries=1, keep_going=True,
                                  chaos=ChaosPlan.parse("crash:1.0"))
        assert not res.ok
        assert len(res.failed_units) == len(_units())
        for fu in res.failed_units:
            assert "worker died" in fu.error
            assert fu.attempts == 2
            assert "gave up" in fu.fate

    def test_serial_campaign_ignores_chaos(self, fake_experiment):
        # crash:1.0 in-process would kill pytest itself; the serial path
        # must not inject.
        res, = parallel.run_units(["figc"], fast=True, jobs=1,
                                  chaos=ChaosPlan.parse("crash:1.0"))
        assert res.ok
