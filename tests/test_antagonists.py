"""Tests for the antagonist family, the graze counter, and the
degradation metrics."""

import pytest

from repro.cluster import build_plain_vm, install_antagonist
from repro.core.module import VSchedModule
from repro.core.vsched import VSched, VSchedConfig
from repro.metrics.degradation import DegradationReport, GroundTruthTracker
from repro.probers import VAct, VCap
from repro.probers.vcap import _WindowState
from repro.sim import MSEC, SEC, USEC
from repro.workloads.antagonists import (
    ANTAGONIST_KINDS,
    AntagonistSpec,
    BurstPlan,
    DutyCyclePlan,
    QuotaPlan,
    build_plan,
)


def _spin(api):
    while True:
        yield api.run(MSEC)


def saturated_env(n=2, **kw):
    env = build_plain_vm(n, **kw)
    for c in range(n):
        env.kernel.spawn(_spin, f"sat{c}", cpu=c, allowed=(c,))
    return env


class TestPlans:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AntagonistSpec(kind="nope")
        with pytest.raises(ValueError):
            AntagonistSpec(kind="tick_evader", intensity=1.5)

    def test_plans_are_deterministic_data(self):
        for kind in ANTAGONIST_KINDS:
            spec = AntagonistSpec(kind=kind, seed=f"det-{kind}")
            a = build_plan(spec, horizon_ns=20 * SEC)
            b = build_plan(spec, horizon_ns=20 * SEC)
            assert a == b
            assert repr(a) == repr(b)  # repr doubles as cache key

    def test_seed_changes_randomized_plans(self):
        a = build_plan(AntagonistSpec(kind="burst_thief", seed="s1"))
        b = build_plan(AntagonistSpec(kind="burst_thief", seed="s2"))
        assert a != b

    def test_tick_evader_stays_below_preempt_threshold(self):
        for intensity in (0.0, 0.5, 1.0):
            plan = build_plan(AntagonistSpec(kind="tick_evader",
                                             intensity=intensity))
            assert isinstance(plan, DutyCyclePlan)
            assert 25 * USEC < plan.on_ns < 200 * USEC
            assert plan.on_ns + plan.off_ns == MSEC  # tick-locked

    def test_burst_and_quota_schedules_cover_horizon(self):
        bp = build_plan(AntagonistSpec(kind="burst_thief"), horizon_ns=30 * SEC)
        assert isinstance(bp, BurstPlan) and len(bp.bursts) >= 5
        assert all(t + d <= 32 * SEC for t, d in bp.bursts)
        qp = build_plan(AntagonistSpec(kind="adaptive_quota"),
                        horizon_ns=30 * SEC)
        assert isinstance(qp, QuotaPlan) and len(qp.updates) >= 10
        assert all(0 < q <= p for _, q, p in qp.updates)


class TestInstaller:
    def test_duty_cycler_steals_time(self):
        env = saturated_env(2)
        install_antagonist(env, AntagonistSpec(kind="steal_flapper"),
                           horizon_ns=3 * SEC)
        env.engine.run_until(3 * SEC)
        assert all(v.steal_ns(env.engine.now) > 50 * MSEC
                   for v in env.vm.vcpus)

    def test_burst_thief_quiet_between_bursts(self):
        env = saturated_env(1)
        ant = install_antagonist(env, AntagonistSpec(kind="burst_thief",
                                                     seed="bt-test"),
                                 horizon_ns=10 * SEC)
        env.engine.run_until(10 * SEC)
        stolen = env.vm.vcpus[0].steal_ns(env.engine.now)
        burst_total = sum(d for _, d in ant.plan.bursts if _ < 10 * SEC)
        # Theft happens, but only during the scheduled bursts (the 4x
        # weight means the thief takes ~80% of a burst).
        assert 0 < stolen < burst_total

    def test_adaptive_quota_installs_bandwidth(self):
        env = saturated_env(2)
        install_antagonist(env, AntagonistSpec(kind="adaptive_quota"),
                           horizon_ns=5 * SEC)
        env.engine.run_until(5 * SEC)
        assert all(v.bandwidth is not None for v in env.vm.vcpus)
        assert all(v.steal_ns(env.engine.now) > 0 for v in env.vm.vcpus)

    def test_remove_stops_theft(self):
        env = saturated_env(1)
        ant = install_antagonist(env, AntagonistSpec(kind="steal_flapper"),
                                 horizon_ns=10 * SEC)
        env.engine.run_until(2 * SEC)
        ant.remove()
        stolen = env.vm.vcpus[0].steal_ns(env.engine.now)
        env.engine.run_until(4 * SEC)
        assert env.vm.vcpus[0].steal_ns(env.engine.now) == stolen


class TestGrazeCounter:
    def test_tick_evader_grazes_without_preemptions(self):
        """The evasion itself: sub-threshold per-tick steal raises the
        graze counter while the preemption counter stays ~flat."""
        env = saturated_env(1)
        install_antagonist(env, AntagonistSpec(kind="tick_evader"),
                           horizon_ns=3 * SEC)
        env.engine.run_until(3 * SEC)
        cpu = env.kernel.cpus[0]
        assert cpu.steal_graze_count > 500
        assert cpu.preempt_count < cpu.steal_graze_count / 10

    def test_clean_run_has_no_grazes(self):
        env = saturated_env(1)
        env.engine.run_until(2 * SEC)
        cpu = env.kernel.cpus[0]
        assert cpu.steal_graze_count == 0


class TestDegenerateWindowGuard:
    def test_zero_elapsed_window_counted_not_crashed(self):
        env = build_plain_vm(1)
        module = VSchedModule(env.kernel)
        vcap = VCap(env.kernel, module)
        task = env.kernel.spawn(_spin, "t0", cpu=0, allowed=(0,))
        env.engine.run_until(MSEC)
        now = env.kernel.now()
        win = _WindowState(heavy=False, cpus=[0])
        win.probers = {0: task}
        win.steal_before = {0: env.kernel.steal_of(0)}
        win.preempt_before = {0: 0}
        win.graze_before = {0: 0}
        win.spawn_time = {0: now}  # spawn stalled to the end instant
        vcap._end_window(win)
        assert vcap.degenerate_windows == 1
        assert module.store[0].capacity > 0  # finite, no inf/NaN


class TestDegradation:
    def test_report_json_roundtrip(self):
        rep = DegradationReport(label="x", samples=10, cap_err=0.125,
                                act_err=0.5, samples_rejected=3,
                                quarantined_windows=2, degenerate_windows=1)
        again = DegradationReport.from_json(rep.to_json())
        assert again == rep
        assert again.combined_err == pytest.approx(0.3125)

    def test_tracker_clean_env_near_zero_error(self):
        env = saturated_env(2)
        cfg = VSchedConfig.enhanced().with_(enable_rwc=False)
        vs = VSched(env.kernel, cfg)
        vs.start()
        tracker = GroundTruthTracker(env, vs.module.store)
        tracker.start(delay_ns=4 * SEC)
        env.engine.run_until(8 * SEC)
        rep = tracker.report("clean", vcap=vs.vcap)
        assert rep.samples > 0
        assert rep.cap_err < 0.05
        assert rep.act_err < 0.05

    def test_hardened_beats_naive_under_poisoner(self):
        """The tentpole claim at unit scale: one antagonist, both prober
        configurations, hardened strictly better."""
        results = {}
        for robust in (False, True):
            env = saturated_env(2)
            cfg = VSchedConfig.enhanced().with_(enable_rwc=False,
                                                robust_probers=robust)
            vs = VSched(env.kernel, cfg)
            install_antagonist(env, AntagonistSpec(kind="probe_poisoner"),
                               horizon_ns=12 * SEC)
            vs.start()
            tracker = GroundTruthTracker(env, vs.module.store)
            tracker.start(delay_ns=4 * SEC)
            env.engine.run_until(12 * SEC)
            results[robust] = tracker.report("p", vcap=vs.vcap)
        assert results[True].combined_err < results[False].combined_err
        assert results[True].samples_rejected > 0

    def test_hardened_run_is_deterministic(self):
        def once():
            env = saturated_env(1)
            cfg = VSchedConfig.enhanced().with_(enable_rwc=False,
                                                robust_probers=True)
            vs = VSched(env.kernel, cfg)
            install_antagonist(env, AntagonistSpec(kind="burst_thief",
                                                   seed="det"),
                               horizon_ns=6 * SEC)
            vs.start()
            tracker = GroundTruthTracker(env, vs.module.store)
            tracker.start(delay_ns=2 * SEC)
            env.engine.run_until(6 * SEC)
            return tracker.report("d", vcap=vs.vcap)

        assert once() == once()
