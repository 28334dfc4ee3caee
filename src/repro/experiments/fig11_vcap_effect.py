"""Figure 11 — the impact of accurate vCPU capacity (vcap) on CFS.

(a) *Asymmetric capacity*: a 16-vCPU VM whose last four vCPUs have 2× the
capacity of the rest; Sysbench runs 4 CPU-bound threads.  Stock CFS's
steal-based capacity estimate is misled by idle vCPUs (no steal observed →
they look strong), so threads spend under half their time on the fast
vCPUs; with vcap the misfit/active-balance machinery reliably finds them
(paper: 44% → 81% residency, +32% throughput).

(b) *Symmetric capacity*: all vCPUs equal; the fluctuating default estimate
causes spurious migrations to idle vCPUs that merely look stronger.  vcap
removes them (paper: 74% fewer migrations, +4% throughput).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.guest.task import TaskState
from repro.sim.engine import MSEC, SEC
from repro.workloads import SysbenchCpu

VCAP_ONLY = {"enable_vtop": False, "enable_rwc": False}

SCENARIOS = (("asymmetric", True), ("symmetric", False))
CONFIGS = (("CFS", False), ("CFS+vcap", True))


def _build(asymmetric: bool):
    env = build_plain_vm(16)
    # Slow vCPUs share their core 50/50 with a co-located stress task (the
    # paper's Sysbench-in-another-VM); fast vCPUs (asymmetric case) run
    # dedicated.
    for i in range(16):
        if asymmetric and i >= 12:
            continue  # full-capacity vCPU
        env.machine.add_host_task(f"stress{i}", pinned=(i,))
    # Host housekeeping noise: short high-priority bursts on every core.
    # Real multi-tenant hosts always have some — it is what makes the
    # tick-grained steal-based capacity estimate twitchy (a single noisy
    # tick craters the estimate), while vcap's 100 ms windows smooth it.
    from repro.core.weights import weight_for_nice
    for i in range(16):
        env.machine.add_host_task(
            f"hk{i}", weight=weight_for_nice(-10), pinned=(i,),
            duty_on_ns=int(2.4 * MSEC), duty_off_ns=int(5.6 * MSEC))
    return env


def _warm_up(scenario: str, config: str):
    """Build one (scenario, config) world and run its 8 s warm-up."""
    asym = dict(SCENARIOS)[scenario]
    vcap = dict(CONFIGS)[config]
    env = _build(asym)
    mode = "enhanced" if vcap else "cfs"
    vs = attach_scheduler(env, mode, overrides=VCAP_ONLY if vcap else None)
    ctx = make_context(env, vs, seed=f"fig11-{scenario}-{config}")
    wl = SysbenchCpu(threads=4)
    wl.start(ctx)
    # Warm up PELT/probers; measurement starts at this instant.
    env.engine.run_until(env.engine.now + 8 * SEC)
    return env, wl


class _ResidencySampler:
    """Counts fast-core (index >= 12) residency of running tasks.

    A bound method rather than a closure: it pickles into a snapshot
    image, should this scenario ever be frozen and forked past the
    measurement start.
    """

    def __init__(self, env, wl, stop: int, step: int):
        self.env = env
        self.wl = wl
        self.stop = stop
        self.step = step
        self.fast_time = 0
        self.samples = 0

    def tick(self) -> None:
        for t in self.wl.tasks:
            if t.state == TaskState.RUNNING and t.cpu is not None:
                self.samples += 1
                if t.cpu.index >= 12:
                    self.fast_time += 1
        if self.env.engine.now < self.stop:
            self.env.engine.call_in(self.step, self.tick)


def _scenario(scenario: str, config: str, fast: bool) -> Tuple:
    """Work-unit body: warm up, then measure placement/throughput."""
    env, wl = _warm_up(scenario, config)
    duration_ns = (10 if fast else 40) * SEC
    events0 = wl.events
    migr0 = env.kernel.stats.migrations

    # Sample where the threads execute.
    stop = env.engine.now + duration_ns
    sampler = _ResidencySampler(env, wl, stop, step=10 * MSEC)
    env.engine.call_in(sampler.step, sampler.tick)
    env.engine.run_until(stop)
    events = wl.events - events0
    migrations = env.kernel.stats.migrations - migr0
    residency = 100.0 * sampler.fast_time / max(1, sampler.samples)
    return events, migrations, residency


def scenarios(fast: bool) -> List[WorkUnit]:
    cost = 2.3 if fast else 9.0
    return [WorkUnit(exp_id="fig11", label=f"{scenario}-{config}",
                     func=_scenario, config=(scenario, config, fast),
                     cost_hint=cost, seed=f"fig11-{scenario}-{config}")
            for scenario, _asym in SCENARIOS
            for config, _vcap in CONFIGS]


def assemble(fast: bool, results: List[Tuple]) -> Table:
    table = Table(
        exp_id="fig11",
        title="Impact of accurate vCPU capacity (Sysbench, 4 threads)",
        columns=["scenario", "config", "events", "migrations_per_thread",
                 "fast_vcpu_residency_pct"],
        paper_expectation="asymmetric: residency 44%->81%, +32% throughput; "
                          "symmetric: 74% fewer migrations, +4% throughput",
    )
    it = iter(results)
    for scenario, asym in SCENARIOS:
        for config, _vcap in CONFIGS:
            ev, mig, res = next(it)
            table.add(scenario, config, ev, mig / 4.0,
                      res if asym else float("nan"))
    return table


def check(table: Table) -> None:
    rows = {(r[0], r[1]): r for r in table.rows}
    asym_cfs = rows[("asymmetric", "CFS")]
    asym_vcap = rows[("asymmetric", "CFS+vcap")]
    sym_cfs = rows[("symmetric", "CFS")]
    sym_vcap = rows[("symmetric", "CFS+vcap")]
    # Residency on fast vCPUs improves decisively with vcap.
    assert asym_vcap[4] > asym_cfs[4] + 15.0, (asym_cfs[4], asym_vcap[4])
    assert asym_vcap[4] > 70.0, asym_vcap[4]
    # Throughput improves in the asymmetric case.
    assert asym_vcap[2] > asym_cfs[2] * 1.10, (asym_cfs[2], asym_vcap[2])
    # Spurious migrations drop substantially in the symmetric case.
    assert sym_vcap[3] < sym_cfs[3] * 0.6, (sym_cfs[3], sym_vcap[3])
    # Symmetric throughput is in the same ballpark.  (In this substrate
    # the spurious churn occasionally harvests a migration target's banked
    # sleeper credit, so unlike the paper's +4% it can come out slightly
    # ahead; the headline result is the migration reduction.)
    assert sym_vcap[2] > sym_cfs[2] * 0.90, (sym_cfs[2], sym_vcap[2])
