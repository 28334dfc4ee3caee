"""Table 3 — Masstree p95 latency breakdown (queue / service / end-to-end).

Same setup as Figure 14.  Shows that bvs's gains come from the queue-time
(runqueue latency) component, and that considering the vCPU *state* in bvs
(prioritizing recently-active sched_idle vCPUs) matters when best-effort
tasks occupy the vCPUs: the paper's "bvs (no state check)" column sits
between no-bvs and full bvs.
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, make_context, run_to_completion
from repro.core.bvs import BiasedVCpuSelection
from repro.experiments.common import Table
from repro.experiments.fig14_bvs import (NO_IVH_RWC, PREFIXES, _measure,
                                         build_bvs_env)
from repro.experiments.units import WorkUnit, execute_serial
from repro.sim.engine import MSEC, SEC
from repro.workloads import BestEffortFiller, LatencyWorkload

#: Table rows in order: (scenario, config, best_effort, bvs), where bvs
#: None is the state-blind strawman.
ROWS = (("no best-effort", "no bvs", False, False),
        ("no best-effort", "bvs", False, True),
        ("with best-effort", "no bvs", True, False),
        ("with best-effort", "bvs (no state check)", True, None),
        ("with best-effort", "bvs", True, True))


class _NoStateCheckBvs(BiasedVCpuSelection):
    """bvs variant that ignores the probed vCPU state (Table 3 strawman):
    a sched_idle vCPU qualifies on latency alone."""

    def __call__(self, task, waker_cpu):
        now = self.kernel.now()
        if task.util(now) > self.SMALL_TASK_UTIL or task.is_idle_policy:
            return None
        store = self.module.store
        median_cap = store.median_capacity()
        median_lat = store.median_latency()
        n = len(self.kernel.cpus)
        self._rotor += 1
        start = self._rotor % n
        for off in range(n):
            c = (start + off) % n
            if not task.may_run_on(c):
                continue
            entry = store[c]
            if entry.capacity < self.CAPACITY_TOLERANCE * median_cap:
                continue
            cpu = self.kernel.cpus[c]
            if cpu.rq.is_idle() or cpu.rq.sched_idle_only():
                if entry.latency_ns <= 1.05 * median_lat:
                    self.hits += 1
                    return c
        self.fallbacks += 1
        return None


def _breakdown(wl) -> tuple:
    return (wl.p95_ns("queue") / MSEC, wl.p95_ns("service") / MSEC,
            wl.p95_ns("e2e") / MSEC)


def _fig14_breakdown(roots: dict, bvs: bool, best_effort: bool,
                     n_requests: int) -> tuple:
    """Work-unit body: Masstree on a fork of fig14's warm world."""
    return _breakdown(_measure(roots, "masstree", bvs, best_effort,
                               n_requests))


def _no_state_breakdown(best_effort: bool, n_requests: int) -> tuple:
    """Work-unit body: the strawman, cold.  Its hook is installed before
    the warm-up, so no other unit shares its world."""
    env = build_bvs_env()
    vs = attach_scheduler(env, "vsched", overrides=NO_IVH_RWC)
    # Replace the installed bvs hook with the state-blind variant.
    strawman = _NoStateCheckBvs(env.kernel, vs.module)
    env.kernel.select_rq_hook = strawman
    ctx = make_context(env, vs, seed=f"tab3-nostate-{best_effort}")
    env.engine.run_until(env.engine.now + 6 * SEC)
    wl = LatencyWorkload("masstree", workers=6, n_requests=n_requests)
    workloads = [wl]
    if best_effort:
        workloads.append(BestEffortFiller())
    run_to_completion(env, workloads, ctx, wait_for=[wl],
                      timeout_ns=240 * SEC)
    return _breakdown(wl)


def scenarios(fast: bool) -> List[WorkUnit]:
    n_requests = 200 if fast else 500
    cost = 0.75 if fast else 2.0
    units = []
    for _scenario, _config, best_effort, bvs in ROWS:
        be = "be" if best_effort else "nobe"
        if bvs is None:
            units.append(WorkUnit(
                exp_id="tab3", label=f"{be}-nostate",
                func=_no_state_breakdown, config=(best_effort, n_requests),
                cost_hint=cost, seed=f"tab3-nostate-{best_effort}"))
        else:
            units.append(WorkUnit(
                exp_id="tab3", label=f"{be}-{'bvs' if bvs else 'nobvs'}",
                func=_fig14_breakdown, config=(bvs, best_effort, n_requests),
                cost_hint=cost, seed=f"fig14-masstree-{bvs}-{best_effort}",
                prefix=PREFIXES[bvs]))
    return units


def assemble(fast: bool, results: List[tuple]) -> Table:
    table = Table(
        exp_id="tab3",
        title="Masstree p95 latency breakdown (ms)",
        columns=["scenario", "config", "queue_ms", "service_ms", "e2e_ms"],
        paper_expectation="bvs cuts queue time 44-70%; ignoring the vCPU "
                          "state forfeits part of the gain under best-effort "
                          "tasks",
    )
    for (scenario, config, _be, _bvs), breakdown in zip(ROWS, results):
        table.add(scenario, config, *breakdown)
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    rows = {(r[0], r[1]): r for r in table.rows}
    for scenario in ("no best-effort", "with best-effort"):
        base = rows[(scenario, "no bvs")]
        with_bvs = rows[(scenario, "bvs")]
        # End-to-end tail improves substantially with bvs.
        assert with_bvs[4] < base[4] * 0.85, (scenario, base[4], with_bvs[4])
    nostate = rows[("with best-effort", "bvs (no state check)")]
    full = rows[("with best-effort", "bvs")]
    base = rows[("with best-effort", "no bvs")]
    # The state check contributes: full bvs is at least as good end-to-end
    # and strictly better on the service-stretch component.
    assert full[4] <= nostate[4] * 1.05, (full[4], nostate[4])
    assert full[3] <= nostate[3] * 1.02, (full[3], nostate[3])
    assert nostate[4] < base[4] * 1.05, (nostate[4], base[4])
