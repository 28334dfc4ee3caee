"""Figure 14 — latency reduction with biased vCPU selection (bvs).

Setup (§5.4): an overcommitted 16-vCPU VM on 16 cores in one socket,
configured with asymmetric vCPU latency and symmetric capacity — half of
the vCPUs have 2× lower latency.  Tailbench workloads run with and without
bvs (vProbers enabled in both configurations), each with and without
best-effort (sched_idle) background tasks.  The paper reports a 42% average
reduction in p95 tail latency.
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.snapstore import PrefixSpec
from repro.experiments.units import WorkUnit
from repro.sim.engine import MSEC, SEC
from repro.workloads import BestEffortFiller, LatencyWorkload

BENCHMARKS = ("img-dnn", "masstree", "silo", "specjbb", "xapian")

#: Low-latency vCPUs: competitor slice 3 ms; high-latency: 6 ms.
LOW_SLICE_NS = 3 * MSEC
HIGH_SLICE_NS = 6 * MSEC

NO_IVH_RWC = {"enable_ivh": False, "enable_rwc": False}
PROBERS_ONLY = {"enable_ivh": False, "enable_rwc": False, "enable_bvs": False}


def build_bvs_env():
    """16 vCPUs, symmetric capacity, asymmetric latency (half 2x lower)."""
    env = build_plain_vm(16, wakeup_gran_ns=None)
    for i in range(16):
        slice_ns = LOW_SLICE_NS if i < 8 else HIGH_SLICE_NS
        env.machine.set_slice(i, slice_ns)
        env.machine.add_host_task(f"stress{i}", pinned=(i,))
    return env


def _prefix(bvs: bool):
    """Prefix builder: the warmed-up world shared by all five benchmarks.

    The benchmark, best-effort filler, and workload RNG only enter the
    picture *after* the 6 s prober warm-up, so the ten scenarios on each
    side of the bvs switch (and tab3's two) all diverge from the same
    frozen world.  (The workload context is created per scenario;
    constructing it draws nothing, so building it after the warm-up is
    stream-identical to building it before.)
    """
    env = build_bvs_env()
    vs = attach_scheduler(env, "vsched",
                          overrides=NO_IVH_RWC if bvs else PROBERS_ONLY)
    env.engine.run_until(env.engine.now + 6 * SEC)  # prober warm-up
    return {"engine": env.engine, "env": env, "vs": vs}


#: The warm worlds on each side of the bvs switch; tab3 forks them too.
PREFIXES = {bvs: PrefixSpec(key=f"fig14-{'bvs' if bvs else 'nobvs'}",
                            func=_prefix, config=(bvs,))
            for bvs in (False, True)}


def _measure(roots: dict, bench: str, bvs: bool, best_effort: bool,
             n_requests: int) -> LatencyWorkload:
    """Diverge body: run one tailbench config from the warm world (fig14's
    units and tab3's)."""
    env, vs = roots["env"], roots["vs"]
    ctx = make_context(env, vs, seed=f"fig14-{bench}-{bvs}-{best_effort}")
    wl = LatencyWorkload(bench, workers=6, n_requests=n_requests)
    workloads = [wl]
    if best_effort:
        workloads.append(BestEffortFiller())
    run_to_completion(env, workloads, ctx, wait_for=[wl],
                      timeout_ns=240 * SEC)
    return wl


def _scenario_p95(roots: dict, bench: str, bvs: bool, best_effort: bool,
                  n_requests: int) -> float:
    """Work-unit body: one config -> p95 (picklable)."""
    return _measure(roots, bench, bvs, best_effort, n_requests).p95_ns()


def scenarios(fast: bool) -> List[WorkUnit]:
    n_requests = 150 if fast else 400
    cost = 0.75 if fast else 2.0
    return [WorkUnit(exp_id="fig14",
                     label=f"{bench}-{'bvs' if bvs else 'nobvs'}-"
                           f"{'be' if best_effort else 'nobe'}",
                     func=_scenario_p95,
                     config=(bench, bvs, best_effort, n_requests),
                     cost_hint=cost,
                     seed=f"fig14-{bench}-{bvs}-{best_effort}",
                     prefix=PREFIXES[bvs])
            for best_effort in (False, True)
            for bench in BENCHMARKS
            for bvs in (False, True)]


def assemble(fast: bool, results: List[float]) -> Table:
    table = Table(
        exp_id="fig14",
        title="bvs p95 tail latency (normalized to bvs disabled; lower is "
              "better)",
        columns=["scenario", "benchmark", "no_bvs_ms", "bvs_ms", "bvs_pct"],
        paper_expectation="bvs reduces p95 tail latency by 42% on average",
    )
    it = iter(results)
    for best_effort in (False, True):
        scenario = "with best-effort" if best_effort else "no best-effort"
        for bench in BENCHMARKS:
            base, with_bvs = next(it), next(it)
            table.add(scenario, bench, base / MSEC, with_bvs / MSEC,
                      100.0 * with_bvs / base)
    return table


def check(table: Table) -> None:
    pcts = table.column("bvs_pct")
    mean_pct = sum(pcts) / len(pcts)
    # bvs helps on average, substantially.
    assert mean_pct < 85.0, (mean_pct, pcts)
    # No catastrophic regression on any benchmark.
    assert max(pcts) < 125.0, pcts
    # At least one benchmark sees a large (>30%) reduction.
    assert min(pcts) < 70.0, pcts
