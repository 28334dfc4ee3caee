"""Table 4 — canneal execution time: activity-aware vs activity-unaware ivh.

Same environment as Figure 15.  The activity-unaware strawman migrates the
running task without pre-waking the target, so the task often lands on an
inactive vCPU and pays the migration delay; the paper shows the
activity-aware protocol consistently faster across thread counts.
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.fig15_ivh import _build_env, _make
from repro.experiments.snapstore import PrefixSpec
from repro.experiments.units import WorkUnit, execute_serial
from repro.sim.engine import SEC

FULL_THREADS = (1, 2, 4, 8, 16)
FAST_THREADS = (1, 4, 16)


def _prefix(activity_aware: bool):
    """Prefix builder: fig15's VM after the 6 s warm-up, under one
    migration protocol; every thread count diverges from it."""
    env = _build_env()
    vs = attach_scheduler(env, "vsched", overrides={
        "enable_bvs": False, "enable_rwc": False,
        "ivh_activity_aware": activity_aware})
    env.engine.run_until(env.engine.now + 6 * SEC)
    return {"engine": env.engine, "env": env, "vs": vs}


PREFIXES = {aware: PrefixSpec(
                key=f"tab4-{'aware' if aware else 'unaware'}",
                func=_prefix, config=(aware,))
            for aware in (False, True)}


def _elapsed(roots: dict, threads: int, scale: float) -> int:
    """Work-unit body: canneal on a fork of one protocol's warm world."""
    env, vs = roots["env"], roots["vs"]
    # One seed per thread count, shared by both configs: the pair differs
    # only in the migration protocol, not in the workload's random stream
    # — at fast scale a per-config seed drowns the protocol effect in
    # arrival noise (the old fast-mode shape flake).
    ctx = make_context(env, vs, seed=f"tab4-{threads}")
    wl = _make("canneal", threads, scale)
    run_to_completion(env, [wl], ctx, timeout_ns=600 * SEC)
    return wl.elapsed_ns()


def scenarios(fast: bool) -> List[WorkUnit]:
    threads_list = FAST_THREADS if fast else FULL_THREADS
    scale = 0.2 if fast else 0.4
    cost = 0.5 if fast else 2.0
    return [WorkUnit(exp_id="tab4",
                     label=f"{threads}thr-{'aware' if aware else 'unaware'}",
                     func=_elapsed, config=(threads, scale), cost_hint=cost,
                     seed=f"tab4-{threads}", prefix=PREFIXES[aware])
            for aware in (False, True)
            for threads in threads_list]


def assemble(fast: bool, results: List[int]) -> Table:
    threads_list = FAST_THREADS if fast else FULL_THREADS
    table = Table(
        exp_id="tab4",
        title="Canneal execution time (s): ivh activity-aware vs unaware",
        columns=["config"] + [f"{t}thr" for t in threads_list],
        paper_expectation="activity-aware migration is consistently faster "
                          "(e.g. 408 vs 348 s at 1 thread)",
    )
    n = len(threads_list)
    table.add("ivh (activity-unaware)", *[r / 1e9 for r in results[:n]])
    table.add("ivh (activity-aware)", *[r / 1e9 for r in results[n:]])
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    unaware = table.rows[0][1:]
    aware = table.rows[1][1:]
    # Activity awareness wins (or ties) at every thread count and wins
    # clearly somewhere.
    for u, a in zip(unaware, aware):
        assert a <= u * 1.06, (u, a)
    assert any(a < u * 0.93 for u, a in zip(unaware, aware)), (unaware, aware)
