"""Figure 2 — the impact of vCPU latency on latency-sensitive workloads.

Setup (§2.3): a VM runs Tailbench workloads while a co-located VM stresses
the same cores; host tunables pin the vCPU latency to 2/4/8/16 ms without
changing capacity.  Scenarios without and with best-effort (sched_idle)
tasks harvesting free cycles.  The paper reports p95 tail latency growing
up to 20× from 2 ms to 16 ms; results are normalized to the 16 ms case
(lower = better).
"""

from __future__ import annotations

from repro.cluster import (
    attach_scheduler,
    build_plain_vm,
    make_context,
    overcommit_with_stress,
    run_to_completion,
)
from typing import List

from repro.experiments.common import Table
from repro.experiments.units import WorkUnit, execute_serial
from repro.sim.engine import MSEC, SEC
from repro.workloads import BestEffortFiller, LatencyWorkload

BENCHMARKS = ("img-dnn", "silo", "specjbb")
LATENCIES_MS = (2, 4, 8, 16)


def _one_run(bench: str, latency_ms: int, best_effort: bool,
             n_vcpus: int, n_requests: int) -> float:
    env = build_plain_vm(n_vcpus, host_slice_ns=latency_ms * MSEC,
                         wakeup_gran_ns=None)
    overcommit_with_stress(env, slice_ns=latency_ms * MSEC)
    vs = attach_scheduler(env, "cfs")
    ctx = make_context(env, vs, seed=f"fig2-{bench}-{latency_ms}-{best_effort}")
    wl = LatencyWorkload(bench, workers=max(4, n_vcpus // 4),
                         n_requests=n_requests)
    workloads = [wl]
    if best_effort:
        workloads.append(BestEffortFiller())
    run_to_completion(env, workloads, ctx, wait_for=[wl],
                      timeout_ns=180 * SEC)
    return wl.p95_ns()


def scenarios(fast: bool) -> List[WorkUnit]:
    n_vcpus = 8 if fast else 32
    n_requests = 120 if fast else 400
    cost = 0.1 if fast else 1.0
    return [WorkUnit(exp_id="fig2",
                     label=f"{bench}-{ms}ms-{'be' if best_effort else 'nobe'}",
                     func=_one_run,
                     config=(bench, ms, best_effort, n_vcpus, n_requests),
                     cost_hint=cost,
                     seed=f"fig2-{bench}-{ms}-{best_effort}")
            for best_effort in (False, True)
            for bench in BENCHMARKS
            for ms in LATENCIES_MS]


def assemble(fast: bool, results: List[float]) -> Table:
    table = Table(
        exp_id="fig2",
        title="Impact of vCPU latency on p95 tail latency "
              "(normalized to 16 ms; lower is better)",
        columns=["scenario", "benchmark", "2ms", "4ms", "8ms", "16ms"],
        paper_expectation="p95 grows up to 20x from 2 ms to 16 ms vCPU "
                          "latency in both scenarios",
    )
    it = iter(results)
    for best_effort in (False, True):
        scenario = "with best-effort" if best_effort else "no best-effort"
        for bench in BENCHMARKS:
            raw = {ms: next(it) for ms in LATENCIES_MS}
            base = raw[16]
            table.add(scenario, bench,
                      *(100.0 * raw[ms] / base for ms in LATENCIES_MS))
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    """Shape: tail latency increases monotonically-ish with vCPU latency,
    and the 2 ms case is far below the 16 ms case."""
    for row in table.rows:
        scenario, bench, p2, p4, p8, p16 = row
        assert p16 == 100.0 or abs(p16 - 100.0) < 1e-6
        assert p2 < 65.0, (bench, scenario, p2)
        assert p2 <= p4 * 1.35 and p4 <= p8 * 1.35 and p8 <= p16 * 1.35, row
        assert p8 < 100.0 + 25.0, row
