"""Figure 3 — the stalled running task, and proactive migration.

Setup (§2.3): a 4-vCPU VM where each vCPU is active 5 ms then inactive
5 ms (bandwidth control, phases staggered across vCPUs).  A single
CPU-intensive thread runs in two modes: *default* (scheduler decides; the
thread stalls ~50% of the time) and *migration* (the thread circularly
migrates itself among idle vCPUs every 4 ms, staying ahead of the inactive
periods).  The paper's KernelShark timeline shows vCPU utilization doubling
with proactive migration.
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.sim.engine import MSEC, SEC
from repro.sim.timeline import render_task_timeline
from repro.sim.tracing import Tracer
from repro.workloads import SelfMigratingJob


def _one_run(migrate: bool, work_ns: int) -> dict:
    tracer = Tracer(enabled=True, categories={"guest.run", "guest.idle",
                                              "host.run", "host.stop"})
    env = build_plain_vm(4, wakeup_gran_ns=None, tracer=tracer)
    for i in range(4):
        env.machine.set_bandwidth(env.vm.vcpu(i), quota_ns=5 * MSEC,
                                  period_ns=10 * MSEC,
                                  phase_ns=int(i * 2.5 * MSEC))
    vs = attach_scheduler(env, "cfs")
    ctx = make_context(env, vs, seed=f"fig3-{migrate}")
    wl = SelfMigratingJob(work_ns=work_ns,
                          migrate_every_ns=4 * MSEC if migrate else None)
    run_to_completion(env, [wl], ctx, timeout_ns=120 * SEC)
    elapsed = wl.elapsed_ns()
    task = wl.tasks[0]
    t0 = wl.started_at + 20 * MSEC
    timeline = render_task_timeline(tracer, task.name, 4, t0, t0 + 40 * MSEC)
    return {
        "elapsed_ms": elapsed / MSEC,
        "utilization_pct": 100.0 * work_ns / elapsed,
        "migrations": task.stats.migrations,
        "timeline": timeline,
    }


MODES = (("default", False), ("migration", True))


def scenarios(fast: bool) -> List[WorkUnit]:
    work_ns = (500 if fast else 2000) * MSEC
    cost = 0.02 if fast else 0.08  # measured serial seconds per unit
    return [WorkUnit(exp_id="fig3", label=mode, func=_one_run,
                     config=(migrate, work_ns), cost_hint=cost,
                     seed=f"fig3-{migrate}")
            for mode, migrate in MODES]


def assemble(fast: bool, results: List[dict]) -> Table:
    table = Table(
        exp_id="fig3",
        title="Stalled running task: default vs proactive self-migration",
        columns=["mode", "elapsed_ms", "vcpu_utilization_pct", "migrations"],
        paper_expectation="default mode stalls ~50% of the time; proactive "
                          "migration roughly doubles vCPU utilization",
    )
    for (mode, _migrate), r in zip(MODES, results):
        table.add(mode, r["elapsed_ms"], r["utilization_pct"],
                  r["migrations"])
        table.notes.append(f"{mode} mode timeline:\n" + r["timeline"])
    return table


def check(table: Table) -> None:
    default_util = table.cell("default", "vcpu_utilization_pct")
    migration_util = table.cell("migration", "vcpu_utilization_pct")
    assert default_util < 62.0, default_util
    assert migration_util > 1.6 * default_util, (default_util, migration_util)
    assert table.cell("migration", "migrations") > 10
