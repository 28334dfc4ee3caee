"""Figure 20 — vSched cost: total cycles and cycles-per-second (CPS).

Selected workloads from the overall evaluation rerun on rcvm and hpvm,
collecting the cycles the VM consumed during workload execution and the
CPS (§5.9).  The paper finds throughput-oriented workloads consume only
~5.5% more cycles under vSched while achieving 38% higher CPS (better
vCPU utilization); latency-sensitive workloads consume more extra cycles
(+50.5%) but their CPS baseline is ~8× lower, so the absolute cost stays
small while tail latency plummets.

Each ``(vm, mode)`` pair forks one warmed-up VM
(:func:`repro.experiments.overall.vm_prefix`, 6 s), the CFS side
included; in fast mode those are fig19's hpvm worlds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster import make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.overall import vm_prefix
from repro.experiments.units import WorkUnit
from repro.metrics import CycleMeter
from repro.sim.engine import SEC
from repro.workloads import build_workload

THROUGHPUT = ("bodytrack", "swaptions", "lu_cb")
LATENCY = ("img-dnn", "specjbb", "sphinx")

#: Simulated seconds of prober warm-up before each measurement.
WARMUP_S = 6


def _vm_list(fast: bool) -> List[Tuple[str, int]]:
    vms = [("hpvm", 32)]
    if not fast:
        vms.append(("rcvm", 12))
    return vms


def _scenario(roots: dict, vm: str, name: str, mode: str,
              fast: bool) -> Dict[str, float]:
    """Work-unit body: one (vm, benchmark, scheduler) cycle measurement
    on a fork of the warm VM."""
    scale = 0.12 if fast else 0.3
    n_requests = 120 if fast else 400
    threads = dict(_vm_list(fast))[vm]
    # Seed suffixes kept from the pre-work-unit code ("cfs"/"vs") so the
    # tables render byte-identically across the migration.
    seed = f"fig20-{vm}-{name}-{'cfs' if mode == 'cfs' else 'vs'}"
    env = roots["env"]
    ctx = make_context(env, roots["vs"], seed)
    meter = CycleMeter(env)
    meter.start()
    wl = build_workload(name, threads=threads, scale=scale,
                        n_requests=n_requests)
    run_to_completion(env, [wl], ctx, timeout_ns=900 * SEC)
    sample = meter.sample()
    return {"cycles": float(sample.cycles), "cps": sample.cps}


def scenarios(fast: bool) -> List[WorkUnit]:
    cost = 0.6 if fast else 3.0
    return [WorkUnit(exp_id="fig20", label=f"{vm}-{name}-{mode}",
                     func=_scenario, config=(vm, name, mode, fast),
                     cost_hint=cost,
                     seed=f"fig20-{vm}-{name}-"
                          f"{'cfs' if mode == 'cfs' else 'vs'}",
                     prefix=vm_prefix(vm, mode, WARMUP_S))
            for vm, _threads in _vm_list(fast)
            for kind, names in (("throughput", THROUGHPUT),
                                ("latency", LATENCY))
            for name in names
            for mode in ("cfs", "vsched")]


def assemble(fast: bool, results: List[Dict[str, float]]) -> Table:
    table = Table(
        exp_id="fig20",
        title="vSched cost: VM cycles and cycles/second vs CFS",
        columns=["vm", "benchmark", "kind", "cycles_ratio_pct",
                 "cps_ratio_pct"],
        paper_expectation="throughput workloads: ~5% more cycles, much "
                          "higher CPS; latency workloads: larger relative "
                          "cycle increase from a ~8x lower CPS baseline",
    )
    it = iter(results)
    for vm_name, _threads in _vm_list(fast):
        for kind, names in (("throughput", THROUGHPUT), ("latency", LATENCY)):
            for name in names:
                base, vs = next(it), next(it)
                table.add(vm_name, name, kind,
                          100.0 * vs["cycles"] / max(1.0, base["cycles"]),
                          100.0 * vs["cps"] / max(1e-9, base["cps"]))
    return table


def check(table: Table) -> None:
    thr = [r for r in table.rows if r[2] == "throughput"]
    lat = [r for r in table.rows if r[2] == "latency"]
    # Throughput: CPS improves while the cycle increase stays moderate.
    thr_cps = sum(r[4] for r in thr) / len(thr)
    thr_cyc = sum(r[3] for r in thr) / len(thr)
    assert thr_cps > 100.0, thr
    assert thr_cyc < 140.0, thr
    # Latency workloads: vSched raises utilization (CPS) noticeably; the
    # relative cycle increase may be larger than for throughput workloads.
    lat_cps = sum(r[4] for r in lat) / len(lat)
    assert lat_cps > 100.0, lat
    # CPS gain should not come free of any cycle increase in at least one
    # latency case (probing + kept-busy vCPUs).
    assert max(r[3] for r in lat) > 100.0, lat
