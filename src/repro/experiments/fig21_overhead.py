"""Figure 21 — vSched overhead when it cannot help.

A 16-vCPU VM hosted dedicatedly on 16 cores in one socket: vCPUs are
always active with symmetric capacity and UMA topology, exactly matching
the default abstraction, so vSched has nothing to fix and any performance
difference is pure overhead (§5.9).  The paper measures 0.7% average
degradation; probing costs slightly slow high-utilization throughput
workloads while latency-sensitive workloads can even *benefit* because the
probers keep vCPUs active and cores at high frequency (DVFS) — we enable
the DVFS model here for exactly that effect.
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.snapstore import PrefixSpec
from repro.experiments.units import WorkUnit
from repro.hw.speed import SpeedConfig
from repro.sim.engine import SEC
from repro.workloads import build_workload

FULL_THROUGHPUT = ("blackscholes", "bodytrack", "canneal", "dedup",
                   "facesim", "streamcluster", "fft", "ocean_cp", "radix")
FULL_LATENCY = ("img-dnn", "moses", "masstree", "silo", "shore",
                "specjbb", "sphinx", "xapian")
FAST_THROUGHPUT = ("blackscholes", "canneal", "streamcluster")
FAST_LATENCY = ("masstree", "silo", "specjbb")

#: Scheduler mode -> the suffix of its workload seed label.
MODES = (("cfs", "cfs"), ("vsched", "vs"))


def _prefix(mode: str):
    """Prefix builder: the dedicated VM after its 6 s warm-up.

    Every benchmark under one scheduler mode diverges from this world;
    the workload context is created per benchmark after the fork, which
    draws nothing.
    """
    env = build_plain_vm(16, speed=SpeedConfig(dvfs_enabled=True))
    vs = attach_scheduler(env, mode)
    env.engine.run_until(env.engine.now + 6 * SEC)
    return {"engine": env.engine, "env": env, "vs": vs}


PREFIXES = {mode: PrefixSpec(key=f"fig21-{mode}", func=_prefix,
                             config=(mode,))
            for mode, _tag in MODES}


def _measure(roots: dict, name: str, kind: str, scale: float,
             n_requests: int, seed: str) -> float:
    """Work-unit body: one benchmark on a fork of the warm world."""
    env, vs = roots["env"], roots["vs"]
    ctx = make_context(env, vs, seed)
    wl = build_workload(name, threads=16, scale=scale, n_requests=n_requests)
    run_to_completion(env, [wl], ctx, timeout_ns=600 * SEC)
    if kind == "latency":
        return wl.p95_ns()
    return float(wl.elapsed_ns())


def _bench_list(fast: bool):
    throughput = FAST_THROUGHPUT if fast else FULL_THROUGHPUT
    latency = FAST_LATENCY if fast else FULL_LATENCY
    return ([("throughput", n) for n in throughput]
            + [("latency", n) for n in latency])


def scenarios(fast: bool) -> List[WorkUnit]:
    scale = 0.12 if fast else 0.3
    n_requests = 150 if fast else 400
    cost = 0.4 if fast else 2.0
    return [WorkUnit(exp_id="fig21", label=f"{name}-{tag}", func=_measure,
                     config=(name, kind, scale, n_requests,
                             f"fig21-{name}-{tag}"),
                     cost_hint=cost, seed=f"fig21-{name}-{tag}",
                     prefix=PREFIXES[mode])
            for kind, name in _bench_list(fast)
            for mode, tag in MODES]


def assemble(fast: bool, results: List[float]) -> Table:
    table = Table(
        exp_id="fig21",
        title="vSched overhead on a dedicated VM "
              "(performance degradation vs CFS, %; negative = improvement)",
        columns=["benchmark", "kind", "degradation_pct"],
        paper_expectation="~0.7% average degradation; latency workloads can "
                          "even improve (probing keeps cores warm)",
    )
    it = iter(results)
    for kind, name in _bench_list(fast):
        base, with_vs = next(it), next(it)
        table.add(name, kind, 100.0 * (with_vs - base) / base)
    return table


def check(table: Table) -> None:
    degradations = table.column("degradation_pct")
    mean = sum(degradations) / len(degradations)
    # Small average overhead.
    assert mean < 6.0, (mean, degradations)
    # No individual catastrophic regression.
    assert max(degradations) < 15.0, degradations
