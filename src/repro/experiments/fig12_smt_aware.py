"""Figure 12 — effective SMT-aware scheduling with vtop.

32 vCPUs pinned to 16 SMT-sibling pairs on 16 cores (§5.3).

(a) *Underloaded system*: Sysbench with 16 CPU-bound threads.  Without SMT
topology, CFS leaves threads doubled up on cores while other cores sit
idle (the paper observes 11–12 of 16 cores used); with vtop's domains the
idle-core-first search uses 15–16.

(b) *Mixed workloads*: CPU-intensive Matmul with memory-intensive Nginx or
I/O-intensive Fio (16 threads each).  Resolving SMT conflicts gives Matmul
up to +18%, Nginx +5%, and leaves Fio unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.guest.task import TaskState
from repro.sim.engine import MSEC, SEC
from repro.workloads import Fio, Matmul, NginxServer, SysbenchCpu

VTOP_ONLY = {"enable_vcap": False, "enable_vact": False, "enable_rwc": False,
             "enable_bvs": False, "enable_ivh": False}


def _build():
    # 32 vCPUs on 16 cores x 2 SMT threads, one socket.
    return build_plain_vm(32, sockets=1, smt=2)


def _attach(env, vtop: bool):
    if vtop:
        return attach_scheduler(env, "vsched", overrides=VTOP_ONLY)
    return attach_scheduler(env, "cfs")


def _active_cores(env, tasks) -> int:
    cores = set()
    for t in tasks:
        if t.state == TaskState.RUNNING and t.cpu is not None:
            cores.add(t.cpu.index // 2)
    return len(cores)


class _CoreCountSampler:
    """Samples the active physical-core count every 20 ms until ``stop``.

    Bound-method callback: it pickles into a snapshot image, should this
    scenario gain a warm-start prefix that freezes mid-measurement.
    """

    def __init__(self, env, wl, stop: int):
        self.env = env
        self.wl = wl
        self.stop = stop
        self.counts = []

    def tick(self) -> None:
        self.counts.append(_active_cores(self.env, self.wl.tasks))
        if self.env.engine.now < self.stop:
            self.env.engine.call_in(20 * MSEC, self.tick)


def _run_underloaded(vtop: bool, duration_ns: int) -> float:
    env = _build()
    vs = _attach(env, vtop)
    ctx = make_context(env, vs, seed=f"fig12a-{vtop}")
    env.engine.run_until(env.engine.now + 6 * SEC)  # vtop warm-up
    wl = SysbenchCpu(threads=16)
    wl.start(ctx)
    stop = env.engine.now + duration_ns

    sampler = _CoreCountSampler(env, wl, stop)
    env.engine.call_in(20 * MSEC, sampler.tick)
    env.engine.run_until(stop)
    return sum(sampler.counts) / len(sampler.counts)


def _run_mixed(vtop: bool, companion: str, fast: bool,
               seed: str) -> Dict[str, float]:
    env = _build()
    vs = _attach(env, vtop)
    ctx = make_context(env, vs, seed)
    scale = 0.15 if fast else 0.6
    mat = Matmul(threads=16, blocks=max(16, int(160 * scale)))
    if companion == "nginx":
        comp = NginxServer(workers=16, rate_per_sec=2500.0)
    else:
        comp = Fio(threads=16, iterations=10 ** 9)  # runs until we stop
    env.engine.run_until(env.engine.now + 6 * SEC)
    comp.start(ctx)
    t0 = env.engine.now
    run_to_completion(env, [mat], ctx, timeout_ns=200 * SEC)
    elapsed = mat.elapsed_ns()
    if companion == "nginx":
        comp_tp = comp.served_between(t0, env.engine.now) / (elapsed / SEC)
    else:
        comp_tp = comp.ios_done / (elapsed / SEC)
    return {"matmul": 1e12 / elapsed, "companion": comp_tp}


CONFIGS = (("cfs", False), ("vtop", True))
COMPANIONS = ("nginx", "fio")

#: Unit label -> the unit's measured serial seconds, (fast, full).
COST_S = {"underloaded-cfs": (1.7, 7.2), "underloaded-vtop": (2.3, 10.9),
          "nginx-cfs": (0.05, 0.17), "nginx-vtop": (0.12, 0.31),
          "fio-cfs": (0.26, 0.54), "fio-vtop": (0.35, 0.88)}


def scenarios(fast: bool) -> List[WorkUnit]:
    duration = (6 if fast else 20) * SEC
    mode = 0 if fast else 1
    units = [WorkUnit(exp_id="fig12", label=f"underloaded-{config}",
                      func=_run_underloaded, config=(vtop, duration),
                      cost_hint=COST_S[f"underloaded-{config}"][mode],
                      seed=f"fig12a-{vtop}")
             for config, vtop in CONFIGS]
    units += [WorkUnit(exp_id="fig12", label=f"{companion}-{config}",
                       func=_run_mixed,
                       config=(vtop, companion, fast,
                               f"fig12b-{companion}-{config}"),
                       cost_hint=COST_S[f"{companion}-{config}"][mode],
                       seed=f"fig12b-{companion}-{config}")
              for companion in COMPANIONS for config, vtop in CONFIGS]
    return units


def assemble(fast: bool, results: List) -> Table:
    table = Table(
        exp_id="fig12",
        title="SMT-aware scheduling with vtop",
        columns=["experiment", "metric", "CFS", "CFS+vtop"],
        paper_expectation="underloaded: 11-12 -> 15-16 active cores; mixed: "
                          "Matmul +18%, Nginx +5%, Fio unchanged",
    )
    cores_cfs, cores_vtop, *mixed = results
    table.add("underloaded", "avg_active_cores", cores_cfs, cores_vtop)
    it = iter(mixed)
    for companion in COMPANIONS:
        base, with_vtop = next(it), next(it)
        table.add(f"mixed+{companion}", "matmul_pct",
                  100.0, 100.0 * with_vtop["matmul"] / base["matmul"])
        table.add(f"mixed+{companion}", f"{companion}_pct",
                  100.0, 100.0 * with_vtop["companion"] / base["companion"])
    return table


def check(table: Table) -> None:
    cores = [r for r in table.rows if r[1] == "avg_active_cores"][0]
    assert cores[3] > cores[2] + 2.0, cores       # vtop uses more cores
    assert cores[3] > 14.0, cores
    matmul_rows = [r for r in table.rows if r[1] == "matmul_pct"]
    for r in matmul_rows:
        assert r[3] > 105.0, r                     # Matmul benefits
    nginx = [r for r in table.rows if r[1] == "nginx_pct"][0]
    assert nginx[3] > 92.0, nginx                  # no big regression
    fio = [r for r in table.rows if r[1] == "fio_pct"][0]
    assert fio[3] > 90.0, fio                      # Fio roughly unchanged
