"""Figure 4 — deficient work conservation.

Three sub-experiments (§2.3), each comparing a *work-conserving* placement
(all vCPUs usable) against a *non-work-conserving* one (problematic vCPUs
manually excluded via cpuset):

* **straggler** — a 16-vCPU VM with one vCPU at ~10% capacity (a
  high-priority host task stresses its core); excluding the straggler
  yields up to 43% higher throughput for synchronization-intensive
  benchmarks;
* **stacking** — vCPUs stacked in pairs on 8 cores; excluding one vCPU per
  stack avoids expensive vCPU switches (up to 30%);
* **priority inversion** — a low-priority best-effort workload runs on one
  vCPU of each stack; under work conservation the benchmark's threads get
  stacked above/below it and suffer badly (paper: up to 6.7x).

Throughput here is the inverse of job completion time, normalized to the
non-work-conserving run (higher is better, ≤100 expected for
work-conserving).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.guest.task import Policy
from repro.core.weights import weight_for_nice
from repro.sim.engine import MSEC, SEC, USEC
from repro.workloads import build_parsec

BENCHMARKS = ("canneal", "dedup", "streamcluster")
CASES = ("straggler", "stacking", "priority-inversion")
#: Case name -> seed letter (kept from the pre-work-unit seeds so tables
#: render byte-identically across the migration).
_CASE_SEED = {"straggler": "s", "stacking": "k", "priority-inversion": "p"}


def _straggler_env():
    env = build_plain_vm(16)
    env.machine.add_host_task("hog", weight=weight_for_nice(-10), pinned=(0,))
    return env


def _build_stacked(host_slice_ns: int = 4 * MSEC):
    from repro.cluster.vmtypes import VmEnvironment
    from repro.guest.kernel import GuestKernel
    from repro.hw.topology import HostTopology
    from repro.hypervisor.machine import Machine
    from repro.sim.engine import Engine

    engine = Engine()
    topo = HostTopology(1, 8, smt=1)
    machine = Machine(engine, topo, host_slice_ns=host_slice_ns)
    pins = [(i // 2,) for i in range(16)]  # vCPUs 2k,2k+1 share thread k
    vm = machine.new_vm("vm", 16, pinned_map=pins)
    kernel = GuestKernel(vm)
    return VmEnvironment(engine, machine, vm, kernel,
                         stacked_pairs=[(2 * k, 2 * k + 1) for k in range(8)])


def _run_case(env, benchmark: str, threads: int, scale: float,
              excluded: Optional[set], best_effort_on: Optional[list],
              seed: str) -> float:
    """Returns throughput = 1/elapsed (arbitrary units)."""
    vs = attach_scheduler(env, "cfs")
    if excluded:
        allowed = frozenset(range(env.n_vcpus)) - frozenset(excluded)
        vs.workload_group.set_allowed(allowed)
    ctx = make_context(env, vs, seed)
    if best_effort_on:
        def spinner(api):
            while True:
                yield api.run(500 * USEC)
        for c in best_effort_on:
            env.kernel.spawn(spinner, f"be-{c}", policy=Policy.IDLE,
                             group=vs.besteffort_group, cpu=c, allowed=(c,))
    wl = build_parsec(benchmark, threads=threads, scale=scale)
    run_to_completion(env, [wl], ctx, timeout_ns=300 * SEC)
    return 1e12 / wl.elapsed_ns()


def _scenario(case: str, bench: str, variant: str, fast: bool) -> float:
    """Work-unit body: one (case, benchmark, wc/nwc) placement run.

    Priority inversion: best-effort work runs on one vCPU of each stack.
    Work-conserving placement spreads the benchmark onto the *other* stack
    members, so the host arbitrates between the stacked vCPUs and the
    low-priority work steals half the core.  The non-work-conserving run
    excludes the vCPUs that do NOT run the best-effort work: the benchmark
    lands on the same vCPUs, where guest priorities are enforced.
    """
    scale = 0.12 if fast else 0.5
    seed = f"fig4-{_CASE_SEED[case]}-{bench}-{variant}"
    nwc = variant == "nwc"
    if case == "straggler":
        return _run_case(_straggler_env(), bench, threads=16, scale=scale,
                         excluded={0} if nwc else None,
                         best_effort_on=None, seed=seed)
    if case == "stacking":
        return _run_case(_build_stacked(), bench, threads=16, scale=scale,
                         excluded={2 * k + 1 for k in range(8)} if nwc
                         else None,
                         best_effort_on=None, seed=seed)
    if case == "priority-inversion":
        be_cpus = [2 * k + 1 for k in range(8)]
        return _run_case(_build_stacked(), bench, threads=8, scale=scale,
                         excluded={2 * k for k in range(8)} if nwc else None,
                         best_effort_on=be_cpus, seed=seed)
    raise KeyError(case)


def scenarios(fast: bool) -> List[WorkUnit]:
    cost = 0.4 if fast else 2.0
    return [WorkUnit(exp_id="fig4", label=f"{case}-{bench}-{variant}",
                     func=_scenario, config=(case, bench, variant, fast),
                     cost_hint=cost,
                     seed=f"fig4-{_CASE_SEED[case]}-{bench}-{variant}")
            for case in CASES
            for bench in BENCHMARKS
            for variant in ("wc", "nwc")]


def assemble(fast: bool, results: List[float]) -> Table:
    table = Table(
        exp_id="fig4",
        title="Work-conserving vs non-work-conserving placement "
              "(throughput normalized to non-work-conserving; higher is better)",
        columns=["case", "benchmark", "work_conserving_pct",
                 "non_work_conserving_pct"],
        paper_expectation="leaving straggler/stacked vCPUs idle wins by up "
                          "to 43% / 30% / 6.7x (priority inversion)",
    )
    it = iter(results)
    for case in CASES:
        for bench in BENCHMARKS:
            wc, nwc = next(it), next(it)
            table.add(case, bench, 100.0 * wc / nwc, 100.0)
    return table


def check(table: Table) -> None:
    for row in table.rows:
        case, bench, wc, nwc = row
        assert nwc == 100.0
        assert wc < 101.0, row  # work conservation never wins here
    # At least one straggler case loses noticeably, and priority inversion
    # hurts the most on average.
    stragglers = [r[2] for r in table.rows if r[0] == "straggler"]
    stacking = [r[2] for r in table.rows if r[0] == "stacking"]
    prio = [r[2] for r in table.rows if r[0] == "priority-inversion"]
    assert min(stragglers) < 92.0, stragglers
    assert min(stacking) < 97.0, stacking
    assert min(prio) < 75.0, prio  # inversion hurts badly
