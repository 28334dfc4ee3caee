"""Figure 15 — throughput improvement with intra-VM harvesting (ivh).

Setup (§5.5): a 16-vCPU VM overcommitted with another VM on 16 cores in
one socket — every vCPU shares ~50% of its core.  Throughput-oriented
workloads run with 1–16 threads; ivh's proactive running-task migration
harvests unused vCPUs, improving throughput up to 82% with few threads and
~17% on average even at 16 threads (phases with few runnable threads).
"""

from __future__ import annotations

from typing import List

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.experiments.common import Table
from repro.experiments.snapstore import PrefixSpec
from repro.experiments.units import WorkUnit, execute_serial
from repro.sim.engine import MSEC, SEC
from repro.workloads import Pbzip2, build_parsec

FULL_BENCHMARKS = ("streamcluster", "canneal", "blackscholes", "bodytrack",
                   "dedup", "ocean_cp", "ocean_ncp", "radiosity", "radix",
                   "fft", "pbzip2")
FAST_BENCHMARKS = ("streamcluster", "canneal", "blackscholes", "pbzip2")
FULL_THREADS = (1, 2, 4, 8, 16)
FAST_THREADS = (1, 4, 16)

IVH_ONLY = {"enable_bvs": False, "enable_rwc": False}
NO_IVH = {"enable_bvs": False, "enable_rwc": False, "enable_ivh": False}


def _build_env():
    env = build_plain_vm(16, host_slice_ns=5 * MSEC)
    for i in range(16):
        env.machine.add_host_task(f"comp{i}", pinned=(i,))
    return env


def _make(bench: str, threads: int, scale: float):
    if bench == "pbzip2":
        return Pbzip2(threads=max(3, threads), blocks=max(30, int(250 * scale)))
    return build_parsec(bench, threads=threads, scale=scale)


def _prefix(ivh: bool):
    """Prefix builder: the overcommitted VM after its 6 s warm-up, with
    ivh on or off; every (benchmark, threads) cell on that side diverges
    from it.  The workload context is created after the fork, which
    draws nothing."""
    env = _build_env()
    vs = attach_scheduler(env, "vsched", overrides=IVH_ONLY if ivh else NO_IVH)
    env.engine.run_until(env.engine.now + 6 * SEC)
    return {"engine": env.engine, "env": env, "vs": vs}


PREFIXES = {ivh: PrefixSpec(key=f"fig15-{'ivh' if ivh else 'noivh'}",
                            func=_prefix, config=(ivh,))
            for ivh in (False, True)}


def _elapsed(roots: dict, bench: str, threads: int, ivh: bool,
             scale: float) -> int:
    """Work-unit body: one benchmark on a fork of the warm world."""
    env, vs = roots["env"], roots["vs"]
    ctx = make_context(env, vs, seed=f"fig15-{bench}-{threads}-{ivh}")
    wl = _make(bench, threads, scale)
    run_to_completion(env, [wl], ctx, timeout_ns=600 * SEC)
    return wl.elapsed_ns()


def _params(fast: bool):
    benchmarks = FAST_BENCHMARKS if fast else FULL_BENCHMARKS
    threads_list = FAST_THREADS if fast else FULL_THREADS
    scale = 0.2 if fast else 0.4
    return benchmarks, threads_list, scale


def scenarios(fast: bool) -> List[WorkUnit]:
    benchmarks, threads_list, scale = _params(fast)
    cost = 0.4 if fast else 2.0
    return [WorkUnit(exp_id="fig15", label=f"{bench}-{threads}-"
                     f"{'ivh' if ivh else 'noivh'}",
                     func=_elapsed, config=(bench, threads, ivh, scale),
                     cost_hint=cost,
                     seed=f"fig15-{bench}-{threads}-{ivh}",
                     prefix=PREFIXES[ivh])
            for bench in benchmarks
            for threads in threads_list
            for ivh in (False, True)]


def assemble(fast: bool, results: List[int]) -> Table:
    benchmarks, threads_list, _scale = _params(fast)
    table = Table(
        exp_id="fig15",
        title="Throughput improvement with ivh vs ivh disabled (%)",
        columns=["benchmark"] + [f"{t}thr" for t in threads_list],
        paper_expectation="up to 82% with few threads; ~17% average even "
                          "with 16 threads",
    )
    it = iter(results)
    for bench in benchmarks:
        improvements = []
        for _threads in threads_list:
            base, with_ivh = next(it), next(it)
            improvements.append(100.0 * (base - with_ivh) / with_ivh)
        table.add(bench, *improvements)
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    few_thread_gains = [row[1] for row in table.rows]  # 1 thread column
    # Harvesting shines with few threads: large average gain, and at least
    # one benchmark above 40%.
    assert sum(few_thread_gains) / len(few_thread_gains) > 20.0, few_thread_gains
    assert max(few_thread_gains) > 40.0, few_thread_gains
    # With all vCPUs busy the gain shrinks but nothing collapses.
    full_gains = [row[-1] for row in table.rows]
    assert all(g > -15.0 for g in full_gains), full_gains
    # Gains generally shrink as thread count grows.
    for row in table.rows:
        assert row[1] >= row[-1] - 10.0, row
