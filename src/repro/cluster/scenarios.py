"""Scenario helpers shared by the experiments.

These functions reproduce the host conditions of the paper's individual
experiments — overcommit via co-located stress, straggler cores, stacked
vCPU layouts — and the standard run loop (attach a vSched configuration,
warm the probers up, run workloads to completion, collect results).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.cluster.vmtypes import VmEnvironment
from repro.core.vsched import VSched, VSchedConfig
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import make_rng
from repro.workloads.base import Workload, WorkloadContext


def overcommit_with_stress(env: VmEnvironment, slice_ns: int = 5 * MSEC,
                           cpus: Optional[Iterable[int]] = None,
                           weight: int = 1024) -> None:
    """Co-locate a CPU-bound competitor on each vCPU's hardware thread —
    the 'other VM stressed its vCPUs using Sysbench' setup (§2.3)."""
    indices = range(env.n_vcpus) if cpus is None else cpus
    for i in indices:
        thread = env.vm.vcpu(i).pinned[0]
        env.machine.set_slice(thread, slice_ns)
        env.machine.add_host_task(f"stress{i}", pinned=(thread,),
                                  weight=weight)


MODES = ("cfs", "enhanced", "vsched")


def attach_scheduler(env: VmEnvironment, mode: str,
                     overrides: Optional[dict] = None) -> VSched:
    """Attach one of the three evaluation configurations to the VM."""
    if mode == "cfs":
        cfg = VSchedConfig.baseline()
    elif mode == "enhanced":
        cfg = VSchedConfig.enhanced()
    elif mode == "vsched":
        cfg = VSchedConfig.full()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if overrides:
        cfg = cfg.with_(**overrides)
    vs = VSched(env.kernel, cfg)
    vs.start()
    return vs


def make_context(env: VmEnvironment, vs: VSched, seed: str) -> WorkloadContext:
    return WorkloadContext(
        kernel=env.kernel,
        group=vs.workload_group,
        besteffort_group=vs.besteffort_group,
        rng=make_rng(seed))


def warmup(env: VmEnvironment, duration_ns: int = 8 * SEC) -> None:
    """Let the probers converge before measurement (the paper's warm-up
    runs).  Harmless for baseline CFS (nothing is probing)."""
    env.engine.run_until(env.engine.now + duration_ns)


def run_to_completion(env: VmEnvironment, workloads: List[Workload],
                      ctx: WorkloadContext,
                      timeout_ns: int = 120 * SEC,
                      wait_for: Optional[List[Workload]] = None) -> None:
    """Start ``workloads``; run until the ``wait_for`` subset (default all)
    completes, or raise on timeout."""
    for wl in workloads:
        wl.start(ctx)
    waited = workloads if wait_for is None else wait_for
    deadline = env.engine.now + timeout_ns
    step = 250 * MSEC
    while env.engine.now < deadline:
        if all(wl.done for wl in waited):
            return
        env.engine.run_until(min(deadline, env.engine.now + step))
    unfinished = [wl.name for wl in waited if not wl.done]
    if unfinished:
        raise TimeoutError(
            f"workloads did not finish within {timeout_ns / SEC:.0f}s "
            f"simulated: {unfinished}")
