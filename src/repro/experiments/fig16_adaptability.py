"""Figure 16 — vSched responds quickly to vCPU changes (§5.7).

A 16-vCPU VM serves Nginx while the host conditions move through four
phases:

1. **dedicated** — each vCPU owns a core; vSched ≈ CFS (the default
   abstraction is already accurate);
2. **overcommitted** — a competing VM takes half of every core; CFS
   throughput halves, vSched recovers much of it by harvesting (ivh);
3. **asymmetric** — half the vCPUs get 2× the capacity of the rest,
   total capacity unchanged; vSched sustains its throughput;
4. **constrained** — two vCPUs stacked on one thread and two more cut to
   straggler capacity; rwc hides them and vSched recovers while CFS
   suffers.

The table reports mean requests/second per phase for CFS and vSched.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.core.weights import weight_for_nice
from repro.sim.engine import MSEC, SEC
from repro.workloads import NginxServer

PHASES = ("dedicated", "overcommitted", "asymmetric", "constrained")
MODES = ("cfs", "vsched")


# ---------------------------------------------------------------------------
# Host-condition transitions, applied synchronously at phase boundaries.
# ``stress`` carries the competing host tasks from one phase to the next.
# ---------------------------------------------------------------------------
def _to_overcommitted(env, stress: List) -> None:
    stress.extend(env.machine.add_host_task(f"s{i}", pinned=(i,))
                  for i in range(16))


def _to_asymmetric(env, stress: List) -> None:
    # Half the vCPUs 2x the capacity of the rest, same total: fast
    # vCPUs' competitors are demoted to one third of the weight.
    for task in stress:
        env.machine.remove_host_task(task)
    for i in range(16):
        if i < 8:
            env.machine.add_host_task(f"a{i}", pinned=(i,),
                                      weight=512)   # vCPU gets ~2/3
        else:
            env.machine.add_host_task(f"a{i}", pinned=(i,),
                                      weight=2048)  # vCPU gets ~1/3


def _to_constrained(env, stress: List) -> None:
    # Stack vCPU1 onto vCPU0's thread; throttle vCPUs 2-3 to straggler
    # capacity.
    env.machine.repin(env.vm.vcpu(1), (0,))
    for i in (2, 3):
        env.machine.add_host_task(f"hog{i}", pinned=(i,),
                                  weight=weight_for_nice(-20))


_TRANSITIONS = {"overcommitted": _to_overcommitted,
                "asymmetric": _to_asymmetric,
                "constrained": _to_constrained}


def _timeline(mode: str, phase_ns: int) -> Tuple[float, ...]:
    """Work-unit body: run the four phases, return each one's mean rps.

    Skips the first 30% of each phase as transition/adaptation time.
    Completions are logged at completion time, so counting every phase's
    window after the last phase gives the same numbers as counting each
    one at its own boundary.
    """
    env = build_plain_vm(16, host_slice_ns=5 * MSEC)
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, f"fig16-{mode}")
    nginx = NginxServer(workers=8, service_ns=2 * MSEC, rate_per_sec=2600.0)
    nginx.start(ctx)
    stress: List = []
    for k, phase in enumerate(PHASES):
        if k > 0:
            _TRANSITIONS[phase](env, stress)
        env.engine.run_until((k + 1) * phase_ns)
    rps = []
    for k in range(len(PHASES)):
        t0 = k * phase_ns + (3 * phase_ns) // 10
        t1 = (k + 1) * phase_ns
        rps.append(nginx.served_between(t0, t1) / ((t1 - t0) / SEC))
    return tuple(rps)


def scenarios(fast: bool) -> List[WorkUnit]:
    phase_ns = (15 if fast else 30) * SEC
    cost = (3.5 if fast else 7.0) * len(PHASES)
    return [WorkUnit(exp_id="fig16", label=mode, func=_timeline,
                     config=(mode, phase_ns), cost_hint=cost,
                     seed=f"fig16-{mode}")
            for mode in MODES]


def assemble(fast: bool, results: List[Tuple[float, ...]]) -> Table:
    per_mode = {mode: dict(zip(PHASES, rps))
                for mode, rps in zip(MODES, results)}
    cfs, vsched = per_mode["cfs"], per_mode["vsched"]
    table = Table(
        exp_id="fig16",
        title="Nginx live throughput across host phases (requests/s)",
        columns=["phase", "CFS", "vSched", "vsched_gain_pct"],
        paper_expectation="equal when dedicated; vSched sustains throughput "
                          "under overcommit/asymmetry and recovers quickly "
                          "when constrained",
    )
    for phase in PHASES:
        gain = 100.0 * (vsched[phase] - cfs[phase]) / max(1.0, cfs[phase])
        table.add(phase, cfs[phase], vsched[phase], gain)
    return table


def check(table: Table) -> None:
    rows = {r[0]: r for r in table.rows}
    # Dedicated: within 10% of each other (nothing to fix).
    assert abs(rows["dedicated"][3]) < 10.0, rows["dedicated"]
    # Overcommitted: CFS drops well below dedicated; vSched recovers.
    assert rows["overcommitted"][1] < rows["dedicated"][1] * 0.85, rows
    assert rows["overcommitted"][3] > 10.0, rows["overcommitted"]
    # Asymmetric: vSched keeps its advantage.
    assert rows["asymmetric"][3] > 5.0, rows["asymmetric"]
    # Constrained: vSched recovers more throughput than CFS.  (Each fast
    # phase leaves rwc only a few seconds after detection, so the margin
    # is smaller than in the full 30 s-per-phase run.)
    assert rows["constrained"][3] > 3.0, rows["constrained"]
