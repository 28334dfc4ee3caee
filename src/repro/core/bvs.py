"""Biased vCPU selection (bvs, §3.2).

bvs matches small latency-sensitive tasks with vCPUs where they suffer the
least extended runqueue latency, implementing the Figure 8 heuristic:

1. only small tasks (low PELT utilization) are redirected; everything else
   falls through to CFS placement;
2. candidate vCPUs must have at least median capacity (runqueue-saturation
   guard);
3. an **empty** vCPU qualifies if its probed vCPU latency is at most the
   median and it has been idle for a while (it tends to wake up quickly);
4. a vCPU running only sched_idle work qualifies if it is host-ACTIVE and
   became active recently (the task can start immediately and finish within
   the remaining active period — the paper's ideal "blue path"), or if it
   has been host-INACTIVE for most of its average inactive period with low
   latency (it will be active again soon);
5. first fit wins (aggressive search, low selection latency); if nothing
   qualifies the CFS heuristic decides.
"""

from __future__ import annotations

from typing import Optional

from repro.core.module import VSchedModule
from repro.guest.kernel import GuestKernel, VCPU_ACTIVE
from repro.guest.task import Task
from repro.sim.engine import MSEC


class BiasedVCpuSelection:
    """The select_rq hook implementing bvs."""

    #: PELT utilization ceiling for bvs to engage.  Per the paper, PELT
    #: *and* the user-space latency hint (latency-nice / uclamp) identify
    #: the targets together: a task must carry the hint AND look small to
    #: PELT.  Without the hint requirement, lock waiters of CPU-bound jobs
    #: (whose util decays while blocked) get herded — and their critical
    #: sections with them.
    SMALL_TASK_UTIL = 768.0
    #: Minimum guest-idle duration for an empty vCPU to count as
    #: "prolonged idleness".
    LONG_IDLE_NS = 2 * MSEC
    #: Fraction of the average inactive period after which an inactive
    #: vCPU is considered about to resume.
    SOON_ACTIVE_FRACTION = 0.7
    #: Fraction of the average active period within which a vCPU counts as
    #: recently activated.
    RECENT_ACTIVE_FRACTION = 0.5
    #: Tolerance on the high-capacity gate: estimates within this fraction
    #: of the median count as high-capacity (probing jitter must not reject
    #: symmetric vCPUs).
    CAPACITY_TOLERANCE = 0.9

    def __init__(self, kernel: GuestKernel, module: VSchedModule):
        self.kernel = kernel
        self.module = module
        self._rotor = 0
        self.hits = 0
        self.fallbacks = 0

    def __call__(self, task: Task, waker_cpu: Optional[int]) -> Optional[int]:
        now = self.kernel.now()
        if task.is_idle_policy or not task.latency_sensitive:
            return None
        if task.util(now) > self.SMALL_TASK_UTIL:
            return None
        store = self.module.store
        median_cap = store.median_capacity()
        median_lat = store.median_latency()
        n = len(self.kernel.cpus)
        self._rotor += 1
        start = self._rotor % n
        for off in range(n):
            c = (start + off) % n
            if not task.may_run_on(c):
                continue
            entry = store[c]
            if entry.capacity < self.CAPACITY_TOLERANCE * median_cap:
                continue
            cpu = self.kernel.cpus[c]
            if cpu.rq.is_idle():
                if (entry.latency_ns <= 1.05 * median_lat
                        and now - cpu.idle_since >= self.LONG_IDLE_NS):
                    self.hits += 1
                    return c
                continue
            if cpu.rq.sched_idle_only():
                if entry.latency_cv > 0.6:
                    continue  # activity too erratic to predict
                state, since = self.kernel.vcpu_state(c)
                if state == VCPU_ACTIVE:
                    recent = self.RECENT_ACTIVE_FRACTION * max(
                        entry.avg_active_ns, 1.0)
                    if now - since <= recent or entry.avg_active_ns == 0:
                        self.hits += 1
                        return c
                else:
                    if (entry.latency_ns <= median_lat
                            and entry.latency_ns > 0
                            and now - since
                            >= self.SOON_ACTIVE_FRACTION * entry.latency_ns):
                        self.hits += 1
                        return c
        self.fallbacks += 1
        return None
