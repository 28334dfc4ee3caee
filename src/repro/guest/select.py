"""Default CFS wake placement (select_task_rq_fair analogue).

Three ingredients of the stock heuristic matter to the paper's
experiments:

* **wake affinity** — a task woken by another task may be pulled toward
  the waker's LLC domain when that domain is no more loaded than the
  previous CPU's; this is what consolidates communicating tasks once vtop
  installs real LLC domains (Figure 13);
* **idle search** — scan the chosen LLC domain for an idle CPU, where
  "idle" includes CPUs running only SCHED_IDLE work; with an SMT level
  present, fully-idle cores are preferred over idle threads whose sibling
  is busy (Figure 12);
* **fork balancing** — a brand-new task is placed in the least-loaded LLC
  group (find_idlest path), spreading instances across sockets.

The scan starts from a rotating offset, modelling concurrent wakers'
distributed search starts; without an SMT level this reproduces the
partial core coverage CFS shows in the underloaded-system experiment.

vSched's bvs replaces this policy for small tasks via the kernel's
``select_rq_hook``; everything else still lands here.
"""

from __future__ import annotations

from typing import Optional

from repro.guest.task import Task


class WakePlacer:
    """Stateful default placement policy for one guest kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._rotor = 0

    # ------------------------------------------------------------------
    def select(self, task: Task, waker_cpu: Optional[int],
               is_fork: bool = False) -> int:
        kernel = self.kernel
        allowed = task.effective_allowed()
        prev = task.prev_cpu_index
        if allowed is not None and not allowed:
            return prev  # pathological empty mask: stay put
        if allowed is not None and prev not in allowed:
            prev = min(allowed)

        if is_fork:
            domain = self._idlest_domain(allowed)
        else:
            domain = self._affine_domain(prev, waker_cpu)
        candidates = [c for c in kernel.domains.members(domain)
                      if allowed is None or c in allowed]
        if not candidates:
            candidates = [c for c in range(len(kernel.cpus))
                          if allowed is None or c in allowed]
            if not candidates:
                return prev

        # Fast path: previous CPU is idle and in the chosen domain.
        if not is_fork and prev in domain:
            if self._idle_for_placement(kernel.cpus[prev]):
                return prev

        self._rotor = (self._rotor * 1103515245 + 12345) & 0x7FFFFFFF
        start = self._rotor % len(candidates)
        rotated = candidates[start:] + candidates[:start]

        if kernel.domains.has_smt_level():
            for c in rotated:
                if self._idle_for_placement(kernel.cpus[c]) and self._core_idle(c):
                    return c
        for c in rotated:
            if self._idle_for_placement(kernel.cpus[c]):
                return c

        # Nothing idle: stay near the previous CPU unless it is overloaded
        # compared to the least-loaded candidate.
        best = min(rotated, key=lambda c: (kernel.cpus[c].rq.nr_total(), c))
        if prev in domain:
            if kernel.cpus[prev].rq.nr_total() > kernel.cpus[best].rq.nr_total() + 1:
                return best
            return prev
        return best

    # ------------------------------------------------------------------
    def _affine_domain(self, prev: int, waker_cpu: Optional[int]):
        """Pick between the previous CPU's and the waker's LLC domain."""
        domains = self.kernel.domains
        prev_domain = domains.llc_domain(prev)
        if waker_cpu is None:
            return prev_domain
        waker_domain = domains.llc_domain(waker_cpu)
        if waker_domain == prev_domain:
            return prev_domain
        if self._domain_load(waker_domain) <= self._domain_load(prev_domain):
            return waker_domain
        return prev_domain

    def _idlest_domain(self, allowed):
        """Fork placement: the least-loaded LLC group."""
        domains = self.kernel.domains
        groups = []
        seen = set()
        for c in range(len(self.kernel.cpus)):
            g = domains.llc_domain(c)
            key = domains.members(g)
            if key not in seen:
                seen.add(key)
                if allowed is None or any(x in allowed for x in g):
                    groups.append(g)
        if not groups:
            return domains.all_cpus()
        return min(groups, key=lambda g: (self._count_load(g), min(g)))

    def _count_load(self, domain) -> int:
        """Raw queued-task count; fork placement spreads *instances*, so
        a busy-but-fast socket must not attract extra forks just because
        its queues drain quickly."""
        return sum(self.kernel.cpus[c].rq.nr_total() for c in domain)

    def _domain_load(self, domain) -> float:
        """Capacity-normalized domain load for the wake-affinity
        comparison (the sum_util/group_capacity comparison of
        update_sg_lb_stats).  Raw task counts misrank domains the moment
        LLC domains and per-CPU capacities are both real: wake affinity
        then consolidates communicating tasks onto a low-capacity socket
        that merely *queues* fewer tasks.  With uniform capacities this
        reduces exactly to the task count."""
        kernel = self.kernel
        return sum(kernel.cpus[c].rq.nr_total() * 1024.0
                   / max(1.0, kernel.capacity_of(c)) for c in domain)

    def _idle_for_placement(self, cpu) -> bool:
        rq = cpu.rq
        return rq.is_idle() or rq.sched_idle_only()

    def _core_idle(self, cpu_index: int) -> bool:
        for sib in self.kernel.domains.smt_siblings(cpu_index):
            if not self._idle_for_placement(self.kernel.cpus[sib]):
                return False
        return True
