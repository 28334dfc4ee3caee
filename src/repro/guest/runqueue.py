"""Guest CFS runqueue: one per vCPU.

Holds runnable tasks in two bands — normal CFS tasks and SCHED_IDLE
best-effort tasks.  Normal tasks always take precedence; an enqueued normal
task immediately preempts a running idle-policy task (as in Linux).  Within
a band the minimum-vruntime task runs next.

The balancer's inputs are kept where they change, as in Linux: every band
mutation (``enqueue``, ``dequeue``, ``pick_next``) updates the normal band's
summed weight (``cfs_rq->load.weight``) and the kernel's counts of queued
tasks (``GuestKernel.nr_queued``) and of queued normal tasks
(``GuestKernel.nr_queued_normal``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.guest.task import GUEST_NICE0_WEIGHT, TASK_RUNNABLE, Task


def _pick_key(t: Task):
    return (t.vruntime, t.tid)


class CfsRunqueue:
    """Runnable-task queue for one guest CPU."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.normal: List[Task] = []
        self.idle_band: List[Task] = []
        self.min_vruntime = 0
        #: Summed weight of the queued normal band.
        self.normal_weight = 0

    # ------------------------------------------------------------------
    # Introspection used by placement and balancing
    # ------------------------------------------------------------------
    def nr_running(self) -> int:
        """Queued tasks, not counting the one currently on the CPU."""
        return len(self.normal) + len(self.idle_band)

    def nr_total(self) -> int:
        return self.nr_running() + (1 if self.cpu.current is not None else 0)

    def load(self) -> int:
        """CFS load: summed weights of normal tasks here (incl. current)."""
        cur = self.cpu.current
        if cur is not None and not cur.is_idle_policy:
            return self.normal_weight + cur.weight
        return self.normal_weight

    def is_idle(self) -> bool:
        """No task queued or running at all."""
        return self.cpu.current is None and not self.normal and not self.idle_band

    def sched_idle_only(self) -> bool:
        """Only best-effort work present (Linux treats this as 'idle' for
        wake placement — a normal task placed here preempts instantly)."""
        cur = self.cpu.current
        if cur is not None and not cur.is_idle_policy:
            return False
        if self.normal:
            return False
        return (cur is not None) or bool(self.idle_band)

    def has_queued_normal(self) -> bool:
        return bool(self.normal)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        cpu = self.cpu
        kernel = cpu.kernel
        # Sleeper credit: cap how far behind min_vruntime a waker can be so
        # long sleepers don't monopolize the CPU when they return.
        floor = self.min_vruntime - kernel.config.sched_latency_ns
        if task.vruntime < floor:
            task.vruntime = floor
        if task.is_idle_policy:
            self.idle_band.append(task)
        else:
            self.normal.append(task)
            self.normal_weight += task.weight
            kernel.nr_queued_normal += 1
        kernel.nr_queued += 1
        task.state = TASK_RUNNABLE
        task.cpu = cpu

    def dequeue(self, task: Task) -> None:
        kernel = self.cpu.kernel
        if task.is_idle_policy:
            self.idle_band.remove(task)
        else:
            self.normal.remove(task)
            self.normal_weight -= task.weight
            kernel.nr_queued_normal -= 1
        kernel.nr_queued -= 1

    def pick_next(self) -> Optional[Task]:
        band = self.normal or self.idle_band
        if not band:
            return None
        if len(band) == 1:
            best = band.pop()
        else:
            best = min(band, key=_pick_key)
            band.remove(best)
        kernel = self.cpu.kernel
        if not best.is_idle_policy:
            self.normal_weight -= best.weight
            kernel.nr_queued_normal -= 1
        kernel.nr_queued -= 1
        if best.vruntime > self.min_vruntime:
            self.min_vruntime = best.vruntime
        return best

    def steal_candidates(self, for_cpu_index: int) -> List[Task]:
        """Queued tasks a balancer could migrate to ``for_cpu_index``."""
        return [t for t in self.normal if t.may_run_on(for_cpu_index)]

    def charge_vruntime(self, task: Task, wall_delta: int) -> None:
        """Charge ``wall_delta`` to ``task`` and advance ``min_vruntime``.

        CFS rule: min_vruntime tracks min(curr, leftmost), monotonic.
        Without it a long-running task leaves min_vruntime stale and a
        waking task gets an unbounded vruntime credit.
        """
        task.vruntime += wall_delta * GUEST_NICE0_WEIGHT // task.weight
        cur = self.cpu.current
        band = self.normal or self.idle_band
        if band:
            floor = band[0].vruntime
            for t in band:
                if t.vruntime < floor:
                    floor = t.vruntime
            if cur is not None and cur.vruntime < floor:
                floor = cur.vruntime
        elif cur is not None:
            floor = cur.vruntime
        else:
            return
        if floor > self.min_vruntime:
            self.min_vruntime = floor
