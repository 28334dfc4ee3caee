"""Workload framework.

A :class:`Workload` spawns guest tasks into a VM and records results.  Two
result families cover everything the paper measures:

* **throughput** — a job of known total work; the metric is elapsed time
  (or its inverse).  ``done`` flips when the job completes.
* **latency** — an open-loop request stream; per-request queue/service/
  end-to-end times are recorded for percentile reporting.

Workloads receive a :class:`WorkloadContext` naming the kernel, the cgroup
to spawn into (so rwc's cpusets apply), and the experiment RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.guest.cgroup import TaskGroup
from repro.guest.kernel import GuestKernel
from repro.guest.task import Policy, StatefulBody, Task
from repro.sim.engine import MSEC, USEC


@dataclass
class WorkloadContext:
    """Everything a workload needs to install itself in a VM."""

    kernel: GuestKernel
    group: TaskGroup
    besteffort_group: Optional[TaskGroup]
    rng: np.random.Generator

    @property
    def engine(self):
        return self.kernel.engine

    def now(self) -> int:
        return self.kernel.now()


@dataclass
class RequestRecord:
    """One served request of a latency-sensitive workload."""

    arrival: int
    start: int
    finish: int

    @property
    def queue_ns(self) -> int:
        return self.start - self.arrival

    @property
    def service_ns(self) -> int:
        return self.finish - self.start

    @property
    def e2e_ns(self) -> int:
        return self.finish - self.arrival


class Workload:
    """Base class; subclasses implement :meth:`start`."""

    #: Family tag used by experiment tables ("throughput" / "latency").
    kind = "throughput"

    def __init__(self, name: str):
        self.name = name
        self.ctx: Optional[WorkloadContext] = None
        self.started_at = 0
        self.finished_at: Optional[int] = None
        self.tasks: List[Task] = []
        self.requests: List[RequestRecord] = []
        self._on_done: List[Callable] = []

    # ------------------------------------------------------------------
    def start(self, ctx: WorkloadContext) -> None:
        raise NotImplementedError

    def on_done(self, callback: Callable) -> None:
        self._on_done.append(callback)

    def _mark_done(self) -> None:
        if self.finished_at is None:
            self.finished_at = self.ctx.now()
            for cb in self._on_done:
                cb(self)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    # ------------------------------------------------------------------
    # Result accessors
    # ------------------------------------------------------------------
    def elapsed_ns(self) -> Optional[int]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def p95_ns(self, component: str = "e2e") -> float:
        if not self.requests:
            return float("nan")
        values = [getattr(r, f"{component}_ns") for r in self.requests]
        return float(np.percentile(values, 95))

    def mean_ns(self, component: str = "e2e") -> float:
        if not self.requests:
            return float("nan")
        values = [getattr(r, f"{component}_ns") for r in self.requests]
        return float(np.mean(values))

    # ------------------------------------------------------------------
    # Spawn helpers
    # ------------------------------------------------------------------
    def _spawn(self, factory, name: str, policy: Policy = Policy.NORMAL,
               initial_util: float = 0.0, group: Optional[TaskGroup] = None,
               cpu: Optional[int] = None,
               latency_sensitive: bool = False) -> Task:
        task = self.ctx.kernel.spawn(
            factory, name, policy=policy,
            group=group or self.ctx.group, initial_util=initial_util, cpu=cpu,
            latency_sensitive=latency_sensitive)
        self.tasks.append(task)
        return task

    def _join_counter(self, parties: int) -> "JoinCounter":
        """Returns a decrement callable; marks the workload done at zero."""
        return JoinCounter(self, parties)


class JoinCounter:
    """Countdown latch marking its workload done when the last party
    arrives.  An object rather than a closure so snapshot forks copy the
    count and rebind to the forked workload instead of aliasing the
    frozen one."""

    def __init__(self, workload: Workload, parties: int):
        self.workload = workload
        self.remaining = parties

    def __call__(self, _task=None) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.workload._mark_done()


class BestEffortFiller(Workload):
    """Low-priority background work harvesting free vCPU cycles (§2.3).

    One sched_idle spinner per vCPU, used by the "with best-effort tasks"
    variants of the latency experiments.
    """

    def __init__(self, name: str = "besteffort"):
        super().__init__(name)

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        group = ctx.besteffort_group or ctx.group
        for c in range(len(ctx.kernel.cpus)):
            self._spawn(_FillerBody, f"{self.name}-{c}", policy=Policy.IDLE,
                        group=group, cpu=c)


class _FillerBody(StatefulBody):
    """Endless best-effort spinning: nothing observes the chunk
    boundaries, so grow the chunk (bounded) to keep the filler's event
    footprint small.  Preemption by normal tasks is immediate on their
    wake-up regardless of chunk size.  An explicit state machine (not a
    generator) so snapshot forks carry the grown chunk instead of
    restarting it at the minimum."""

    def __init__(self, api):
        self.api = api
        self.chunk = 500 * USEC

    def send(self, value):
        action = self.api.run(self.chunk)
        if self.chunk < 4 * MSEC:
            self.chunk *= 2
        return action
