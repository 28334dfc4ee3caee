"""Synthetic CPU-bound workloads: sysbench-style stressors and matmul.

These are the contention generators and throughput yardsticks of the
evaluation: Sysbench CPU (events/second of fixed-size work chunks), Matmul
(large CPU-bound chunks), and a plain fixed-work job used by the motivating
experiments.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.guest.task import StatefulBody
from repro.sim.engine import MSEC, SEC, USEC
from repro.workloads.base import Workload, WorkloadContext

# The worker bodies here are explicit state machines (StatefulBody), not
# generator closures: pickle cannot name a closure and cannot pickle a
# suspended generator at all, so neither survives a world snapshot.
# Each body keeps its cross-iteration state in attributes, which the
# snapshot image restores along with everything else.


class _ChunkedWorkBody(StatefulBody):
    """Retire ``total`` ns of compute in ``chunk``-sized steps."""

    def __init__(self, api, *, total: int, chunk: int):
        self.api = api
        self.remaining = total
        self.chunk = chunk

    def send(self, value):
        if self.remaining <= 0:
            raise StopIteration
        step = min(self.chunk, self.remaining)
        self.remaining -= step
        return self.api.run(step)


class CpuBoundJob(Workload):
    """``threads`` workers each retiring ``work_per_thread_ns`` of compute."""

    def __init__(self, name: str = "cpubound", threads: int = 1,
                 work_per_thread_ns: int = 1 * SEC, chunk_ns: int = 1 * MSEC):
        super().__init__(name)
        self.threads = threads
        self.work_per_thread_ns = work_per_thread_ns
        self.chunk_ns = chunk_ns

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        join = self._join_counter(self.threads)
        factory = partial(_ChunkedWorkBody, total=self.work_per_thread_ns,
                          chunk=self.chunk_ns)
        for i in range(self.threads):
            t = self._spawn(factory, f"{self.name}-{i}", initial_util=800)
            self.ctx.kernel.on_exit(t, join)


class SysbenchCpu(Workload):
    """Open-ended CPU stress reporting events/second (sysbench cpu).

    Runs until the experiment ends; throughput is ``events()`` over the
    measurement window.
    """

    def __init__(self, name: str = "sysbench", threads: int = 4,
                 event_work_ns: int = 500 * USEC,
                 duration_ns: Optional[int] = None):
        super().__init__(name)
        self.threads = threads
        self.event_work_ns = event_work_ns
        self.duration_ns = duration_ns
        self.deadline: Optional[int] = None
        self.events = 0

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        self.deadline = (None if self.duration_ns is None
                         else ctx.now() + self.duration_ns)
        join = self._join_counter(self.threads)
        factory = partial(_SysbenchBody, workload=self)
        for i in range(self.threads):
            t = self._spawn(factory, f"{self.name}-{i}", initial_util=800)
            self.ctx.kernel.on_exit(t, join)


class _SysbenchBody(StatefulBody):
    """One sysbench stressor thread.  ``issued`` tracks whether a work
    chunk is outstanding so the event counter still increments on
    *completion*, exactly like the original generator did on resume."""

    def __init__(self, api, *, workload: "SysbenchCpu"):
        self.api = api
        self.workload = workload
        self.issued = False

    def send(self, value):
        wl = self.workload
        if self.issued:
            wl.events += 1
        deadline = wl.deadline
        if deadline is not None and self.api.now() >= deadline:
            raise StopIteration
        self.issued = True
        return self.api.run(wl.event_work_ns)


class SelfMigratingJob(Workload):
    """The Figure 3 synthetic thread: CPU-intensive, optionally migrating
    itself circularly among idle vCPUs every ``migrate_every_ns``."""

    def __init__(self, name: str = "selfmig", work_ns: int = 1 * SEC,
                 migrate_every_ns: Optional[int] = 4 * MSEC):
        super().__init__(name)
        self.work_ns = work_ns
        self.migrate_every_ns = migrate_every_ns

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        join = self._join_counter(1)
        factory = partial(_SelfMigratingBody, total=self.work_ns,
                          every=self.migrate_every_ns,
                          n_cpus=len(ctx.kernel.cpus))
        t = self._spawn(factory, self.name, initial_util=900)
        self.ctx.kernel.on_exit(t, join)


class _SelfMigratingBody(StatefulBody):
    """Run a chunk, then hop to the next vCPU, until the work is done."""

    def __init__(self, api, *, total: int, every: Optional[int], n_cpus: int):
        self.api = api
        self.remaining = total
        self.every = every
        self.n_cpus = n_cpus
        self.migrate_next = False

    def send(self, value):
        if self.migrate_next:
            self.migrate_next = False
            target = (self.api.cpu_index() + 1) % self.n_cpus
            return self.api.migrate_to(target)
        if self.remaining <= 0:
            raise StopIteration
        step = min(self.every or MSEC, self.remaining)
        self.remaining -= step
        if self.every is not None and self.remaining > 0:
            self.migrate_next = True
        return self.api.run(step)


class Matmul(Workload):
    """CPU-intensive matrix-multiply stand-in: large uninterrupted chunks."""

    def __init__(self, name: str = "matmul", threads: int = 16,
                 blocks: int = 64, block_work_ns: int = 20 * MSEC):
        super().__init__(name)
        self.threads = threads
        self.blocks = blocks
        self.block_work_ns = block_work_ns
        self.blocks_done = 0

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        join = self._join_counter(self.threads)
        factory = partial(_MatmulBody, workload=self,
                          blocks=max(1, self.blocks // self.threads))
        for i in range(self.threads):
            t = self._spawn(factory, f"{self.name}-{i}", initial_util=900)
            self.ctx.kernel.on_exit(t, join)


class _MatmulBody(StatefulBody):
    """Retire ``blocks`` uninterrupted blocks, counting each only once
    its run completes (the ``issued`` flag mirrors the generator's
    increment-on-resume ordering)."""

    def __init__(self, api, *, workload: "Matmul", blocks: int):
        self.api = api
        self.workload = workload
        self.blocks_left = blocks
        self.issued = False

    def send(self, value):
        if self.issued:
            self.workload.blocks_done += 1
            self.issued = False
        if self.blocks_left <= 0:
            raise StopIteration
        self.blocks_left -= 1
        self.issued = True
        return self.api.run(self.workload.block_work_ns)
