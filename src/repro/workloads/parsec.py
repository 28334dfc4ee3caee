"""PARSEC / SPLASH-2x style throughput workloads (§5.1).

Four families capture the scheduling-relevant structure of the suites:

* :class:`BarrierWorkload` — bulk-synchronous phases (ocean, fft, lu,
  bodytrack, facesim, streamcluster, ...): a straggler thread delays the
  whole phase, which is what makes straggler vCPUs and stalled running
  tasks so costly;
* :class:`DataParallelWorkload` — a bag of independent chunks
  (blackscholes, swaptions, freqmine, raytrace): almost pure throughput;
* :class:`PipelineWorkload` — staged producer/consumer with bounded queues
  (dedup, ferret, x264): inter-thread communication, sensitive to
  placement and LLC locality;
* :class:`LockWorkload` — lock-dominated iteration (canneal, fluidanimate,
  radiosity): sensitive to lock-holder delays.

``spin=True`` variants (streamcluster, volrend) use user-level spin
synchronization, reproducing the LHP-like pathology the paper observes for
them in hpvm (§5.6).

Per-benchmark parameters live in :data:`PARSEC_SPECS`; they encode each
benchmark's *shape* (sync style, granularity), not its absolute runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.guest.sync import Barrier, Channel, Mutex
from repro.sim.engine import MSEC, USEC
from repro.workloads.base import Workload, WorkloadContext


class BarrierWorkload(Workload):
    """Bulk-synchronous: ``phases`` rounds of work + barrier."""

    def __init__(self, name: str, threads: int = 8, phases: int = 100,
                 phase_work_ns: int = 10 * MSEC, jitter: float = 0.15,
                 spin: bool = False):
        super().__init__(name)
        self.threads = threads
        self.phases = phases
        self.phase_work_ns = phase_work_ns
        self.jitter = jitter
        self.spin = spin

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        barrier = Barrier(self.threads, f"{self.name}-bar", spin=self.spin)
        self.barrier = barrier
        join = self._join_counter(self.threads)
        rng = ctx.rng
        phases, mean, jit = self.phases, self.phase_work_ns, self.jitter

        def body(api):
            for _ in range(phases):
                work = max(50_000, int(rng.normal(mean, mean * jit)))
                yield api.run(work)
                yield api.barrier(barrier)

        for i in range(self.threads):
            t = self._spawn(body, f"{self.name}-{i}", initial_util=700)
            self.ctx.kernel.on_exit(t, join)


class DataParallelWorkload(Workload):
    """A bag of independent chunks pulled from a shared queue."""

    def __init__(self, name: str, threads: int = 8, chunks: int = 400,
                 chunk_work_ns: int = 4 * MSEC, jitter: float = 0.3):
        super().__init__(name)
        self.threads = threads
        self.chunks = chunks
        self.chunk_work_ns = chunk_work_ns
        self.jitter = jitter

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        queue = Channel(f"{self.name}-q", lines=2)
        rng = ctx.rng
        for _ in range(self.chunks):
            work = max(50_000, int(rng.normal(
                self.chunk_work_ns, self.chunk_work_ns * self.jitter)))
            queue.items.append((work, None))
        for _ in range(self.threads):
            queue.items.append((None, None))  # poison pills
        join = self._join_counter(self.threads)

        def body(api):
            while True:
                work = yield api.recv(queue)
                if work is None:
                    return
                yield api.run(work)

        for i in range(self.threads):
            t = self._spawn(body, f"{self.name}-{i}", initial_util=700)
            self.ctx.kernel.on_exit(t, join)


class PipelineWorkload(Workload):
    """Staged pipeline with bounded inter-stage queues."""

    def __init__(self, name: str, items: int = 600,
                 stages: Optional[List[Tuple[str, int, int]]] = None,
                 queue_capacity: int = 16, lines: int = 16):
        super().__init__(name)
        self.items = items
        #: (stage name, worker count, per-item work ns)
        self.stages = stages or [
            ("read", 1, 300 * USEC),
            ("compress", 4, 2 * MSEC),
            ("write", 1, 300 * USEC),
        ]
        self.queue_capacity = queue_capacity
        self.lines = lines

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        n_stages = len(self.stages)
        queues = [Channel(f"{self.name}-q{i}", capacity=self.queue_capacity,
                          lines=self.lines)
                  for i in range(n_stages + 1)]
        # Preload the source queue with item descriptors.
        for i in range(self.items):
            queues[0].items.append((i, None))
        total_workers = sum(w for _, w, _ in self.stages)
        sink_count = [0]
        wl = self

        def make_stage(idx: int, work_ns: int, last: bool):
            inq, outq = queues[idx], queues[idx + 1]

            def body(api):
                while True:
                    item = yield api.recv(inq)
                    if item is None:
                        return
                    yield api.run(work_ns)
                    if last:
                        sink_count[0] += 1
                        if sink_count[0] >= wl.items:
                            wl._mark_done()
                    else:
                        yield api.send(outq, item)

            return body

        for idx, (sname, workers, work_ns) in enumerate(self.stages):
            last = idx == n_stages - 1
            for w in range(workers):
                self._spawn(make_stage(idx, work_ns, last),
                            f"{self.name}-{sname}{w}", initial_util=400)

    @property
    def threads(self) -> int:
        return sum(w for _, w, _ in self.stages)


class LockWorkload(Workload):
    """Lock-dominated iteration: acquire, critical section, release, work."""

    def __init__(self, name: str, threads: int = 8, iterations: int = 300,
                 cs_work_ns: int = 400 * USEC, outside_work_ns: int = 2 * MSEC,
                 spin: bool = False):
        super().__init__(name)
        self.threads = threads
        self.iterations = iterations
        self.cs_work_ns = cs_work_ns
        self.outside_work_ns = outside_work_ns
        self.spin = spin

    def start(self, ctx: WorkloadContext) -> None:
        self.ctx = ctx
        self.started_at = ctx.now()
        lock = Mutex(f"{self.name}-lock", spin=self.spin)
        self.lock = lock
        join = self._join_counter(self.threads)
        iters, cs, out = self.iterations, self.cs_work_ns, self.outside_work_ns
        rng = ctx.rng

        def body(api):
            for _ in range(iters):
                yield api.run(max(20_000, int(rng.normal(out, out * 0.2))))
                yield api.lock(lock)
                yield api.run(cs)
                yield api.unlock(lock)

        for i in range(self.threads):
            t = self._spawn(body, f"{self.name}-{i}", initial_util=700)
            self.ctx.kernel.on_exit(t, join)


@dataclass(frozen=True)
class ParsecSpec:
    """Family + shape parameters for one named benchmark."""

    family: str                 # barrier | dataparallel | pipeline | lock
    sync_intensity: float = 1.0  # scales phase/chunk granularity (finer = more sync)
    spin: bool = False
    total_work_ms_per_thread: int = 1200


PARSEC_SPECS: Dict[str, ParsecSpec] = {
    # --- PARSEC ---------------------------------------------------------
    "blackscholes":  ParsecSpec("dataparallel", 0.3),
    "bodytrack":     ParsecSpec("barrier", 1.0),
    "canneal":       ParsecSpec("lock", 1.2),
    "dedup":         ParsecSpec("pipeline", 1.0),
    "facesim":       ParsecSpec("barrier", 0.6),
    "ferret":        ParsecSpec("pipeline", 1.2),
    "fluidanimate":  ParsecSpec("lock", 1.6),
    "freqmine":      ParsecSpec("dataparallel", 0.6),
    "streamcluster": ParsecSpec("barrier", 2.2, spin=True),
    "swaptions":     ParsecSpec("dataparallel", 0.25),
    "x264":          ParsecSpec("pipeline", 0.8),
    # --- SPLASH-2x -------------------------------------------------------
    "barnes":        ParsecSpec("barrier", 0.8),
    "fft":           ParsecSpec("barrier", 0.5),
    "lu_cb":         ParsecSpec("barrier", 0.9),
    "lu_ncb":        ParsecSpec("barrier", 1.1),
    "ocean_cp":      ParsecSpec("barrier", 1.4),
    "ocean_ncp":     ParsecSpec("barrier", 1.7),
    "radiosity":     ParsecSpec("lock", 1.0),
    "radix":         ParsecSpec("barrier", 0.7),
    "raytrace":      ParsecSpec("dataparallel", 0.5),
    "volrend":       ParsecSpec("lock", 1.4, spin=True),
    "water_spatial": ParsecSpec("barrier", 0.9),
}


def build_parsec(name: str, threads: int, scale: float = 1.0) -> Workload:
    """Instantiate a named PARSEC/SPLASH benchmark.

    ``scale`` shrinks total work for fast test runs while preserving the
    benchmark's synchronization granularity.
    """
    spec = PARSEC_SPECS[name]
    total_ns = int(spec.total_work_ms_per_thread * MSEC * scale)
    if spec.family == "barrier":
        phase_ns = max(500 * USEC, int(8 * MSEC / spec.sync_intensity))
        phases = max(3, total_ns // phase_ns)
        return BarrierWorkload(name, threads=threads, phases=phases,
                               phase_work_ns=phase_ns, spin=spec.spin)
    if spec.family == "dataparallel":
        chunk_ns = max(1 * MSEC, int(6 * MSEC / max(spec.sync_intensity, 0.1)))
        chunks = max(threads, threads * total_ns // chunk_ns)
        return DataParallelWorkload(name, threads=threads,
                                    chunks=int(chunks), chunk_work_ns=chunk_ns)
    if spec.family == "pipeline":
        mid_workers = max(1, threads - 2)
        per_item = max(300 * USEC, int(2 * MSEC / spec.sync_intensity))
        items = max(20, mid_workers * total_ns // per_item)
        stages = [("in", 1, per_item // 4),
                  ("work", mid_workers, per_item),
                  ("out", 1, per_item // 4)]
        return PipelineWorkload(name, items=int(items), stages=stages)
    if spec.family == "lock":
        outside_ns = max(300 * USEC, int(2 * MSEC / spec.sync_intensity))
        iters = max(10, total_ns // outside_ns)
        return LockWorkload(name, threads=threads, iterations=int(iters),
                            outside_work_ns=outside_ns,
                            cs_work_ns=max(50 * USEC, outside_ns // 6),
                            spin=spec.spin)
    raise ValueError(f"unknown family {spec.family}")
