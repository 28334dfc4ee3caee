"""Measurement helpers: percentiles, normalization, cycle accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.sim.engine import SEC


def p95(values: Sequence[float]) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(values, 95))


def p50(values: Sequence[float]) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(values, 50))


def normalize(values: Sequence[float], baseline: float) -> List[float]:
    """Express values as percentages of a baseline (the paper's plots)."""
    if baseline == 0:
        return [float("nan")] * len(values)
    return [100.0 * v / baseline for v in values]


@dataclass
class CycleSample:
    """Cycle accounting snapshot of one VM (Figure 20).

    ``cycles`` are nominal-frequency cycles: 1 cycle per wall nanosecond of
    vCPU execution (the simulator's 1 GHz reference clock); ``work`` is
    retired instructions in the same unit; the difference is stall and
    spin overhead.
    """

    wall_ns: int
    cycles: int
    work_ns: float
    stall_ns: float

    @property
    def cps(self) -> float:
        """Cycles per second of wall time — vCPU utilization (Figure 20)."""
        if self.wall_ns == 0:
            return 0.0
        return self.cycles / (self.wall_ns / SEC)

    @property
    def ipc_proxy(self) -> float:
        """Instructions per cycle proxy: useful work / consumed cycles.

        ``work_ns`` includes executed stall time (stalls occupy the
        pipeline), so instructions = work − stalls."""
        if self.cycles == 0:
            return 0.0
        return max(0.0, self.work_ns - self.stall_ns) / self.cycles


class CycleMeter:
    """Collects VM cycle consumption over a measurement window."""

    def __init__(self, env, kernel=None):
        self.env = env
        self.kernel = kernel or env.kernel
        self._t0 = None
        self._run0 = 0
        self._work0 = 0.0
        self._stall0 = 0.0

    def _totals(self):
        run = self.env.vm.total_run_ns()
        work = sum(t.stats.work_done for t in self.kernel.tasks)
        stall = (self.kernel.stats.stall_ns
                 + self.kernel.stats.spin_wait_ns)
        return run, work, stall

    def start(self) -> None:
        self._t0 = self.env.engine.now
        self._run0, self._work0, self._stall0 = self._totals()

    def sample(self) -> CycleSample:
        if self._t0 is None:
            raise RuntimeError("CycleMeter.start() not called")
        run, work, stall = self._totals()
        return CycleSample(
            wall_ns=self.env.engine.now - self._t0,
            cycles=run - self._run0,
            work_ns=work - self._work0,
            stall_ns=stall - self._stall0)
