"""Prober degradation metrics: estimate error vs hypervisor ground truth.

Under an adversarial co-tenant the vProbers' estimates can drift
arbitrarily far from reality while still looking healthy from inside the
guest.  This module quantifies that drift *experiment-side*: the
simulation harness can read both the guest's published abstractions and
the hypervisor's own accounting (a real deployment cannot, which is
exactly why the degradation is dangerous).

:class:`GroundTruthTracker` samples both sides on a fixed grid:

* **capacity ground truth** — ``1024 × Δrun/Δwall`` per vCPU thread over
  the sampling interval.  The caller must keep the guest saturated
  (pinned spinners) so run share equals *available* capacity;
* **latency ground truth** — ``Δsteal/Δpreemption_resumes``: the mean
  host-side wait per preemption, the quantity vact estimates.

Per-sample errors are dimensionless: capacity error as a fraction of a
nominal core (``|est − gt|/1024``), latency error normalized by the true
latency plus one tick (``|est − gt|/(gt + 1 ms)``) so the dedicated case
(gt 0) neither divides by zero nor drowns the metric.  The aggregate
:class:`DegradationReport` is what figure family ``figA1`` tabulates; it
round-trips through JSON (``to_json``/``from_json``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List

from repro.sim.engine import MSEC


@dataclass
class DegradationReport:
    """Aggregate estimate error for one (scenario, prober-config) run."""

    label: str
    samples: int
    #: Mean |est − gt| capacity error, in fractions of a nominal core.
    cap_err: float
    #: Mean normalized vCPU-latency error.
    act_err: float
    #: Robustness counters (0 on the naive path).
    samples_rejected: int = 0
    quarantined_windows: int = 0
    degenerate_windows: int = 0

    @property
    def combined_err(self) -> float:
        """The scalar the figA1 check compares: capacity and activity
        error weighted equally."""
        return 0.5 * (self.cap_err + self.act_err)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DegradationReport":
        return cls(**json.loads(text))


class GroundTruthTracker:
    """Sample hypervisor truth vs guest estimates on a fixed grid.

    Drive with :meth:`start` (chains its own engine callbacks); read the
    aggregate with :meth:`report` once the run ends.  All sampling points
    come from the deterministic event grid, so a tracked run stays
    byte-reproducible and cacheable.
    """

    def __init__(self, env, store, interval_ns: int = 250 * MSEC):
        self.env = env
        self.store = store
        self.interval_ns = interval_ns
        self.samples = 0
        self._cap_err_sum = 0.0
        self._act_err_sum = 0.0
        self._prev = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self, delay_ns: int = 0) -> None:
        """Begin sampling after ``delay_ns`` (the prober warm-up)."""
        self._running = True
        self.env.engine.call_in(max(1, delay_ns), self._baseline)

    def stop(self) -> None:
        self._running = False

    def _snapshot(self) -> List[tuple]:
        now = self.env.engine.now
        return [(v.run_ns(now), v.steal_ns(now), v.preemption_resumes)
                for v in self.env.vm.vcpus]

    def _baseline(self) -> None:
        if not self._running:
            return
        self._prev = self._snapshot()
        self.env.engine.call_in(self.interval_ns, self._sample)

    def _sample(self) -> None:
        if not self._running:
            return
        cur = self._snapshot()
        for c, ((run0, steal0, res0), (run1, steal1, res1)) in enumerate(
                zip(self._prev, cur)):
            d_run = run1 - run0
            d_steal = steal1 - steal0
            d_res = res1 - res0
            gt_cap = 1024.0 * d_run / self.interval_ns
            gt_lat = (d_steal / d_res) if d_res > 0 else 0.0
            entry = self.store[c]
            self._cap_err_sum += abs(entry.capacity - gt_cap) / 1024.0
            self._act_err_sum += (abs(entry.latency_ns - gt_lat)
                                  / (gt_lat + 1 * MSEC))
            self.samples += 1
        self._prev = cur
        self.env.engine.call_in(self.interval_ns, self._sample)

    # ------------------------------------------------------------------
    def report(self, label: str, vcap=None) -> DegradationReport:
        n = max(1, self.samples)
        rejected = quarantined = degenerate = 0
        if vcap is not None:
            rejected = vcap.samples_rejected
            quarantined = vcap.quarantined_windows
            degenerate = vcap.degenerate_windows
        return DegradationReport(
            label=label,
            samples=self.samples,
            cap_err=self._cap_err_sum / n,
            act_err=self._act_err_sum / n,
            samples_rejected=rejected,
            quarantined_windows=quarantined,
            degenerate_windows=degenerate)
