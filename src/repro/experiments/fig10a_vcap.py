"""Figure 10a — accuracy of vcap's EMA capacity.

A vCPU's capacity is stepped through a schedule of changes (including a
short spike); vcap's probed EMA capacity must track the trend while
smoothing the spike.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster import attach_scheduler, build_plain_vm
from repro.experiments.common import Table
from repro.experiments.units import WorkUnit
from repro.sim.engine import MSEC, SEC


def _apply_share(env, period: int, share: float) -> None:
    """Apply one step of the capacity schedule to vCPU0 via bandwidth."""
    if share >= 1.0:
        env.machine.set_bandwidth(env.vm.vcpu(0), None)
    else:
        env.machine.set_bandwidth(env.vm.vcpu(0),
                                  quota_ns=int(share * period),
                                  period_ns=period)


class _CapacityTracker:
    """Samples actual vs probed capacity every 500 ms until ``end``.

    Scheduled as a bound method, which pickles into a snapshot image: the
    tracker travels with the world on a snapshot fork, where a closure
    would fail the freeze.
    """

    def __init__(self, env, vs, steps, end: int):
        self.env = env
        self.vs = vs
        self.steps = steps
        self.end = end
        self.samples = []  # (time, actual, probed)

    def tick(self) -> None:
        now = self.env.engine.now
        share = 1.0
        for t, s in self.steps:
            if now >= t:
                share = s
        self.samples.append((now, 1024.0 * share,
                             self.vs.module.store[0].capacity))
        if now < self.end:
            self.env.engine.call_in(500 * MSEC, self.tick)


def _track(fast: bool) -> List[Tuple]:
    """Work-unit body: the ``(time, actual, probed)`` capacity samples."""
    env = build_plain_vm(2)
    period = 10 * MSEC
    # Capacity schedule for vCPU0 (fraction of a core, applied via quota):
    # steady 1.0 -> 0.5 -> brief spike to 1.0 -> 0.5 -> 0.25 -> 1.0.
    phase = 12 * SEC if fast else 30 * SEC
    steps = [(0, 1.0), (phase, 0.5), (2 * phase, 1.0),
             (2 * phase + SEC, 0.5), (3 * phase, 0.25), (4 * phase, 1.0)]
    end = steps[-1][0] + phase

    vs = attach_scheduler(env, "enhanced")

    for t, share in steps:
        env.engine.call_at(t, _apply_share, env, period, share)

    tracker = _CapacityTracker(env, vs, steps, end)
    env.engine.call_in(500 * MSEC, tracker.tick)
    env.engine.run_until(end)
    return tracker.samples


def scenarios(fast: bool) -> List[WorkUnit]:
    return [WorkUnit(exp_id="fig10a", label="ema", func=_track,
                     config=(fast,), cost_hint=0.4 if fast else 1.4)]


def assemble(fast: bool, results: List[List[Tuple]]) -> Table:
    """EMA capacity vs the actual capacity schedule."""
    table = Table(
        exp_id="fig10a",
        title="vcap EMA capacity vs actual capacity (vCPU0)",
        columns=["time_s", "actual_capacity", "ema_capacity"],
        paper_expectation="EMA tracks capacity changes while smoothing "
                          "out short spikes",
    )
    for t, actual, probed in results[0]:
        table.add(t / SEC, actual, probed)
    return table


def check(table: Table) -> None:
    rows = table.rows
    # Samples taken >= 9 s after the last actual-capacity change (the EMA's
    # 2-period half-life has decayed history to <5% by then) must be within
    # 25% of the actual value.
    settle_samples = 18  # 9 s at the 500 ms sampling cadence
    settled = [
        r for i, r in enumerate(rows)
        if i >= settle_samples
        and all(rows[j][1] == r[1] for j in range(i - settle_samples, i))
    ]
    assert settled, "no settled samples"
    bad = [r for r in settled if abs(r[2] - r[1]) > 0.25 * r[1] + 60]
    assert len(bad) <= max(1, len(settled) // 8), bad[:5]
    # The 1 s spike back to full capacity must be smoothed out: while the
    # actual capacity briefly shows 1024 between 512 phases, the EMA must
    # not follow it all the way up.
    for i in range(1, len(rows) - 3):
        prev_a, cur_a = rows[i - 1][1], rows[i][1]
        if prev_a == 512.0 and cur_a == 1024.0:
            # Spike if actual drops back within 3 samples.
            future = [rows[j][1] for j in range(i + 1, min(i + 4, len(rows)))]
            if 512.0 in future:
                window = rows[i:i + 3]
                assert max(r[2] for r in window) < 900.0, window
                break
