"""Figure 10 — accuracy of vcap (EMA capacity) and vtop (latency matrix).

(a) A vCPU's capacity is stepped through a schedule of changes (including
a short spike); vcap's probed EMA capacity must track the trend while
smoothing the spike.

(b) An 8-vCPU VM with every topology flavour (two SMT pairs in socket 0; an
SMT pair and a stacked pair in socket 1).  vtop's probed cache-line
transfer latency matrix must separate the four distance classes, with
infinity on the stacked pair.
"""

from __future__ import annotations

import math

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.core.module import VSchedModule
from repro.experiments.common import Table
from repro.guest.kernel import GuestKernel
from repro.hw.topology import HostTopology
from repro.hypervisor.machine import Machine
from repro.probers import VTop
from repro.sim.engine import Engine, MSEC, SEC
from repro.sim.rng import make_rng


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

    Scheduled as a bound method so the pending callback stays snapshot-safe
    (guard_world): the tracker travels with the world on a snapshot fork,
    where a closure would fail the freeze.
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


def run_fig10a(fast: bool = False) -> Table:
    """EMA capacity vs the actual capacity schedule."""
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
    samples = tracker.samples

    table = Table(
        exp_id="fig10a",
        title="vcap EMA capacity vs actual capacity (vCPU0)",
        columns=["time_s", "actual_capacity", "ema_capacity"],
        paper_expectation="EMA tracks capacity changes while smoothing "
                          "out short spikes",
    )
    for t, actual, probed in samples:
        table.add(t / SEC, actual, probed)
    return table


def check_fig10a(table: Table) -> None:
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


def _build_fig10b_env():
    engine = Engine()
    topo = HostTopology(2, 4, smt=2)  # 16 threads; socket 1 starts at 8
    machine = Machine(engine, topo)
    pins = [(0,), (1,), (2,), (3,), (8,), (9,), (10,), (10,)]
    vm = machine.new_vm("vm", 8, pinned_map=pins)
    kernel = GuestKernel(vm)
    return engine, machine, kernel


def run_fig10b(fast: bool = False) -> Table:
    engine, machine, kernel = _build_fig10b_env()
    module = VSchedModule(kernel)
    vtop = VTop(kernel, module, make_rng("fig10b"))
    done = {}
    vtop.probe_full(lambda view: done.update(view=view))
    engine.run_until(20 * SEC)
    view = done.get("view")
    if view is None:
        raise RuntimeError("vtop full probe did not complete")

    # Render the pairwise relation the probed view implies.
    def relation(a: int, b: int) -> str:
        if a == b:
            return "self"
        if b in view.stacked_partners(a):
            return "stack"
        if b in view.smt_siblings[a]:
            return "smt"
        if b in view.socket_siblings[a]:
            return "socket"
        return "cross"

    table = Table(
        exp_id="fig10b",
        title="vtop probed topology relations (8-vCPU VM, Figure 10b layout)",
        columns=["vcpu"] + [str(i) for i in range(8)],
        paper_expectation="distinct latency classes: ~6ns SMT, ~48ns "
                          "intra-socket, ~112ns cross-socket, inf stacked",
    )
    for a in range(8):
        table.add(a, *(relation(a, b) for b in range(8)))
    table.notes.append(f"full probe took {vtop.last_full_ns / MSEC:.0f} ms")
    return table


def check_fig10b(table: Table) -> None:
    expect_smt = {(0, 1), (2, 3), (4, 5)}
    expect_stack = {(6, 7)}
    for a in range(8):
        for b in range(8):
            rel = table.rows[a][1 + b]
            if a == b:
                assert rel == "self"
                continue
            key = (min(a, b), max(a, b))
            if key in expect_smt:
                assert rel == "smt", (a, b, rel)
            elif key in expect_stack:
                assert rel == "stack", (a, b, rel)
            elif (a < 4) == (b < 4):
                assert rel in ("socket", "smt"), (a, b, rel)
            else:
                assert rel == "cross", (a, b, rel)
