"""vcap: the capacity prober (§3.1).

vcap samples all vCPUs simultaneously in periodic windows.  Two window
kinds exist:

* **light** (the common case) — one SCHED_IDLE prober task per vCPU keeps
  the vCPU busy when it would otherwise idle, so the guest-visible steal
  time over the window measures the share of core time the vCPU receives:
  ``share = 1 - steal_delta / window``.  Capacity is then
  ``share × core_capacity`` using the core capacity learned in the last
  heavy window.  The prober consumes only otherwise-wasted cycles.
* **heavy** (every N light windows) — prober tasks run at high priority
  and *self-measure* their execution rate (work retired per CPU-second,
  the calibrated-busy-loop measurement a real prober makes), which yields
  the hosting core's capacity even under SMT contention or DVFS.

Samples feed the module's EMA.  vact piggybacks on the same windows to
convert steal deltas and preemption counts into average inactive/active
periods (vCPU latency).

Nothing here reads hypervisor state: only guest steal time and the prober
tasks' own progress measurements.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.core.module import VSchedModule
from repro.guest.cgroup import TaskGroup
from repro.guest.kernel import GuestKernel
from repro.guest.task import Policy, StatefulBody, Task
from repro.core.weights import weight_for_nice
from repro.probers.robust import RobustScalarEstimator
from repro.sim.engine import MSEC, SEC, USEC


class _WindowState:
    """Mutable per-window record shared by the staggered spawn events,
    the prober bodies, and the close event.

    An object rather than closure cells: the staggered spawns sit in the
    event queue for the first ~10 ms of every window, so a snapshot taken
    then must copy the window coherently — closure cells would alias the
    frozen world from inside the fork.
    """

    def __init__(self, heavy: bool, cpus: List[int]):
        self.heavy = heavy
        self.cpus = cpus
        self.stopped = False
        self.probers: Dict[int, Task] = {}
        self.steal_before: Dict[int, int] = {}
        self.preempt_before: Dict[int, int] = {}
        self.graze_before: Dict[int, int] = {}
        self.grid_before: Dict[int, float] = {}
        self.spawn_time: Dict[int, int] = {}


class _ProberBody(StatefulBody):
    """One prober task's busy loop as an explicit state machine.

    The stop flag is polled at chunk boundaries only, so chunks double
    while the loop keeps running (all measurements — steal deltas,
    work/wall rates — are taken externally and are chunk-size
    independent).  Chunks are clamped to the wall time left in the window
    so the prober stops competing for CPU at the window close just as
    un-coalesced base chunks would — the overshoot past the stop flag
    stays bounded by one base chunk.
    """

    def __init__(self, api, *, win: "_WindowState", base: int, cap: int,
                 window_ns: int):
        self.api = api
        self.win = win
        self.base = base
        self.cap = cap
        self.window_ns = window_ns
        self.end: Optional[int] = None
        self.chunk = base

    def send(self, value):
        now = self.api.now()
        if self.end is None:
            self.end = now + self.window_ns
        if self.win.stopped:
            raise StopIteration
        remaining = self.end - now
        if self.chunk <= remaining:
            step = self.chunk
        elif remaining > self.base:
            step = remaining
        else:
            step = self.base
        if self.chunk < self.cap:
            self.chunk *= 2
        return self.api.run(step)


class VCap:
    """Periodic cooperative capacity sampling for one VM."""

    def __init__(
        self,
        kernel: GuestKernel,
        module: VSchedModule,
        sampling_period_ns: int = 100 * MSEC,
        light_interval_ns: int = 1 * SEC,
        heavy_every: int = 5,
        prober_chunk_ns: int = 200 * USEC,
        heavy_weight: int = weight_for_nice(-10),
        vact=None,
        robust: Optional[dict] = None,
    ):
        self.kernel = kernel
        self.module = module
        self.sampling_period_ns = sampling_period_ns
        self.light_interval_ns = light_interval_ns
        self.heavy_every = heavy_every
        self.prober_chunk_ns = prober_chunk_ns
        self.heavy_weight = heavy_weight
        self.vact = vact
        #: Robust-estimation parameters (``VSchedConfig.robust_probers``);
        #: None keeps the stock direct-publish path bit-for-bit.
        self.robust = robust
        self._estimators: Dict[int, RobustScalarEstimator] = {}
        #: cgroup for light probers; rwc may shrink it (stacked bans) while
        #: still letting vcap probe stragglers.
        self.group: TaskGroup = kernel.new_group("vcap")
        self._count = 0
        self._running = False
        self._window_open = False
        self.windows_completed = 0
        #: Wall time vcap's probers have consumed (cost accounting, §5.9).
        self.prober_cpu_ns = 0
        #: Windows whose elapsed wall time came out non-positive (a
        #: pathological steal storm landing the end event at/before the
        #: staggered spawn): the rate divisions are clamped and the event
        #: counted instead of publishing an inf/NaN capacity.
        self.degenerate_windows = 0

    # ------------------------------------------------------------------
    def start(self, initial_delay_ns: int = 10 * MSEC) -> None:
        if self._running:
            return
        self._running = True
        self.kernel.engine.call_in(initial_delay_ns, self._begin_window)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _probed_cpus(self) -> List[int]:
        allowed = self.group.allowed
        cpus = range(len(self.kernel.cpus))
        return [c for c in cpus if allowed is None or c in allowed]

    #: Per-vCPU spawn stagger within a window.  Keeps sampling coordinated
    #: (windows overlap >90%) while avoiding phase-locking the co-runners
    #: of every core to the same schedule, which would be a measurement
    #: artifact of the prober itself.
    SPAWN_STAGGER_NS = 1_370_000

    def _begin_window(self) -> None:
        if not self._running:
            return
        heavy = (self._count % self.heavy_every) == 0
        self._count += 1
        win = _WindowState(heavy, self._probed_cpus())
        for i, c in enumerate(win.cpus):
            offset = (i % 8) * self.SPAWN_STAGGER_NS
            self.kernel.engine.call_in(offset, self._spawn_one, win, c)
        self._window_open = True
        self.kernel.engine.call_in(
            self.sampling_period_ns, self._end_window, win)

    def _spawn_one(self, win: _WindowState, c: int) -> None:
        if win.stopped:
            return
        cpu = self.kernel.cpus[c]
        win.steal_before[c] = self.kernel.steal_of(c)
        win.preempt_before[c] = cpu.preempt_count
        win.graze_before[c] = cpu.steal_graze_count
        now_ns = self.kernel.now()
        # Tick-grid steal average at window *start*: its ~32 ms
        # half-life still reflects the un-probed span before the
        # window, which a probe-window poisoner cannot fake.  Stale
        # (idle CPU) baselines are marked unusable.
        if self.robust is not None:
            fresh = (now_ns - cpu._cap_touch) <= self.GRID_STALE_NS
            win.grid_before[c] = (max(0.0, 1.0 - cpu.steal_frac_avg)
                                  if fresh and cpu.current is not None
                                  else -1.0)
        win.spawn_time[c] = now_ns
        policy = Policy.NORMAL if win.heavy else Policy.IDLE
        weight = self.heavy_weight if win.heavy else None
        win.probers[c] = self.kernel.spawn(
            self._prober_factory(win),
            name=f"vcap{'H' if win.heavy else 'L'}-{c}",
            policy=policy, weight=weight, group=self.group,
            cpu=c, allowed=(c,))

    #: Growth cap for coalesced prober chunks (in base chunks).  1 keeps
    #: the seed's fixed base-chunk polling.  Raising it shrinks the prober
    #: event footprint, but chunk boundaries are scheduling-visible (they
    #: gate when co-runners get the CPU back), which measurably perturbs
    #: the adaptability experiments (fig16/fig17) — so escalation is off
    #: by default and offered as an opt-in knob.
    CHUNK_COALESCE_MAX = 1

    def _prober_factory(self, win: _WindowState):
        base = self.prober_chunk_ns
        return partial(_ProberBody, win=win, base=base,
                       cap=base * self.CHUNK_COALESCE_MAX,
                       window_ns=self.sampling_period_ns)

    #: Tick-grid baselines older than this at window start are unusable
    #: (the CPU idled; steal is only observable while busy).
    GRID_STALE_NS = 5 * MSEC

    def _end_window(self, win: _WindowState) -> None:
        win.stopped = True
        self._window_open = False
        now = self.kernel.now()
        activity_samples = []
        for c in win.cpus:
            if c not in win.probers:
                continue  # spawn was still pending when the window closed
            window = now - win.spawn_time[c]
            if window <= 0:
                # Pathological steal can stall the staggered spawn until
                # the end event's instant: the window-rate divisions below
                # would blow up (or publish a meaningless share), so clamp
                # and count instead.
                self.degenerate_windows += 1
                window = 1
            steal_delta = self.kernel.steal_of(c) - win.steal_before[c]
            share = min(1.0, max(0.0, 1.0 - steal_delta / window))
            entry = self.module.store[c]
            #: Whether this window's share survived the tick-grid
            #: cross-check (always, off the hardened path); vact's
            #: hardened estimator distrusts its half of the same window
            #: when vcap's half was poisoned.
            grid_ok = True
            if win.heavy:
                # Heavy windows exist to measure the hosting core's
                # capacity via the prober's self-measured execution rate.
                # The share observed meanwhile is inflated by the prober's
                # own high priority, so it must not feed the vCPU capacity
                # estimate — the light windows own that.
                task = win.probers[c]
                wall = task.stats.wall_running
                if wall > 1000:  # enough signal to trust the rate
                    rate = task.stats.work_done / wall
                    if rate > 0.0:
                        entry.core_capacity = 1024.0 * rate
                    else:
                        self.degenerate_windows += 1
            elif self.robust is None:
                self.module.publish_capacity(c, share * entry.core_capacity)
            else:
                grid_ok = self._publish_robust(c, share, entry,
                                               win.grid_before.get(c, -1.0))
            preempts = (self.kernel.cpus[c].preempt_count
                        - win.preempt_before[c])
            grazes = (self.kernel.cpus[c].steal_graze_count
                      - win.graze_before.get(c, 0))
            activity_samples.append((c, steal_delta, preempts, grazes,
                                     window, grid_ok))
            self.prober_cpu_ns += win.probers[c].stats.wall_running
        if self.vact is not None:
            self.vact.on_window(activity_samples)
        self.module.sampling_complete()
        self.windows_completed += 1
        if self._running:
            delay = max(1, self.light_interval_ns - self.sampling_period_ns)
            self.kernel.engine.call_in(delay, self._begin_window)

    # ------------------------------------------------------------------
    # Hardened publish path (robust_probers)
    # ------------------------------------------------------------------
    def _publish_robust(self, c: int, share: float, entry,
                        grid_share: float) -> bool:
        """Route one light-window capacity sample through the robust
        estimator: cross-check the window share against the tick-grid
        steal average baselined at window start, reject outliers, and
        degrade to the last stable estimate (or the grid estimate) while
        quarantined.  Returns the cross-check verdict so vact can distrust
        its half of the same window."""
        est = self._estimators.get(c)
        if est is None:
            est = self._estimators[c] = RobustScalarEstimator(
                window=self.robust["window"],
                mad_k=self.robust["mad_k"],
                min_confidence=self.robust["min_confidence"],
                recovery_windows=self.robust["recovery_windows"])
        consistent = (grid_share < 0.0
                      or abs(share - grid_share) <= self.robust["grid_gate"])
        value = est.ingest(share * entry.core_capacity,
                           consistent=consistent)
        if value is None and grid_share >= 0.0:
            # No stable estimate yet: degrade to the coarse tick-grid
            # estimate, which integrates all busy time and cannot be
            # window-poisoned.
            value = grid_share * entry.core_capacity
        if value is not None:
            self.module.publish_capacity(c, value)
        return consistent

    @property
    def samples_rejected(self) -> int:
        return sum(e.rejected_samples for e in self._estimators.values())

    @property
    def quarantined_windows(self) -> int:
        return sum(e.quarantined_windows for e in self._estimators.values())
