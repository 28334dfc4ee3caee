"""Guest kernel tunables (CFS defaults plus the vact kernel thresholds)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import MSEC, USEC


@dataclass
class GuestConfig:
    """Scheduler tunables of the simulated guest kernel.

    Defaults mirror stock Linux CFS; the vact-related thresholds follow the
    paper (§3.1): heartbeat staleness of a few ticks, small steal jumps
    filtered as noise.
    """

    #: Guest fair scheduler flavour: "cfs" (the paper's implementation
    #: target) or "eevdf" (the successor it claims easy portability to).
    scheduler: str = "cfs"
    #: EEVDF base virtual slice (request size).
    eevdf_base_slice_ns: int = int(1.5 * MSEC)
    #: Scheduler tick period.
    tick_ns: int = 1 * MSEC
    #: CFS targeted preemption latency.
    sched_latency_ns: int = 6 * MSEC
    #: CFS minimal preemption granularity.
    min_granularity_ns: int = 750 * USEC
    #: CFS wakeup granularity (vruntime lead needed to preempt on wakeup).
    wakeup_granularity_ns: int = 1 * MSEC
    #: Period of per-CPU periodic load balancing.
    balance_interval_ns: int = 4 * MSEC
    #: Cost charged to a task migrated by the balancer (cache refill etc.).
    migration_cost_ns: int = 30 * USEC
    #: Steal increase per tick below this is filtered as noise by vact.
    steal_jump_threshold_ns: int = 200 * USEC
    #: Floor for the graze counter: a steal jump in [floor, threshold) is
    #: too small to count as a preemption but too large to be noise — the
    #: signature of a co-runner stealing in sub-threshold slices every
    #: tick (a tick-evading antagonist).  The hardened vact reads the
    #: count to re-qualify such windows; stock vact ignores it.
    steal_graze_floor_ns: int = 25 * USEC
    #: Heartbeat staleness (in ticks) that marks a vCPU host-inactive.
    heartbeat_stale_ticks: int = 3
    #: Idle window within which a halted vCPU is woken via the polling
    #: fast path (no IPI), like TIF_POLLING_NRFLAG in Linux.
    polling_window_ns: int = 200 * USEC
    #: EMA factor for the default (steal-based) CFS capacity estimate.
    cfs_capacity_alpha: float = 0.25
    #: Half-life of the steal-fraction running average behind the default
    #: capacity estimate (scale_rt_capacity uses a PELT signal).
    cfs_capacity_halflife_ns: int = 32 * MSEC
    #: Half-life of the idle drift of the default capacity estimate back
    #: toward full scale (the staleness the paper exploits in §5.3).
    cfs_capacity_idle_halflife_ns: int = 250 * MSEC
    #: Maximum number of spin polls coalesced into one execution segment.
    #: Consecutive failed polls escalate 1, 2, 4, ... up to this cap, which
    #: bounds how stale a coalesced spinner's view of the sync object can
    #: get (cap * spin_check_ns of extra acquisition delay in the worst
    #: case).  1 disables coalescing.
    spin_coalesce_max: int = 8

    def slice_for(self, nr_running: int) -> int:
        """CFS time slice given the number of co-runnable tasks."""
        if nr_running <= 1:
            return self.sched_latency_ns
        return max(self.min_granularity_ns, self.sched_latency_ns // nr_running)
