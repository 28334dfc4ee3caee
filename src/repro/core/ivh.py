"""Intra-VM harvesting (ivh, §3.3).

A running CPU-intensive task on a vCPU that is about to be preempted is
proactively migrated to an unused vCPU where it can keep making progress,
harvesting vCPU time that would otherwise be wasted (the *stalled running
task* problem, Figure 3).

The migration is **activity-aware** (Figure 9): the target vCPU is
pre-woken, and the task is only detached once the target is host-active and
has issued its pull request (modelled as an IPI delay plus a stopper-thread
delay).  If the source vCPU gets preempted before the pull completes, the
migration is abandoned — moving an already-stalled task buys nothing.

``activity_aware=False`` gives the strawman variant of Table 4: the task is
detached immediately and enqueued on the target regardless of the target's
activity, so it may sit stalled on an inactive target (migration delay).
"""

from __future__ import annotations

from typing import Optional

from repro.core.module import VSchedModule
from repro.guest.kernel import GuestKernel, VCPU_ACTIVE
from repro.guest.task import TASK_RUNNABLE, TASK_RUNNING, Task
from repro.sim.engine import MSEC, SEC, USEC


class IntraVmHarvesting:
    """The scheduler-tick hook implementing ivh."""

    #: PELT utilization above which a task counts as CPU-intensive.
    CPU_INTENSIVE_UTIL = 600.0
    #: Cost of the wake-up interrupt to the target vCPU.
    IPI_DELAY_NS = 5 * USEC
    #: Cost of the stopper-thread detach/attach.
    STOPPER_DELAY_NS = 20 * USEC

    def __init__(
        self,
        kernel: GuestKernel,
        module: VSchedModule,
        min_run_ns: int = 1 * MSEC,
        lookahead_ns: int = 2 * MSEC,
        min_interval_ns: int = 1 * MSEC,
        activity_aware: bool = True,
    ):
        self.kernel = kernel
        self.module = module
        self.min_run_ns = min_run_ns
        self.lookahead_ns = lookahead_ns
        self.min_interval_ns = min_interval_ns
        self.activity_aware = activity_aware
        self.migrations = 0
        self.aborted = 0
        #: EMA of migration success; when predictions keep failing on an
        #: erratic host, harvesting backs off to occasional probing.  The
        #: signal drifts back toward optimistic over a few seconds so that
        #: host-regime changes get re-probed.
        self._success_ema = 1.0
        self._last_attempt = -(10 ** 12)
        self._ema_touch = 0

    # ------------------------------------------------------------------
    #: Skip harvesting when this fraction of vCPUs already has normal
    #: work — a loaded system has nothing to harvest and migrations only
    #: churn.
    LOADED_FRACTION = 0.8

    #: Success EMA below which harvesting throttles itself.
    MIN_SUCCESS = 0.75
    #: Re-probe interval while throttled.
    BACKOFF_NS = 100 * MSEC

    #: Time-based drift of the success signal back toward optimism.
    EMA_DRIFT_TARGET = 0.85
    EMA_DRIFT_HALFLIFE_NS = 4 * SEC

    def __call__(self, cpu, now: int) -> None:
        task = cpu.current
        if task is None or task.is_idle_policy:
            return
        dt = now - self._ema_touch
        if dt > 0:
            self._ema_touch = now
            decay = 0.5 ** (dt / self.EMA_DRIFT_HALFLIFE_NS)
            self._success_ema = (self.EMA_DRIFT_TARGET
                                 + (self._success_ema
                                    - self.EMA_DRIFT_TARGET) * decay)
        if (self._success_ema < self.MIN_SUCCESS
                and now - self._last_attempt < self.BACKOFF_NS):
            return
        if self._system_loaded():
            return
        entry = self.module.store[cpu.index]
        if entry.latency_ns <= 0:
            return  # no inactive periods on this vCPU: nothing to harvest
        if task.run_started_at is None or now - task.run_started_at < self.min_run_ns:
            return
        if now - task.ivh_last_migration < self.min_interval_ns:
            return
        if task.util(now) < self.CPU_INTENSIVE_UTIL:
            return
        if not self._soon_inactive(cpu, entry, now):
            return
        target = self._find_target(task, cpu, now)
        if target is None:
            return
        task.ivh_last_migration = now
        self._last_attempt = now
        if self.activity_aware:
            self._migrate_activity_aware(task, cpu, target)
        else:
            self._migrate_blind(task, cpu, target)

    def _system_loaded(self) -> bool:
        cpus = self.kernel.cpus
        busy = 0
        for c in cpus:
            if ((c.current is not None and not c.current.is_idle_policy)
                    or c.rq.has_queued_normal()):
                busy += 1
        return busy >= self.LOADED_FRACTION * len(cpus)

    # ------------------------------------------------------------------
    def _soon_inactive(self, cpu, entry, now: int) -> bool:
        """Predict whether this vCPU's active period is about to end."""
        if entry.avg_active_ns <= 0:
            return False
        state, since = self.kernel.vcpu_state(cpu.index)
        if state != VCPU_ACTIVE:
            return False
        remaining = entry.avg_active_ns - (now - since)
        return remaining <= self.lookahead_ns

    #: A target must offer at least this much expected active time.
    MIN_USEFUL_NS = 1 * MSEC
    #: Maximum acceptable wait for an inactive target to resume.
    MAX_WAIT_NS = 1 * MSEC

    def _find_target(self, task: Task, src, now: int) -> Optional[object]:
        """bvs-like search, scoring candidates by the active time the task
        can expect to harvest there before the next preemption."""
        best = None
        best_key = None
        for c, cpu in enumerate(self.kernel.cpus):
            if c == src.index or not task.may_run_on(c):
                continue
            key = self._target_score(c, cpu, now)
            if key is None:
                continue
            if best_key is None or key > best_key:
                best = cpu
                best_key = key
        return best

    def _target_score(self, c: int, cpu, now: int):
        entry = self.module.store[c]
        rq = cpu.rq
        full_period = entry.avg_active_ns if entry.avg_active_ns > 0 else 10 * MSEC
        if rq.is_idle():
            # Guest-idle (halted) vCPU: a kick wakes it immediately and
            # host sleeper fairness gives it credit proportional to how
            # long it has been idle — "prolonged idleness tends to wake up
            # quickly" (§3.2).
            credit = min(now - cpu.idle_since, full_period)
            if credit < self.MIN_USEFUL_NS:
                return None
            return (credit, entry.capacity)
        if not rq.sched_idle_only():
            return None
        state, since = self.kernel.vcpu_state(c)
        if state == VCPU_ACTIVE:
            age = now - since
            if age > 2 * full_period:
                # No recent preemption observed on this vCPU: the phase
                # estimate is stale, not expired — assume half a period.
                remaining = full_period * 0.5
            else:
                remaining = full_period - age
            if remaining < self.MIN_USEFUL_NS:
                return None
            # Mid-window actives are less predictable than a vCPU about to
            # start a fresh active period; discount them.
            return (remaining * 0.6, entry.capacity)
        if entry.latency_ns <= 0:
            return None
        wait = max(0.0, entry.latency_ns - (now - since))
        if wait > self.MAX_WAIT_NS:
            return None
        usable = full_period - wait
        if usable < self.MIN_USEFUL_NS:
            return None
        return (usable, entry.capacity)

    # ------------------------------------------------------------------
    # Activity-aware protocol (Figure 9)
    # ------------------------------------------------------------------
    #: How often the source re-checks whether the target became active.
    PULL_POLL_NS = 100 * USEC
    #: Give up if the pull has not completed by then (late pull — the task
    #: has stalled anyway, so migrating buys nothing).
    ABANDON_NS = 3 * MSEC

    def _migrate_activity_aware(self, task: Task, src, dst) -> None:
        # Step 1: interrupt the target; it wakes and spins for the pull.
        dst.pull_pending = True
        if dst.halted:
            dst.halted = False
            dst.vcpu.kick()
        deadline = self.kernel.now() + self.ABANDON_NS
        self.kernel.engine.call_in(self.IPI_DELAY_NS, self._try_pull,
                                   task, src, dst, deadline)

    def _try_pull(self, task: Task, src, dst, deadline: int) -> None:
        now = self.kernel.now()
        if src.current is not task or not src.vcpu.active:
            self._abort(task, src, dst)
            return
        if not dst.vcpu.active:
            if now >= deadline:
                self._abort(task, src, dst)
            else:
                self.kernel.engine.call_in(self.PULL_POLL_NS, self._try_pull,
                                           task, src, dst, deadline)
            return
        # Step 3: the stopper thread detaches and attaches the task.
        self.kernel.engine.call_in(self.STOPPER_DELAY_NS, self._complete,
                                   task, src, dst)

    def _abort(self, task: Task, src, dst) -> None:
        # Abandoned pulls are cheap and self-limiting (Figure 9); only the
        # quality of *completed* migrations feeds the success signal.
        self.aborted += 1
        self.kernel.stats.ivh_aborted += 1
        self._release_target(dst)

    def _release_target(self, dst) -> None:
        dst.pull_pending = False
        if dst.current is None and dst.rq.nr_running() == 0 and not dst.halted:
            dst._go_idle(self.kernel.now())

    def _complete(self, task: Task, src, dst) -> None:
        # Abandon if the task already stalled (source preempted) or moved.
        if src.current is not task or not src.vcpu.active:
            self._abort(task, src, dst)
            return
        moved = src.take_current()
        if moved is not task:
            self._abort(task, src, dst)
            return
        dst.pull_pending = False
        now = self.kernel.now()
        task.state = TASK_RUNNABLE
        task.last_wake_time = now
        task.last_migration_time = now
        dst.rq.enqueue(task)
        task.stats.migrations += 1
        self.kernel.stats.ivh_migrations += 1
        self.migrations += 1
        # Audit the migration: it only counts as a success if the task
        # actually makes progress on the target (a completed pull that
        # lands on a vCPU that immediately stalls is still a failure of
        # the prediction, and on erratic hosts that is the common case).
        wall0 = task.stats.wall_running
        self.kernel.engine.call_in(self.AUDIT_NS, self._audit, task, wall0)
        # Start the task on the target before the source's new-idle balance
        # runs, or the source would immediately steal it back.
        self.kernel._notify_cpu(dst, task, src.index, count_ipi=False)
        src._dispatch()

    #: Audit window and the progress required within it: a well-predicted
    #: landing runs near-continuously on the target.
    AUDIT_NS = 2 * MSEC
    AUDIT_MIN_PROGRESS_NS = int(1.6 * MSEC)

    def _audit(self, task: Task, wall0: int) -> None:
        progressed = task.stats.wall_running - wall0
        if task.state not in (TASK_RUNNING, TASK_RUNNABLE):
            # The task finished or blocked voluntarily: any progress at all
            # means the landing was good (it ran to its own completion).
            good = progressed > 0
        else:
            good = progressed >= self.AUDIT_MIN_PROGRESS_NS
        self._success_ema += 0.08 * ((1.0 if good else 0.0) - self._success_ema)

    # ------------------------------------------------------------------
    # Activity-unaware strawman (Table 4)
    # ------------------------------------------------------------------
    def _migrate_blind(self, task: Task, src, dst) -> None:
        moved = src.take_current()
        if moved is not task:
            return
        task.state = TASK_RUNNABLE
        task.last_wake_time = self.kernel.now()
        dst.rq.enqueue(task)
        task.stats.migrations += 1
        self.kernel.stats.ivh_migrations += 1
        self.migrations += 1
        src._dispatch()
        self.kernel._notify_cpu(dst, task, src.index, count_ipi=False)
