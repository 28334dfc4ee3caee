"""Per-vCPU guest execution engine.

A :class:`GuestCpu` binds one guest CFS runqueue to one hypervisor vCPU
thread and integrates task work over time: while the vCPU is host-active,
the current task's remaining work shrinks at the hardware thread's speed
factor; host preemptions freeze progress (the *stalled running task* of
§2.3); rate changes (SMT sibling activity, DVFS) reschedule the completion
event.

The guest tick fires every ``tick_ns`` **only while the vCPU is active** —
when the hypervisor preempts the vCPU the pending tick is delivered on
resume, which is exactly the mechanism vact uses to observe steal-time
jumps (§3.1).  Every tick is one event on the engine heap, armed in a
per-CPU negative priority "lane" so its ordering against same-instant
events never depends on when it was (re-)armed.
"""

from __future__ import annotations

from typing import Optional

from repro.guest.runqueue import CfsRunqueue
from repro.guest.task import TASK_RUNNABLE, TASK_RUNNING, Task

#: Work-remainder below which a segment counts as complete (float dust).
_WORK_EPSILON = 1e-6


class GuestCpu:
    """One guest CPU: runqueue + dispatcher + tick machinery."""

    def __init__(self, kernel, vcpu, index: int):
        self.kernel = kernel
        self.engine = kernel.engine
        self.vcpu = vcpu
        self.index = index
        vcpu.guest_cpu = self
        if kernel.config.scheduler == "eevdf":
            from repro.guest.eevdf import EevdfRunqueue
            self.rq = EevdfRunqueue(self)
        else:
            self.rq = CfsRunqueue(self)
        self.current: Optional[Task] = None

        # --- execution-rate integration ---------------------------------
        self.rate = 0.0
        self._seg_update = 0
        self._seg_event = None

        # --- idle state ---------------------------------------------------
        self.halted = True
        self.idle_since = 0

        # --- tick state ----------------------------------------------------
        # Stagger tick phases across CPUs like real per-CPU timers.
        self._tick_due = (index * 97_000) % kernel.config.tick_ns
        self._tick_event = None
        self.last_tick_time = 0
        # Same-instant ordering lane for this CPU's tick events.
        self._tick_lane = self.engine.alloc_lane()

        # --- vact kernel-side instrumentation ------------------------------
        self.last_heartbeat = -(10 ** 12)
        self.active_since_est = 0
        self.tick_steal_last = 0
        self.preempt_count = 0
        self.steal_graze_count = 0

        # --- default CFS capacity estimate (steal-based, §5.3) -------------
        # The estimate itself is ``kernel.cfs_capacity[index]``.
        self.steal_frac_avg = 0.0
        self._cap_touch = 0

        # --- balancing bookkeeping -----------------------------------------
        self.next_balance = kernel.config.balance_interval_ns * (index + 1)
        self.push_target: Optional[int] = None  # active-balance request
        self.balance_failed = 0        # failed balance attempts against us
        self.next_active_push = 0      # cooldown after an active push
        #: While True the idle loop spins instead of halting (ivh pre-wake:
        #: the target vCPU polls for the pull request, Figure 9).
        self.pull_pending = False
        #: Re-entrancy guard: set while the dispatcher or action interpreter
        #: runs on this CPU.  Wake-ups that land here meanwhile only enqueue;
        #: the active scheduling pass picks them up (interrupt-disabled
        #: critical section semantics).
        self._in_sched = False

    # ------------------------------------------------------------------
    # Host-side callbacks (from VCpuThread)
    # ------------------------------------------------------------------
    def host_resumed(self, now: int, rate: float) -> None:
        self.rate = rate
        self._seg_update = now
        self.halted = False
        # Collapse overdue ticks to the resume instant: tick instants that
        # fell inside the inactive window do not happen.
        due = max(now, self._tick_due)
        self._tick_due = due
        ev = self._tick_event
        if ev is not None and not (ev.active and ev.time == due):
            ev.cancel()
            ev = None
        if ev is None:
            # Otherwise the event kept across the preemption already sits
            # at the right instant (and lane): reuse it, zero heap ops.
            self._tick_event = self.engine.call_at(
                due, self._tick, prio=self._tick_lane)
        if self.current is None:
            self._dispatch()
        else:
            self._arm_segment()

    def host_preempted(self, now: int) -> None:
        self._integrate(now)
        self.rate = 0.0
        if self._seg_event is not None:
            self._seg_event.cancel()
            self._seg_event = None
        # The tick event is kept across the preemption: a quick resume with
        # an unchanged due reuses it as-is; if it fires while the vCPU is
        # inactive it is a no-op.

    def host_rate_changed(self, now: int, rate: float) -> None:
        if rate == self.rate:
            # Re-arm elision: the completion estimate armed for the current
            # segment is still exact, so skip the integrate/cancel/re-push
            # churn entirely (SMT-sibling and DVFS notifications frequently
            # re-announce an unchanged rate).
            return
        self._integrate(now)
        self.rate = rate
        self._arm_segment()

    # ------------------------------------------------------------------
    # Work integration
    # ------------------------------------------------------------------
    def _integrate(self, now: int) -> None:
        """Charge elapsed wall time to the current task."""
        task = self.current
        delta = now - self._seg_update
        self._seg_update = now
        if task is None or delta <= 0 or self.rate <= 0:
            return
        work = delta * self.rate
        task.pending_work -= work
        task.stats.work_done += work
        task.stats.wall_running += delta
        task.slice_ran += delta
        self.rq.charge_vruntime(task, delta)
        task.pelt.update(now, True)

    def _arm_segment(self) -> None:
        ev = self._seg_event
        task = self.current
        if task is None or self.rate <= 0:
            if ev is not None:
                ev.cancel()
                self._seg_event = None
            return
        remaining = task.pending_work
        if remaining < 0.0:
            remaining = 0.0
        due = self.engine.now + int(remaining / self.rate) + 1
        if ev is not None:
            if not ev.cancelled and ev.time == due:
                return  # same completion instant: keep the armed event
            ev.cancel()
        self._seg_event = self.engine.call_at(due, self._segment_done)

    def _segment_done(self) -> None:
        self._seg_event = None
        now = self.engine.now
        self._integrate(now)
        task = self.current
        if task is None:
            return
        if task.pending_work > _WORK_EPSILON:
            self._arm_segment()  # rate changed under us; not actually done
            return
        task.pending_work = 0
        task.needs_advance = True
        # Advance the generator in the task's own context: it stays current
        # (unlock/send side effects happen "in kernel mode" of this task).
        self._in_sched = True
        try:
            runnable = self.kernel.advance_task(task)
        finally:
            self._in_sched = False
        if runnable:
            if self.current is not task:
                # The interpreter's side effects let a balancer steal the
                # task mid-advance; it is in the balancer's hands now.
                task.state = TASK_RUNNABLE
                if self.current is None:
                    self._dispatch()
                return
            # Next action is more computation; keep running without a
            # context switch.
            task.state = TASK_RUNNING
            self._seg_update = now
            self._arm_segment()
            if self.rq.normal:
                self._post_advance_preempt_check(task)
        else:
            self.current = None
            self._dispatch()

    def _post_advance_preempt_check(self, task: Task) -> None:
        """Handle wake-ups that arrived while the interpreter ran.

        Only a queued normal task can preempt, so callers skip the check
        while ``rq.normal`` is empty.
        """
        if task is not self.current:
            return
        rq = self.rq
        if task.is_idle_policy and rq.normal:
            self.resched()
            return
        gran = self.kernel.config.wakeup_granularity_ns
        for queued in rq.normal:
            if queued.vruntime + gran < task.vruntime:
                self.resched()
                return

    # ------------------------------------------------------------------
    # Dispatch / context switching
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Pick and start the next runnable task (or go idle)."""
        if self._in_sched:
            return  # the active scheduling pass will see the new work
        now = self.engine.now
        tried_newidle = False
        self._in_sched = True
        try:
            self._dispatch_loop(now, tried_newidle)
        finally:
            self._in_sched = False

    def _dispatch_loop(self, now: int, tried_newidle: bool) -> None:
        while True:
            nxt = self.rq.pick_next()
            if nxt is None:
                if not tried_newidle:
                    tried_newidle = True
                    if self.kernel.balancer.newidle(self, now):
                        continue
                self._go_idle(now)
                return
            if nxt.needs_advance and not self.kernel.advance_task(nxt):
                continue  # task blocked/slept/exited during advance
            self.current = nxt
            nxt.state = TASK_RUNNING
            nxt.cpu = self
            nxt.prev_cpu_index = self.index
            nxt.slice_ran = 0
            nxt.run_started_at = now
            nxt.stats.dispatches += 1
            nxt.stats.wait_ns += max(0, now - nxt.last_wake_time)
            nxt.last_wake_time = now
            nxt.pelt.update(now, False)  # close the waiting interval
            self._seg_update = now
            self.kernel.tracer.record(now, "guest.run", self.index, nxt.name)
            self._arm_segment()
            return

    def _go_idle(self, now: int) -> None:
        self.current = None
        self.idle_since = now
        self.kernel.tracer.record(now, "guest.idle", self.index)
        if self.pull_pending:
            return  # spin in the idle loop awaiting an ivh pull
        if not self.halted:
            self.halted = True
            self.vcpu.halt()

    def put_current_back(self) -> Optional[Task]:
        """Stop the current task and requeue it (preemption)."""
        task = self.current
        if task is None:
            return None
        now = self.engine.now
        self._integrate(now)
        if self._seg_event is not None:
            self._seg_event.cancel()
            self._seg_event = None
        self.current = None
        task.last_wake_time = now
        self.rq.enqueue(task)
        return task

    def take_current(self) -> Optional[Task]:
        """Stop and detach the current task (for migration elsewhere)."""
        task = self.current
        if task is None:
            return None
        now = self.engine.now
        self._integrate(now)
        if self._seg_event is not None:
            self._seg_event.cancel()
            self._seg_event = None
        self.current = None
        task.cpu = None
        return task

    def resched(self) -> None:
        """Preempt the current task and pick again."""
        if self.current is not None:
            self.put_current_back()
        self._dispatch()

    def maybe_start(self) -> None:
        """Kick the dispatcher if the CPU is sitting idle with work queued."""
        if self.current is None and self.rq.nr_running() > 0:
            if self.halted:
                # The vCPU is halted; the host will call host_resumed which
                # dispatches.  (kernel.wake kicks the vCPU.)
                return
            self._dispatch()

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._tick_event = None
        if not self.vcpu.active:
            # Fired while the vCPU was preempted (the event is kept across
            # preemptions for reuse): the tick stays due and is delivered
            # on resume.
            return
        now = self.engine.now
        self._tick_due = now + self.kernel.config.tick_ns
        self._tick_event = self.engine.call_at(
            self._tick_due, self._tick, prio=self._tick_lane)
        self._integrate(now)
        self.kernel.on_tick(self, now)
        self.last_tick_time = now
        self._check_slice_preemption(now)

    def _check_slice_preemption(self, now: int) -> None:
        task = self.current
        if task is None:
            return
        rq = self.rq
        if task.is_idle_policy and rq.normal:
            self.resched()
            return
        nr = len(rq.normal) + len(rq.idle_band) + 1
        if nr <= 1:
            return
        if task.slice_ran >= self.kernel.config.slice_for(nr):
            self.resched()

    def __repr__(self) -> str:
        return f"<GuestCpu {self.index} of {self.kernel.vm.name}>"
