"""The guest kernel: task lifecycle, wake path, action interpreter, vact
kernel instrumentation, and the hook points vSched attaches to.

One :class:`GuestKernel` manages one VM.  It owns the guest CPUs, the
schedule domains, the wake placer and load balancer, and interprets task
actions (compute, sleep, channel I/O, locking, barriers).

vSched integration happens through three replaceable seams, matching the
paper's implementation strategy (BPF hooks on CFS paths plus a kernel
module, §4):

* ``select_rq_hook(task, waker_cpu)`` — consulted before default wake
  placement (bvs);
* ``tick_hook(cpu, now)`` — called from the scheduler tick (ivh);
* ``capacity_provider`` — a per-CPU list of capacities that replaces the
  steal-based CFS capacity estimate (vcap's probed EMA capacity, kept by
  the vSched module).

The vact *kernel portion* (heartbeat timestamps, steal-jump preemption
counting, the vCPU-state query function) lives here because the paper puts
it in the kernel; the user-space part is in :mod:`repro.probers.vact`.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.guest.balance import LoadBalancer
from repro.guest.cgroup import TaskGroup
from repro.guest.config import GuestConfig
from repro.guest.cpu import GuestCpu
from repro.guest.select import WakePlacer
from repro.guest.stats import KernelStats
from repro.guest.sync import Barrier, Channel, Mutex
from repro.guest.task import (
    BarrierWait,
    Lock,
    MigrateTo,
    Policy,
    Recv,
    Run,
    Send,
    Sleep,
    Task,
    TaskState,
    Unlock,
    YieldCpu,
)
from repro.hw.topology import Distance


class VCpuHostState(enum.Enum):
    """Guest-observable host state of a vCPU (vact's state query)."""

    ACTIVE = "active"
    INACTIVE = "inactive"


class GuestKernel:
    """Scheduler and task runtime of one VM."""

    def __init__(self, vm, config: Optional[GuestConfig] = None):
        self.vm = vm
        vm.kernel = self
        self.machine = vm.machine
        self.engine = self.machine.engine
        self.config = config or GuestConfig()
        self.tracer = self.machine.tracer
        self.cpus: List[GuestCpu] = [
            GuestCpu(self, v, i) for i, v in enumerate(vm.vcpus)
        ]
        from repro.guest.domains import SchedDomains

        self.domains = SchedDomains.flat(len(self.cpus))
        self.placer = WakePlacer(self)
        self.balancer = LoadBalancer(self)
        self.stats = KernelStats()
        self.tasks: List[Task] = []
        #: The last tid handed out (``Task.__init__`` takes the next).
        self.last_tid = 0
        self.root_group = TaskGroup("root")
        self.groups: List[TaskGroup] = [self.root_group]
        #: Tasks queued (not running) on all runqueues, kept by the
        #: runqueues: the ``rd->overload`` analogue the balancer reads
        #: before it scans for a busiest CPU.
        self.nr_queued = 0
        #: The default steal-based capacity estimate of every vCPU.
        self.cfs_capacity: List[float] = [1024.0] * len(self.cpus)

        # --- vSched hook points ------------------------------------------
        self.select_rq_hook: Optional[Callable] = None
        self.tick_hook: Optional[Callable] = None
        self.capacity_provider: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Time & misc
    # ------------------------------------------------------------------
    def now(self) -> int:
        """Guest sched_clock: wall nanoseconds (TSC keeps counting)."""
        return self.engine.now

    def new_group(self, name: str) -> TaskGroup:
        g = TaskGroup(name)
        self.groups.append(g)
        return g

    def steal_of(self, cpu_index: int) -> int:
        """Guest-visible steal time of a vCPU (/proc/stat steal)."""
        return self.vm.vcpus[cpu_index].steal_ns(self.engine.now)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def spawn(
        self,
        factory,
        name: str,
        policy: Policy = Policy.NORMAL,
        weight: Optional[int] = None,
        group: Optional[TaskGroup] = None,
        cpu: Optional[int] = None,
        allowed=None,
        initial_util: float = 0.0,
        latency_sensitive: bool = False,
    ) -> Task:
        """Create a task and make it runnable."""
        task = Task(self, name, factory, policy=policy, weight=weight,
                    allowed=allowed, latency_sensitive=latency_sensitive)
        (group or self.root_group).add(task)
        task.pelt.set_util(initial_util, self.engine.now)
        task.exit_callbacks = []
        self.tasks.append(task)
        if cpu is not None:
            task.prev_cpu_index = cpu
        self.wake(task, waker_cpu=None, count_ipi=False, is_fork=(cpu is None))
        return task

    def on_exit(self, task: Task, callback: Callable) -> None:
        task.exit_callbacks.append(callback)

    def _exit_task(self, task: Task) -> None:
        task.state = TaskState.EXITED
        task.cpu = None
        if task.group is not None:
            task.group.remove(task)
        self.stats.task_exits += 1
        for cb in task.exit_callbacks:
            cb(task)

    # ------------------------------------------------------------------
    # Wake path
    # ------------------------------------------------------------------
    def wake(self, task: Task, waker_cpu: Optional[int] = None,
             count_ipi: bool = True, is_fork: bool = False) -> None:
        """Make ``task`` runnable and place it on a vCPU."""
        if task.state in (TaskState.RUNNABLE, TaskState.RUNNING, TaskState.EXITED):
            return
        now = self.engine.now
        task.pelt.update(now, False)  # decay over the sleep
        # A task rewoken with residual work (evicted/migrated mid-Run) must
        # finish that segment; only a completed action advances the body.
        task.needs_advance = task.pending_work <= 0

        target_idx: Optional[int] = None
        if self.select_rq_hook is not None:
            target_idx = self.select_rq_hook(task, waker_cpu)
        if target_idx is None:
            target_idx = self.placer.select(task, waker_cpu, is_fork=is_fork)
        target = self.cpus[target_idx]

        self.stats.wakeups += 1
        task.stats.wakeups += 1
        if target_idx != task.prev_cpu_index:
            self.stats.wake_migrations += 1
            task.stats.migrations += 1
            task.last_migration_time = now
        task.last_wake_time = now
        target.rq.enqueue(task)
        self._notify_cpu(target, task, waker_cpu, count_ipi)

    def _notify_cpu(self, target: GuestCpu, task: Task,
                    waker_cpu: Optional[int], count_ipi: bool) -> None:
        """Get the target vCPU to notice new work (kick / preempt)."""
        now = self.engine.now
        if target._in_sched:
            # The target is inside its scheduler (dispatch or interpreter);
            # the enqueued task will be seen when that pass finishes.
            return
        if target.current is None:
            if target.halted:
                if count_ipi:
                    self._account_ipi(waker_cpu, target, now)
                target.halted = False
                target.vcpu.kick()
            else:
                target.maybe_start()
            return
        cur = target.current
        if cur.is_idle_policy and not task.is_idle_policy:
            target.resched()
            return
        if (not task.is_idle_policy
                and task.vruntime + self.config.wakeup_granularity_ns < cur.vruntime):
            target.resched()

    def _account_ipi(self, waker_cpu: Optional[int], target: GuestCpu,
                     now: int) -> None:
        """Charge the interrupt needed to wake a halted vCPU.

        A recently-idled vCPU woken from within its own socket is reached
        via the polling fast path (no IPI, like TIF_POLLING_NRFLAG);
        everything else — deep idle, cross-socket wake-ups, device
        interrupts — costs one."""
        cross = False
        if waker_cpu is not None:
            waker_thread = self.vm.vcpus[waker_cpu].last_thread
            target_thread = target.vcpu.last_thread
            if waker_thread is not None and target_thread is not None:
                distance = self.machine.topology.distance(
                    waker_thread, target_thread)
                cross = distance == Distance.CROSS_SOCKET
        polling = (now - target.idle_since) <= self.config.polling_window_ns
        if cross or not polling:
            self.stats.ipis += 1
            if cross:
                self.stats.ipis_cross_socket += 1

    # ------------------------------------------------------------------
    # Action interpreter
    # ------------------------------------------------------------------
    def advance_task(self, task: Task) -> bool:
        """Drive the task's generator until it has work or blocks.

        Returns True when the task has ``pending_work`` to execute (caller
        runs it), False when it slept/blocked/exited (caller picks another
        task).  The task must not be on any runqueue when called.
        """
        now = self.engine.now
        # Charge any pending communication stall against the next Run.
        if task.pending_stall_from is not None:
            self._charge_stall(task, task.pending_stall_from)
            task.pending_stall_from = None

        while True:
            if task.spinning_on is not None:
                if self._spin_check(task):
                    task.spinning_on = None
                    task.spin_streak = 0
                else:
                    # Coalesce consecutive failed polls into one larger
                    # segment (1, 2, 4, ... polls, capped) so a long spin
                    # does not fire a completion event per poll.  The rate
                    # integration is linear, so the burned vCPU time is
                    # identical; only the poll instants are batched.
                    streak = task.spin_streak
                    task.spin_streak = streak + 1
                    polls = 1 << streak if streak < 6 else 64
                    cap = self.config.spin_coalesce_max
                    if polls > cap:
                        polls = cap
                    work = task.spin_poll_ns * polls
                    task.pending_work = float(work)
                    self.stats.spin_wait_ns += work
                    task.needs_advance = True
                    return True

            try:
                action = task.body.send(task.resume_value)
            except StopIteration:
                self._exit_task(task)
                return False
            task.resume_value = None

            if isinstance(action, Run):
                task.pending_work = float(action.work_ns) + task.extra_work
                task.extra_work = 0.0
                task.needs_advance = False
                if task.pending_work <= 0:
                    task.resume_value = None
                    continue
                return True

            if isinstance(action, Sleep):
                task.state = TaskState.SLEEPING
                task.cpu = None
                self.engine.call_in(action.duration_ns, self._timer_wake, task)
                return False

            if isinstance(action, Recv):
                if not self._do_recv(task, action.channel):
                    return False
                continue

            if isinstance(action, Send):
                if not self._do_send(task, action.channel, action.item):
                    return False
                continue

            if isinstance(action, Lock):
                if not self._do_lock(task, action.mutex):
                    return False
                continue

            if isinstance(action, Unlock):
                self._do_unlock(task, action.mutex)
                continue

            if isinstance(action, BarrierWait):
                if not self._do_barrier(task, action.barrier):
                    return False
                continue

            if isinstance(action, YieldCpu):
                # Approximate sched_yield: charge a context-switch worth of
                # work so the task reaches a preemption point.
                task.pending_work = 1000.0 + task.extra_work
                task.extra_work = 0.0
                task.needs_advance = True
                return True

            if isinstance(action, MigrateTo):
                dest = action.cpu_index
                if dest == task.prev_cpu_index:
                    continue
                task.state = TaskState.RUNNABLE
                task.stats.migrations += 1
                self.stats.wake_migrations += 1
                target = self.cpus[dest]
                target.rq.enqueue(task)
                task.last_wake_time = now
                self._notify_cpu(target, task, task.prev_cpu_index, True)
                return False

            raise TypeError(f"unknown action {action!r} from task {task.name}")

    # --- channels ------------------------------------------------------
    def _charge_stall(self, task: Task, producer_thread) -> None:
        my_thread = self.vm.vcpus[task.prev_cpu_index].last_thread
        if my_thread is None or producer_thread is None:
            return
        distance = self.machine.topology.distance(my_thread, producer_thread)
        stall = self.machine.cache.stall_cycles(distance, lines=task.pending_stall_lines)
        task.extra_work += stall
        task.stats.stall_ns += stall
        self.stats.stall_ns += stall

    def _do_recv(self, task: Task, ch: Channel) -> bool:
        if ch.items:
            item, producer_thread = ch.items.popleft()
            task.pending_stall_from = producer_thread
            task.pending_stall_lines = ch.lines
            self._charge_stall(task, producer_thread)
            task.pending_stall_from = None
            task.resume_value = item
            if ch.send_waiters:
                ptask, pitem = ch.send_waiters.popleft()
                ch.items.append((pitem, self._thread_of(ptask)))
                ch.total_sent += 1
                self.wake(ptask, waker_cpu=task.prev_cpu_index)
            return True
        ch.recv_waiters.append(task)
        task.state = TaskState.BLOCKED
        task.cpu = None
        return False

    def _do_send(self, task: Task, ch: Channel, item) -> bool:
        ch.total_sent += 1
        if ch.recv_waiters:
            consumer = ch.recv_waiters.popleft()
            consumer.resume_value = item
            consumer.pending_stall_from = self._thread_of(task)
            consumer.pending_stall_lines = ch.lines
            self.wake(consumer, waker_cpu=task.prev_cpu_index)
            return True
        if not ch.full():
            ch.items.append((item, self._thread_of(task)))
            return True
        ch.total_sent -= 1  # not actually delivered yet
        ch.send_waiters.append((task, item))
        task.state = TaskState.BLOCKED
        task.cpu = None
        return False

    def send_external(self, ch: Channel, item) -> None:
        """Inject an item from outside the VM (network arrival)."""
        if ch.recv_waiters:
            consumer = ch.recv_waiters.popleft()
            consumer.resume_value = item
            consumer.pending_stall_from = None
            ch.total_sent += 1
            self.wake(consumer, waker_cpu=None)
            return
        ch.items.append((item, None))
        ch.total_sent += 1

    def _thread_of(self, task: Task):
        return self.vm.vcpus[task.prev_cpu_index].last_thread

    # --- locks -----------------------------------------------------------
    def _do_lock(self, task: Task, m: Mutex) -> bool:
        if m.owner is None:
            m.owner = task
            return True
        m.contentions += 1
        if m.spin:
            task.spinning_on = ("mutex", m, 0)
            task.spin_streak = 0
            task.spin_poll_ns = m.spin_check_ns
            return True  # caller runs the spin poll as work
        m.waiters.append(task)
        task.state = TaskState.BLOCKED
        task.cpu = None
        return False

    def _do_unlock(self, task: Task, m: Mutex) -> None:
        if m.owner is not task:
            raise RuntimeError(f"{task.name} unlocking {m.name} it does not own")
        if m.waiters:
            nxt = m.waiters.popleft()
            m.owner = nxt
            self.wake(nxt, waker_cpu=task.prev_cpu_index)
        else:
            m.owner = None

    # --- barriers ----------------------------------------------------------
    def _do_barrier(self, task: Task, b: Barrier) -> bool:
        released = b.arrive()
        if released:
            waiters, b.waiters = b.waiters, []
            for w in waiters:
                w.resume_value = None
                if w.spinning_on is not None:
                    continue  # spinners notice the generation change
                self.wake(w, waker_cpu=task.prev_cpu_index)
            return True
        if b.spin:
            task.spinning_on = ("barrier", b, b.generation)
            task.spin_streak = 0
            task.spin_poll_ns = b.spin_check_ns
            return True
        b.waiters.append(task)
        task.state = TaskState.BLOCKED
        task.cpu = None
        return False

    def _spin_check(self, task: Task) -> bool:
        kind, obj, gen = task.spinning_on
        if kind == "mutex":
            if obj.owner is None:
                obj.owner = task
                return True
            return False
        if kind == "barrier":
            return obj.generation != gen
        raise ValueError(kind)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _timer_wake(self, task: Task) -> None:
        if task.state != TaskState.SLEEPING:
            return
        self.stats.timer_wakes += 1
        self.wake(task, waker_cpu=None)

    # ------------------------------------------------------------------
    # Migration helpers (balancer / vSched)
    # ------------------------------------------------------------------
    def migrate_queued(self, task: Task, src: GuestCpu, dst: GuestCpu,
                       reason: str = "lb") -> None:
        """Move a queued (not running) task between runqueues."""
        src.rq.dequeue(task)
        task.vruntime += dst.rq.min_vruntime - src.rq.min_vruntime
        task.extra_work += self.config.migration_cost_ns
        dst.rq.enqueue(task)
        task.stats.migrations += 1
        task.last_migration_time = self.engine.now
        if reason == "ivh":
            self.stats.ivh_migrations += 1
        else:
            self.stats.lb_migrations += 1
        if dst.halted:
            self._notify_cpu(dst, task, None, count_ipi=False)

    def active_balance(self, src: GuestCpu, dst: GuestCpu) -> None:
        """Actively migrate the running task of ``src`` to ``dst``."""
        task = src.take_current()
        if task is None:
            return
        task.state = TaskState.RUNNABLE
        self.stats.active_balance_migrations += 1
        task.stats.migrations += 1
        task.last_migration_time = self.engine.now
        src._dispatch()
        self.engine.call_in(self.config.migration_cost_ns,
                            self._finish_active_balance, task, dst)

    def _finish_active_balance(self, task: Task, dst: GuestCpu) -> None:
        if task.state != TaskState.RUNNABLE or task.cpu is not None:
            return  # something else picked it up meanwhile
        task.last_wake_time = self.engine.now
        dst.rq.enqueue(task)
        self._notify_cpu(dst, task, None, count_ipi=False)

    # ------------------------------------------------------------------
    # cpuset application (rwc)
    # ------------------------------------------------------------------
    def apply_cpuset(self, group: TaskGroup) -> None:
        """Evict the group's tasks from CPUs outside the (new) mask."""
        for task in list(group.tasks):
            if task.state == TaskState.RUNNABLE and task.cpu is not None:
                if not task.may_run_on(task.cpu.index):
                    src = task.cpu
                    src.rq.dequeue(task)
                    task.cpu = None
                    task.state = TaskState.SLEEPING  # transient; rewoken below
                    self.wake(task, waker_cpu=None, count_ipi=False)
            elif task.state == TaskState.RUNNING and task.cpu is not None:
                if not task.may_run_on(task.cpu.index):
                    src = task.cpu
                    moved = src.take_current()
                    if moved is not task:
                        continue
                    task.state = TaskState.SLEEPING
                    self.wake(task, waker_cpu=None, count_ipi=False)
                    src._dispatch()

    # ------------------------------------------------------------------
    # Scheduler tick (vact kernel instrumentation + hooks)
    # ------------------------------------------------------------------
    def on_tick(self, cpu: GuestCpu, now: int) -> None:
        """One scheduler tick: vact accounting, balancing, then the hook."""
        self.stats.ticks += 1
        cpu.last_heartbeat = now
        steal = cpu.vcpu.steal_ns(now)
        jump = steal - cpu.tick_steal_last
        cpu.tick_steal_last = steal
        if jump >= self.config.steal_jump_threshold_ns:
            cpu.preempt_count += 1
            cpu.active_since_est = now
        elif jump >= self.config.steal_graze_floor_ns:
            # Sub-threshold steal: filtered from preempt_count as noise,
            # but tallied so the hardened vact can tell "ran undisturbed"
            # from "was shaved every tick by sub-threshold slices".
            cpu.steal_graze_count += 1
        self._update_default_capacity(cpu, now, jump)
        if now >= cpu.next_balance:
            self.balancer.periodic(cpu, now)
        if self.tick_hook is not None:
            self.tick_hook(cpu, now)

    def _update_default_capacity(self, cpu: GuestCpu, now: int, steal_jump: int) -> None:
        """The stock (inaccurate) CFS capacity estimate (§5.3).

        Steal time is only observable while the vCPU is busy, so idle vCPUs
        drift back to looking like full-capacity CPUs — the staleness vcap
        fixes.
        """
        if cpu.current is None:
            return
        wall = max(1, now - cpu.last_tick_time)
        frac = min(1.0, max(0.0, steal_jump / wall))
        # PELT-style running average of the steal fraction (the
        # scale_rt_capacity analogue, ~32 ms half-life): one noisy tick
        # depresses the estimate for tens of milliseconds.
        decay = 0.5 ** (wall / self.config.cfs_capacity_halflife_ns)
        cpu.steal_frac_avg = cpu.steal_frac_avg * decay + frac * (1.0 - decay)
        self.cfs_capacity[cpu.index] = (1.0 - cpu.steal_frac_avg) * 1024.0
        cpu._cap_touch = now

    def capacity_of(self, cpu_index: int) -> float:
        """CFS capacity of a vCPU, by whichever estimator is installed.

        Reading has an observer effect under the default estimate: an idle
        vCPU's steal average decays over the time since it was last
        touched, and the read writes the decayed value back.  Two reads
        decay in two steps, which is not the same float as one, so which
        idle vCPUs the balancer and wake placer read, and when, is part of
        the reference output.
        """
        caps = self.capacity_provider
        if caps is not None:
            return caps[cpu_index]
        cpu = self.cpus[cpu_index]
        if cpu.current is None:
            idle_ns = self.engine.now - cpu._cap_touch
            if idle_ns > 0:
                half = self.config.cfs_capacity_idle_halflife_ns
                decay = 0.5 ** (idle_ns / half)
                cpu.steal_frac_avg *= decay
                self.cfs_capacity[cpu_index] = (1.0 - cpu.steal_frac_avg) * 1024.0
                cpu._cap_touch = self.engine.now
        return self.cfs_capacity[cpu_index]

    def capacity_floor(self) -> float:
        """A lower bound on ``capacity_of`` for every vCPU: the least value
        the installed estimator holds.

        Exact under a provider.  Under the default estimate a busy vCPU
        reads its stored value, and an idle one only decays its steal
        average when read, which can only raise its capacity.
        """
        caps = self.capacity_provider
        return min(caps if caps is not None else self.cfs_capacity)

    # ------------------------------------------------------------------
    # vCPU state query (the new kernel function of §4)
    # ------------------------------------------------------------------
    def vcpu_state(self, cpu_index: int):
        """Heartbeat-based host state of a vCPU, guest-observable only.

        Returns ``(state, since_ns)``.  Knows nothing the guest could not
        know: just the staleness of the per-CPU tick timestamp and the time
        of the last observed steal jump.
        """
        now = self.engine.now
        cpu = self.cpus[cpu_index]
        stale_after = self.config.heartbeat_stale_ticks * self.config.tick_ns
        if now - cpu.last_heartbeat > stale_after:
            return VCpuHostState.INACTIVE, cpu.last_heartbeat
        return VCpuHostState.ACTIVE, cpu.active_since_est
