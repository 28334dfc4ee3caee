"""The host machine: topology + host scheduler + speed dynamics.

One :class:`Machine` owns the hardware topology, a host runqueue per
hardware thread, the SMT/DVFS speed dynamics, and the placement policy for
unpinned entities (least-loaded wakeup placement plus a periodic rebalance,
standing in for the host kernel's load balancer in the free-scheduling
multi-tenant experiments of §5.8).

Experiments manufacture vCPU performance features exactly the way the paper
does (§5.1):

* capacity — bandwidth quota/period on a vCPU, or a high-weight
  :class:`~repro.hypervisor.entity.HostTask` stressing the core;
* activity/latency — the co-runner slice (``set_slice``) or the bandwidth
  period length;
* topology — pinning maps (stacking = two vCPUs pinned to one thread).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.cache import CacheModel
from repro.hw.speed import SpeedConfig
from repro.hw.topology import Core, HostTopology, HwThread
from repro.hypervisor.bandwidth import BandwidthController
from repro.hypervisor.entity import (
    ENTITY_BLOCKED,
    ENTITY_QUEUED,
    ENTITY_RUNNING,
    ENTITY_THROTTLED,
    HostEntity,
    HostTask,
    NICE0_WEIGHT,
)
from repro.hypervisor.runqueue import HostRunqueue
from repro.hypervisor.vcpu import VCpuThread, VM
from repro.sim.engine import Engine, MSEC
from repro.sim.tracing import Tracer


class Machine:
    """Simulated physical host running VMs under a KVM-like scheduler."""

    def __init__(
        self,
        engine: Engine,
        topology: HostTopology,
        speed: Optional[SpeedConfig] = None,
        cache: Optional[CacheModel] = None,
        tracer: Optional[Tracer] = None,
        host_slice_ns: int = 4 * MSEC,
        wakeup_gran_ns: Optional[int] = 1 * MSEC,
        balance_interval_ns: int = 4 * MSEC,
    ):
        """``wakeup_gran_ns`` controls host wakeup preemption: the default
        (1 ms) lets a long-sleeping vCPU preempt a co-runner quickly, like
        stock CFS; pass ``None`` to disable it, which is how the paper's
        controlled experiments pin vCPU latency to the co-runner slice."""
        self.engine = engine
        self.topology = topology
        self.speed = speed or SpeedConfig()
        self.cache = cache or CacheModel()
        self.tracer = tracer or Tracer(enabled=False)
        self.balance_interval_ns = balance_interval_ns
        self.runqueues: List[HostRunqueue] = [
            HostRunqueue(self, t, slice_ns=host_slice_ns, wakeup_gran_ns=wakeup_gran_ns)
            for t in topology.threads
        ]
        self.vms: List[VM] = []
        self.host_tasks: List[HostTask] = []
        self._core_warm: Dict[int, bool] = {c.index: False for c in topology.cores}
        self._core_ramp_event: Dict[int, object] = {}
        self._has_unpinned = False
        self._balance_event = None
        # Priority lanes fix the same-instant order of the balance and
        # DVFS timers, however often they are cancelled and re-armed.
        self._balance_lane = engine.alloc_lane()
        self._core_lane: Dict[int, int] = {
            c.index: engine.alloc_lane() for c in topology.cores}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def new_vm(
        self,
        name: str,
        n_vcpus: int,
        pinned_map: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
        weight: int = NICE0_WEIGHT,
    ) -> VM:
        """Create a VM with ``n_vcpus`` vCPU threads.

        ``pinned_map[i]`` gives the allowed hardware-thread indices of vCPU
        ``i`` (a 1-tuple pins it; None leaves it free — the host places it).
        """
        vm = VM(self, name)
        for i in range(n_vcpus):
            pins = pinned_map[i] if pinned_map is not None else None
            vcpu = VCpuThread(vm, i, weight=weight, pinned=pins)
            vm.vcpus.append(vcpu)
            self._register(vcpu)
        self.vms.append(vm)
        return vm

    def add_host_task(
        self,
        name: str,
        weight: int = NICE0_WEIGHT,
        pinned: Optional[Tuple[int, ...]] = None,
        duty_on_ns: Optional[int] = None,
        duty_off_ns: Optional[int] = None,
        start: bool = True,
        phase_ns: int = 0,
    ) -> HostTask:
        """Add a host-side stress task (contention generator).

        ``phase_ns`` delays the first wake, so a duty-cycling task can be
        phase-locked to an arbitrary grid origin (the antagonist scenarios
        align theirs with the guest tick or the vcap window schedule).
        """
        task = HostTask(name, weight=weight, pinned=pinned,
                        duty_on_ns=duty_on_ns, duty_off_ns=duty_off_ns)
        self.host_tasks.append(task)
        self._register(task)
        if start:
            first = (self._duty_on if task.duty_on_ns is not None
                     else self.wake_entity)
            if phase_ns > 0:
                self.engine.call_in(phase_ns, first, task)
            else:
                first(task)
        return task

    def remove_host_task(self, task: HostTask) -> None:
        """Stop a stress task permanently (phase changes in §5.7/§5.8)."""
        task.duty_on_ns = None  # stop any duty cycling from rescheduling
        self.block_entity(task)

    def set_bandwidth(self, entity: HostEntity, quota_ns: Optional[int],
                      period_ns: int = 10 * MSEC, phase_ns: int = 0) -> None:
        """Apply or change CPU bandwidth control on an entity.

        ``quota_ns=None`` removes the controller.
        """
        if quota_ns is None:
            if entity.bandwidth is not None:
                entity.bandwidth.cancel()
                entity.bandwidth = None
            return
        if entity.bandwidth is not None:
            entity.bandwidth.set_limits(quota_ns, period_ns)
            return
        ctl = BandwidthController(self.engine, quota_ns, period_ns, phase_ns)
        ctl.owner = entity
        entity.bandwidth = ctl

    def set_slice(self, thread_index: int, slice_ns: int) -> None:
        """Tune the host slice quantum of one hardware thread."""
        self.runqueues[thread_index].set_slice(slice_ns)

    def _register(self, entity: HostEntity) -> None:
        if entity.pinned is None:
            self._has_unpinned = True
            self._start_host_balance()
        else:
            for idx in entity.pinned:
                if not 0 <= idx < len(self.runqueues):
                    raise ValueError(f"pin target {idx} out of range for {entity}")
            # Home the entity on its first allowed thread so bandwidth
            # refreshes have a runqueue to talk to before the first wake.
            entity.rq = self.runqueues[entity.pinned[0]]

    def repin(self, entity: HostEntity, pinned: Optional[Tuple[int, ...]]) -> None:
        """Change an entity's CPU affinity at runtime (VM reconfiguration,
        §5.7).  A running or queued entity is moved to an allowed thread."""
        if pinned is not None:
            for idx in pinned:
                if not 0 <= idx < len(self.runqueues):
                    raise ValueError(
                        f"repin target {idx} out of range for {entity}")
        entity.pinned = tuple(pinned) if pinned is not None else None
        if entity.pinned is None:
            self._has_unpinned = True
            self._start_host_balance()
        rq = entity.rq
        on_allowed = (entity.pinned is None
                      or (rq is not None and rq.thread.index in entity.pinned))
        if entity.state == ENTITY_RUNNING and not on_allowed:
            rq._deschedule_current(requeue=False)
            entity.state = ENTITY_QUEUED
            rq._dispatch()
            if rq.current is None:
                self.on_thread_busy_changed(rq.thread)
            target = self._choose_runqueue(entity)
            entity.end_wait(self.engine.now)
            target.enqueue(entity)
        elif entity.state == ENTITY_QUEUED and not on_allowed:
            rq.steal_waiting(entity)
            target = self._choose_runqueue(entity)
            target.enqueue(entity)
        elif entity.state in (ENTITY_BLOCKED, ENTITY_THROTTLED):
            if not on_allowed and entity.pinned is not None:
                entity.rq = self.runqueues[entity.pinned[0]]

    # ------------------------------------------------------------------
    # Wake / block
    # ------------------------------------------------------------------
    def wake_entity(self, entity: HostEntity) -> None:
        if entity.state in (ENTITY_RUNNING, ENTITY_QUEUED):
            entity.wants_cpu = True
            return
        entity.wants_cpu = True
        if entity.state == ENTITY_THROTTLED:
            return  # refresh will enqueue it
        if entity.bandwidth is not None and entity.bandwidth.exhausted():
            rq = entity.rq or self._choose_runqueue(entity)
            entity.rq = rq
            entity.state = ENTITY_THROTTLED
            entity.begin_wait(self.engine.now)
            return
        rq = self._choose_runqueue(entity)
        rq.enqueue(entity)

    def block_entity(self, entity: HostEntity) -> None:
        if entity.state == ENTITY_BLOCKED:
            entity.wants_cpu = False
            return
        rq = entity.rq
        if rq is None:
            entity.wants_cpu = False
            entity.state = ENTITY_BLOCKED
            return
        rq.block_entity(entity)

    def _choose_runqueue(self, entity: HostEntity) -> HostRunqueue:
        """Wakeup placement: least-loaded allowed hardware thread."""
        if entity.pinned is not None:
            if len(entity.pinned) == 1:
                return self.runqueues[entity.pinned[0]]
            candidates = [self.runqueues[i] for i in entity.pinned]
        else:
            candidates = self.runqueues
        return min(candidates, key=lambda rq: (rq.nr_runnable(), rq.thread.index))

    # ------------------------------------------------------------------
    # Host load balancing (unpinned entities, §5.8)
    # ------------------------------------------------------------------
    def _start_host_balance(self) -> None:
        """Begin the periodic balance chain (no-op once it is running)."""
        if self._balance_event is None:
            self._balance_event = self.engine.call_in(
                self.balance_interval_ns, self._host_balance,
                prio=self._balance_lane)

    def _host_balance(self) -> None:
        self._balance_event = None
        idle = [rq for rq in self.runqueues if rq.is_idle()]
        for rq in idle:
            busiest = max(self.runqueues, key=lambda r: len(r.waiting))
            if not busiest.waiting:
                break
            movable = [e for e in busiest.waiting
                       if e.pinned is None or rq.thread.index in e.pinned]
            if not movable:
                continue
            victim = min(movable, key=lambda e: e.vruntime)
            busiest.steal_waiting(victim)
            victim.vruntime += rq.min_vruntime - busiest.min_vruntime
            rq.enqueue(victim)
        self._start_host_balance()

    # ------------------------------------------------------------------
    # Speed dynamics (SMT contention + DVFS ramp)
    # ------------------------------------------------------------------
    def rate_of(self, thread: HwThread) -> float:
        """Current execution-speed factor of a hardware thread."""
        sibling = thread.sibling()
        sibling_busy = sibling is not None and sibling.runqueue.current is not None
        warm = self._core_warm[thread.core.index] or not self.speed.dvfs_enabled
        return self.speed.factor(sibling_busy, warm)

    def on_thread_busy_changed(self, thread: HwThread) -> float:
        """Called by a runqueue when it starts/stops running an entity.

        Updates DVFS state, notifies the SMT sibling's running entity that
        its rate changed, and returns the (new) rate of ``thread``.
        """
        self._update_dvfs(thread.core)
        sibling = thread.sibling()
        if sibling is not None:
            cur = sibling.runqueue.current
            if cur is not None:
                cur.on_rate_change(self.engine.now, self.rate_of(sibling))
        return self.rate_of(thread)

    def _core_busy(self, core: Core) -> bool:
        return any(t.runqueue.current is not None for t in core.threads)

    def _update_dvfs(self, core: Core) -> None:
        """Restart the ramp (idle -> busy) or cooldown (busy -> idle) timer
        whenever the core's busy state disagrees with its clock state."""
        if not self.speed.dvfs_enabled:
            return
        idx = core.index
        pending = self._core_ramp_event.get(idx)
        if pending is not None:
            pending.cancel()
            self._core_ramp_event[idx] = None
        busy = self._core_busy(core)
        if busy == self._core_warm[idx]:
            return
        delay = (self.speed.dvfs_ramp_ns if busy
                 else self.speed.dvfs_cooldown_ns)
        self._core_ramp_event[idx] = self.engine.call_in(
            delay, self._dvfs_transition, core, busy,
            prio=self._core_lane[idx])

    def _dvfs_transition(self, core: Core, warm: bool) -> None:
        self._core_ramp_event[core.index] = None
        if warm and not self._core_busy(core):
            return  # went idle before finishing the ramp
        if not warm and self._core_busy(core):
            return  # became busy again before cooling down
        self._core_warm[core.index] = warm
        for t in core.threads:
            cur = t.runqueue.current
            if cur is not None:
                cur.on_rate_change(self.engine.now, self.rate_of(t))

    # ------------------------------------------------------------------
    # Host task duty cycling
    # ------------------------------------------------------------------
    def _duty_on(self, task: HostTask) -> None:
        if task.duty_on_ns is None:
            return
        self.wake_entity(task)
        self.engine.call_in(task.duty_on_ns, self._duty_off, task)

    def _duty_off(self, task: HostTask) -> None:
        if task.duty_on_ns is None:
            return
        self.block_entity(task)
        self.engine.call_in(task.duty_off_ns, self._duty_on, task)
