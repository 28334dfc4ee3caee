"""Per-hardware-thread host runqueue (simplified host CFS).

Each hardware thread runs a weighted fair scheduler over host entities:
virtual runtime advances inversely to weight, the minimum-vruntime entity
runs next, and a running entity is preempted when its slice expires (the
``sched_min_granularity`` analogue) or when its bandwidth quota runs out.

Wakeup preemption is configurable per runqueue.  The paper's experiments
tune ``sched_wakeup_granularity`` so that a waking vCPU *waits* for the
co-runner's slice to end — that is our default (``wakeup_gran_ns=None``,
meaning never preempt on wakeup); passing a granularity enables the CFS
check ``new.vruntime + gran < cur.vruntime``.

All state transitions are accounted on the entity (run time, steal time),
which is what the guest-side probers observe.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hypervisor.entity import (
    ENTITY_BLOCKED,
    ENTITY_QUEUED,
    ENTITY_RUNNING,
    ENTITY_THROTTLED,
    HostEntity,
    NICE0_WEIGHT,
)
from repro.sim.engine import MSEC


class HostRunqueue:
    """Host scheduler state for one hardware thread."""

    def __init__(self, machine, thread, slice_ns: int = 4 * MSEC,
                 wakeup_gran_ns: Optional[int] = None):
        self.machine = machine
        self.engine = machine.engine
        self.thread = thread
        self.slice_ns = slice_ns
        self.wakeup_gran_ns = wakeup_gran_ns
        self.waiting: List[HostEntity] = []
        self.current: Optional[HostEntity] = None
        self.min_vruntime = 0
        self._slice_event = None
        self._throttle_event = None
        thread.runqueue = self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nr_runnable(self) -> int:
        """Entities running or waiting here."""
        return len(self.waiting) + (1 if self.current is not None else 0)

    def is_idle(self) -> bool:
        return self.current is None and not self.waiting

    # ------------------------------------------------------------------
    # Enqueue / dispatch
    # ------------------------------------------------------------------
    def enqueue(self, entity: HostEntity) -> None:
        """Make ``entity`` runnable on this hardware thread."""
        now = self.engine.now
        entity.rq = self
        entity.state = ENTITY_QUEUED
        if self.current is not None:
            self._checkpoint_current()
        # Sleeper fairness: a waking entity gets at most half a slice of
        # vruntime credit (GENTLE_FAIR_SLEEPERS).
        floor = self.min_vruntime - self.slice_ns // 2
        if entity.vruntime < floor:
            entity.vruntime = floor
        self.waiting.append(entity)
        entity.begin_wait(now)
        if self.current is None:
            self._dispatch()
            return
        # The current entity may have been dispatched alone; contention has
        # now appeared, so start its slice clock.
        if self._slice_event is None:
            self._slice_event = self.engine.call_in(self.slice_ns, self._slice_expired)
        if self.wakeup_gran_ns is not None:
            if entity.vruntime + self.wakeup_gran_ns < self.current.vruntime:
                self._deschedule_current(requeue=True)
                self._dispatch()

    def _pick_next(self) -> Optional[HostEntity]:
        waiting = self.waiting
        if not waiting:
            return None
        if len(waiting) == 1:
            return waiting.pop()
        best = min(waiting, key=lambda e: (e.vruntime, e.name))
        waiting.remove(best)
        return best

    def _dispatch(self) -> None:
        now = self.engine.now
        nxt = self._pick_next()
        if nxt is None:
            if self.current is None:
                self.machine.on_thread_busy_changed(self.thread)
            return
        nxt.end_wait(now)
        nxt.state = ENTITY_RUNNING
        self.current = nxt
        nxt.begin_run(now)
        if nxt.vruntime > self.min_vruntime:
            self.min_vruntime = nxt.vruntime
        # Arm the slice timer only when somebody is waiting behind us.
        if self.waiting:
            self._slice_event = self.engine.call_in(self.slice_ns, self._slice_expired)
        # Arm the bandwidth throttle timer.
        if nxt.bandwidth is not None:
            remaining = nxt.bandwidth.remaining()
            self._throttle_event = self.engine.call_in(remaining, self._throttle_fired)
        rate = self.machine.on_thread_busy_changed(self.thread)
        nxt.on_start_running(now, rate)
        self.machine.tracer.record(now, "host.run", self.thread.index, nxt.name)

    # ------------------------------------------------------------------
    # Runtime accounting
    # ------------------------------------------------------------------
    def _charge_current(self) -> int:
        """Charge the running interval so far; returns its duration."""
        cur = self.current
        delta = cur.end_run(self.engine.now)
        cur.vruntime += delta * NICE0_WEIGHT // cur.weight
        if cur.bandwidth is not None:
            cur.bandwidth.charge(delta)
        self._update_min_vruntime()
        return delta

    def _checkpoint_current(self) -> None:
        """Charge the running interval and immediately reopen it.

        Keeps vruntime and min_vruntime fresh so wakeup-time comparisons
        (sleeper floor, preemption check) see current values even when the
        running entity has not rescheduled for a long time.
        """
        self._charge_current()
        self.current.begin_run(self.engine.now)

    def _update_min_vruntime(self) -> None:
        """CFS rule: min_vruntime tracks min(curr, leftmost), monotonic."""
        floor = None
        if self.current is not None:
            floor = self.current.vruntime
        waiting = self.waiting
        if waiting:
            # A plain loop, not ``min()`` over a generator: this runs on
            # every host charge.
            w = waiting[0].vruntime
            for e in waiting:
                if e.vruntime < w:
                    w = e.vruntime
            if floor is None or w < floor:
                floor = w
        if floor is not None and floor > self.min_vruntime:
            self.min_vruntime = floor

    def _cancel_timers(self) -> None:
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None
        if self._throttle_event is not None:
            self._throttle_event.cancel()
            self._throttle_event = None

    def _deschedule_current(self, requeue: bool) -> HostEntity:
        """Take the current entity off the CPU; optionally requeue it."""
        now = self.engine.now
        cur = self.current
        self._charge_current()
        self._cancel_timers()
        self.current = None
        cur.on_stop_running(now)
        self.machine.tracer.record(now, "host.stop", self.thread.index, cur.name)
        if requeue:
            cur.state = ENTITY_QUEUED
            self.waiting.append(cur)
            cur.begin_wait(now)
        return cur

    # ------------------------------------------------------------------
    # Timer handlers
    # ------------------------------------------------------------------
    def _slice_expired(self) -> None:
        self._slice_event = None
        if self.current is None:
            return
        if not self.waiting:
            return
        self._deschedule_current(requeue=True)
        self._dispatch()

    def _throttle_fired(self) -> None:
        self._throttle_event = None
        cur = self.current
        if cur is None or cur.bandwidth is None:
            return
        now = self.engine.now
        self._charge_current()
        self._cancel_timers()
        self.current = None
        cur.on_stop_running(now)
        cur.state = ENTITY_THROTTLED
        if cur.wants_cpu:
            cur.begin_wait(now)
        self.machine.tracer.record(now, "host.throttle", self.thread.index, cur.name)
        self._dispatch()
        if self.current is None:
            self.machine.on_thread_busy_changed(self.thread)

    def on_bandwidth_refresh(self, entity: HostEntity) -> None:
        """Period refresh for an entity homed on this runqueue."""
        bw = entity.bandwidth
        if entity is self.current:
            # Checkpoint consumed runtime, then grant the fresh quota and
            # re-arm the throttle timer for a full quota from now.
            self._checkpoint_current()
            bw.used_ns = 0
            if self._throttle_event is not None:
                self._throttle_event.cancel()
            self._throttle_event = self.engine.call_in(bw.quota_ns, self._throttle_fired)
            return
        bw.used_ns = 0
        if entity.state == ENTITY_THROTTLED:
            if entity.wants_cpu:
                entity.end_wait(self.engine.now)
                self.enqueue(entity)
            else:
                entity.state = ENTITY_BLOCKED

    # ------------------------------------------------------------------
    # External control
    # ------------------------------------------------------------------
    def block_entity(self, entity: HostEntity) -> None:
        """Entity no longer wants the CPU (vCPU halt / host task sleep)."""
        now = self.engine.now
        entity.wants_cpu = False
        if entity is self.current:
            self._deschedule_current(requeue=False)
            entity.state = ENTITY_BLOCKED
            self._dispatch()
            if self.current is None:
                self.machine.on_thread_busy_changed(self.thread)
        elif entity.state == ENTITY_QUEUED:
            self.waiting.remove(entity)
            entity.end_wait(now)
            entity.state = ENTITY_BLOCKED
        elif entity.state == ENTITY_THROTTLED:
            entity.end_wait(now)
            entity.state = ENTITY_BLOCKED

    def steal_waiting(self, entity: HostEntity) -> None:
        """Remove a QUEUED entity for migration to another runqueue."""
        self.waiting.remove(entity)
        entity.end_wait(self.engine.now)
        entity.rq = None

    def set_slice(self, slice_ns: int) -> None:
        """Change the slice quantum (takes effect at the next dispatch)."""
        self.slice_ns = slice_ns
