"""Host-schedulable entities.

The hypervisor schedules *host entities* on hardware threads the same way
KVM schedules vCPU threads and ordinary processes under the host's CFS.
Two concrete kinds exist:

* :class:`repro.hypervisor.vcpu.VCpuThread` — backs one guest vCPU,
* :class:`HostTask` — an always-runnable host process used to generate
  contention (the paper stresses cores with Sysbench and priority tasks).

Entity weights follow CFS nice-level semantics (nice 0 = 1024, each nice
step ≈ ×1.25), so "a high-priority task on the host" is simply a
high-weight :class:`HostTask`.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

# Re-exported for backward compatibility; the table lives in the
# layer-neutral repro.core.weights so guest-side probers can share it.
from repro.core.weights import (  # noqa: F401
    NICE0_WEIGHT,
    NICE_TO_WEIGHT,
    weight_for_nice,
)


class EntityState(enum.Enum):
    """Host-side scheduling state of an entity."""

    BLOCKED = "blocked"        # not runnable (vCPU halted / task sleeping)
    QUEUED = "queued"          # waiting on a host runqueue
    RUNNING = "running"        # currently executing on its hardware thread
    THROTTLED = "throttled"    # bandwidth quota exhausted, waiting for refresh


# The members as plain module-level names, for the per-event paths: on
# CPython 3.11 every ``EntityState.RUNNING`` load goes through
# ``EnumType.__getattr__`` (INTERNALS §8).
ENTITY_BLOCKED = EntityState.BLOCKED
ENTITY_QUEUED = EntityState.QUEUED
ENTITY_RUNNING = EntityState.RUNNING
ENTITY_THROTTLED = EntityState.THROTTLED


class HostEntity:
    """Base class for anything the host scheduler can run."""

    def __init__(
        self,
        name: str,
        weight: int = NICE0_WEIGHT,
        pinned: Optional[Tuple[int, ...]] = None,
    ):
        self.name = name
        self.weight = weight
        #: Hardware-thread indices this entity may run on (None = any).
        self.pinned = tuple(pinned) if pinned is not None else None
        self.state = ENTITY_BLOCKED
        self.vruntime = 0
        #: Runqueue the entity is currently queued on / running from.
        self.rq = None
        #: Bandwidth controller, if CPU bandwidth control applies.
        self.bandwidth = None
        #: True while the entity has work it wants to run.
        self.wants_cpu = False

        # --- accounting -------------------------------------------------
        #: Total wall time spent RUNNING.
        self.run_total = 0
        #: Total time spent runnable-but-not-running (KVM steal semantics:
        #: queued behind other entities, or throttled while wanting CPU).
        self.steal_total = 0
        self._wait_start: Optional[int] = None
        self._run_start: Optional[int] = None
        #: Number of times the entity transitioned QUEUED/THROTTLED→RUNNING
        #: after actually waiting (i.e., was preempted then resumed).
        self.preemption_resumes = 0

    # ------------------------------------------------------------------
    # Accounting helpers (called by the runqueue / machine)
    # ------------------------------------------------------------------
    def begin_wait(self, now: int) -> None:
        if self._wait_start is None:
            self._wait_start = now

    def end_wait(self, now: int) -> None:
        if self._wait_start is not None:
            waited = now - self._wait_start
            self.steal_total += waited
            if waited > 0:
                self.preemption_resumes += 1
            self._wait_start = None

    def begin_run(self, now: int) -> None:
        self._run_start = now

    def end_run(self, now: int) -> int:
        """Close the running interval; return its wall duration."""
        if self._run_start is None:
            return 0
        delta = now - self._run_start
        self.run_total += delta
        self._run_start = None
        return delta

    def steal_ns(self, now: int) -> int:
        """Steal time including any wait in progress (guest-visible)."""
        total = self.steal_total
        if self._wait_start is not None:
            total += now - self._wait_start
        return total

    def run_ns(self, now: int) -> int:
        """Running time including the interval in progress."""
        total = self.run_total
        if self._run_start is not None:
            total += now - self._run_start
        return total

    # ------------------------------------------------------------------
    # Hooks overridden by VCpuThread
    # ------------------------------------------------------------------
    def on_start_running(self, now: int, rate: float) -> None:
        """Called when the host puts the entity on a hardware thread."""

    def on_stop_running(self, now: int) -> None:
        """Called when the host takes the entity off its hardware thread."""

    def on_rate_change(self, now: int, rate: float) -> None:
        """Called while RUNNING when the hardware thread's speed changes."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"


class HostTask(HostEntity):
    """An always-runnable host process used to generate core contention.

    ``duty_cycle`` optionally makes the task alternate between wanting the
    CPU and sleeping (e.g., intermittent interference in §5.8): it runs for
    ``duty_on_ns`` then sleeps ``duty_off_ns``, repeating.  The machinery
    for that lives in :class:`repro.hypervisor.machine.Machine` because it
    needs the engine.
    """

    def __init__(
        self,
        name: str,
        weight: int = NICE0_WEIGHT,
        pinned: Optional[Tuple[int, ...]] = None,
        duty_on_ns: Optional[int] = None,
        duty_off_ns: Optional[int] = None,
    ):
        super().__init__(name, weight=weight, pinned=pinned)
        self.duty_on_ns = duty_on_ns
        self.duty_off_ns = duty_off_ns
        self.wants_cpu = True
