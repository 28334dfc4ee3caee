"""vCPU threads: the host entities backing guest virtual CPUs.

A vCPU thread relays host-side scheduling transitions to the guest CPU
object attached by the guest kernel (rates on/off, resume/preempt) and to
any registered activity listeners (the vtop prober accumulates cache-line
transfer opportunity from these transitions).

The *guest-visible* surface of a vCPU is deliberately small, mirroring what
a real Linux guest on KVM can see without hypervisor modifications:

* ``steal_ns`` — paravirtual steal time (``/proc/stat`` steal),
* the ability to ``halt`` (guest idle) and be ``kick``-ed awake,
* its own execution, whose progress rate it can measure but not query.

Probers must only use this surface; nothing in :mod:`repro.probers` touches
host runqueues or the machine directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hypervisor.entity import ENTITY_RUNNING, HostEntity, NICE0_WEIGHT


class VCpuThread(HostEntity):
    """Host thread backing one guest vCPU."""

    def __init__(self, vm, index: int, weight: int = NICE0_WEIGHT,
                 pinned=None):
        super().__init__(f"{vm.name}/vcpu{index}", weight=weight, pinned=pinned)
        self.vm = vm
        self.index = index
        #: Guest CPU object (set by the guest kernel when it attaches).
        self.guest_cpu = None
        #: Callbacks ``(vcpu, active, now)`` invoked on activity transitions.
        self.activity_listeners: List[Callable] = []
        #: Wall time of the last activity transition (host side).
        self.last_transition = 0
        #: Hardware thread this vCPU last executed on.
        self.last_thread = None
        #: Offline vCPUs ignore kicks (VM shutdown, §5.8 phase changes).
        self.offline = False

    # ------------------------------------------------------------------
    # Host-side transitions (called by the runqueue)
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while the hypervisor is running this vCPU on a core."""
        return self.state == ENTITY_RUNNING

    def on_start_running(self, now: int, rate: float) -> None:
        self.last_transition = now
        if self.rq is not None:
            self.last_thread = self.rq.thread
        if self.guest_cpu is not None:
            self.guest_cpu.host_resumed(now, rate)
        for fn in self.activity_listeners:
            fn(self, True, now)

    def on_stop_running(self, now: int) -> None:
        self.last_transition = now
        if self.guest_cpu is not None:
            self.guest_cpu.host_preempted(now)
        for fn in self.activity_listeners:
            fn(self, False, now)

    def on_rate_change(self, now: int, rate: float) -> None:
        if self.guest_cpu is not None:
            self.guest_cpu.host_rate_changed(now, rate)

    # ------------------------------------------------------------------
    # Guest-side controls
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Guest idle: relinquish the physical CPU until kicked."""
        self.vm.machine.block_entity(self)

    def kick(self) -> None:
        """Make the vCPU runnable (guest work arrived / interrupt pending)."""
        if self.offline:
            return
        self.vm.machine.wake_entity(self)


class VM:
    """A virtual machine: a named group of vCPU threads plus accounting."""

    def __init__(self, machine, name: str):
        self.machine = machine
        self.name = name
        self.vcpus: List[VCpuThread] = []
        #: Guest kernel attached to this VM (set by repro.guest).
        self.kernel = None

    @property
    def n_vcpus(self) -> int:
        return len(self.vcpus)

    def vcpu(self, index: int) -> VCpuThread:
        return self.vcpus[index]

    def total_run_ns(self, now: Optional[int] = None) -> int:
        """Aggregate vCPU running time — the basis of the VM's cycle count."""
        now = self.machine.engine.now if now is None else now
        return sum(v.run_ns(now) for v in self.vcpus)

    def shutdown(self) -> None:
        """Take the whole VM offline: vCPUs stop running permanently."""
        for v in self.vcpus:
            v.offline = True
            self.machine.block_entity(v)

    def __repr__(self) -> str:
        return f"<VM {self.name} vcpus={len(self.vcpus)}>"
