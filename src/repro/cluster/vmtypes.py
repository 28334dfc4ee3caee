"""The two representative cloud VM types of the evaluation (§5.1).

* **rcvm** — resource-constrained VM: 12 vCPUs; vCPUs 0–9 on 5 SMT sibling
  pairs, vCPUs 10–11 stacked on one hardware thread; two stragglers; the
  remaining eight split into hchl / hcll / lchl / lcll pairs (high/low
  capacity × high/low latency).
* **hpvm** — high-performance VM: 32 vCPUs over 4 sockets × 4 SMT pairs;
  three socket groups mirror rcvm's four classes, the last group uses its
  cores dedicatedly; no stragglers or stacking.

Capacity and latency classes are manufactured the way the paper does
(§5.1): each classed vCPU competes with a CPU-bound co-runner whose weight
sets the vCPU's share and whose slice sets the inactive period (vCPU
latency), with host wakeup preemption disabled so a waking vCPU genuinely
waits — the source of extended runqueue latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from repro.guest.config import GuestConfig
from repro.guest.kernel import GuestKernel
from repro.hw.speed import SpeedConfig
from repro.hw.topology import HostTopology
from repro.hypervisor.machine import Machine
from repro.hypervisor.vcpu import VM
from repro.sim.engine import Engine, MSEC, USEC
from repro.sim.tracing import Tracer


@dataclass
class VCpuClass:
    """A (share, latency) class realized the way the paper does (§5.1):
    the vCPU competes with a CPU-bound co-runner whose weight sets the
    vCPU's share and whose slice (the min-granularity analogue) sets the
    inactive period, with wakeup preemption disabled on those threads so
    a waking vCPU really waits out the co-runner (extended runqueue
    latency).  Bandwidth-control parameters are also derivable for
    experiments that prefer quotas."""

    name: str
    share: float          # fraction of a hardware thread
    latency_ns: int       # inactive period per cycle

    def quota_period(self) -> Tuple[int, int]:
        period = int(self.latency_ns / (1.0 - self.share))
        quota = period - self.latency_ns
        return quota, period

    def competitor(self, vcpu_weight: int = 1024) -> Tuple[int, int]:
        """(weight, slice_ns) of the co-runner realizing this class.

        With slice-quantum rotation the heavier entity takes consecutive
        turns: a busy vCPU's inactive period is ``slice * max(1,
        w_stress / w_vcpu)``, so the slice is derated for heavy
        co-runners; the share follows from the weights alone.
        """
        if self.share >= 1.0:
            raise ValueError("dedicated class has no competitor")
        w_stress = max(16, int(vcpu_weight * (1.0 - self.share) / self.share))
        slice_ns = int(self.latency_ns * min(1.0, vcpu_weight / w_stress))
        return w_stress, max(250_000, slice_ns)


#: The four classes of §5.1.  hcll has 2× the capacity and 1/3 the latency
#: of lchl, matching the paper's example.
HCLL = VCpuClass("hcll", 0.66, 2 * MSEC)
HCHL = VCpuClass("hchl", 0.66, 6 * MSEC)
LCLL = VCpuClass("lcll", 0.33, 2 * MSEC)
LCHL = VCpuClass("lchl", 0.33, 6 * MSEC)
STRAGGLER = VCpuClass("straggler", 0.06, 9 * MSEC)
DEDICATED = VCpuClass("dedicated", 1.0, 0)


@dataclass
class VmEnvironment:
    """A fully-built simulation environment for one VM."""

    engine: Engine
    machine: Machine
    vm: VM
    kernel: GuestKernel
    vcpu_classes: List[str] = field(default_factory=list)
    stacked_pairs: List[Tuple[int, int]] = field(default_factory=list)
    straggler_vcpus: List[int] = field(default_factory=list)

    @property
    def n_vcpus(self) -> int:
        return self.vm.n_vcpus


def _apply_class(machine: Machine, vcpu, klass: VCpuClass,
                 stagger_ns: int = 0) -> None:
    """Install a class by adding its co-runner on the vCPU's thread and
    tuning that thread's slice.  ``stagger_ns`` desynchronizes co-runner
    start times (real tenants do not begin in lock-step)."""
    if klass.share >= 1.0:
        return
    thread = vcpu.pinned[0]
    weight, slice_ns = klass.competitor()
    machine.set_slice(thread, slice_ns)
    # A partial over the bound method (not a lambda): snapshot forks
    # rebind it to the copied machine if the stagger is still pending.
    machine.engine.call_at(
        machine.engine.now + stagger_ns,
        partial(machine.add_host_task, f"tenant-{vcpu.name}",
                weight=weight, pinned=(thread,)))


def build_rcvm(engine: Optional[Engine] = None,
               tracer: Optional[Tracer] = None,
               guest_config: Optional[GuestConfig] = None) -> VmEnvironment:
    """The resource-constrained VM on a contended edge-style host."""
    engine = engine or Engine()
    topo = HostTopology(1, 6, smt=2)  # 12 hardware threads
    # The paper tunes wakeup granularity so waking vCPUs wait out their
    # co-runners — that is what creates extended runqueue latency.
    machine = Machine(engine, topo, speed=SpeedConfig(), tracer=tracer,
                      wakeup_gran_ns=None)
    # vCPUs 0-9 pinned to threads 0-9 (5 SMT pairs); 10 and 11 stacked on
    # thread 10.
    pins = [(i,) for i in range(10)] + [(10,), (10,)]
    vm = machine.new_vm("rcvm", 12, pinned_map=pins)
    classes = ["hcll", "hchl", "lcll", "lchl",
               "hcll", "hchl", "lcll", "lchl",
               "straggler", "straggler", "stacked", "stacked"]
    class_map = {"hcll": HCLL, "hchl": HCHL, "lcll": LCLL, "lchl": LCHL,
                 "straggler": STRAGGLER}
    for i, cname in enumerate(classes):
        if cname == "stacked":
            continue  # the stacked pair contends with itself on thread 10
        _apply_class(machine, vm.vcpu(i), class_map[cname],
                     stagger_ns=(i * 1337 * USEC))
    kernel = GuestKernel(vm, guest_config)
    return VmEnvironment(engine, machine, vm, kernel,
                         vcpu_classes=classes,
                         stacked_pairs=[(10, 11)],
                         straggler_vcpus=[8, 9])


def build_hpvm(engine: Optional[Engine] = None,
               tracer: Optional[Tracer] = None,
               guest_config: Optional[GuestConfig] = None) -> VmEnvironment:
    """The high-performance VM spanning four sockets."""
    engine = engine or Engine()
    topo = HostTopology(4, 4, smt=2)  # 32 hardware threads
    machine = Machine(engine, topo, speed=SpeedConfig(), tracer=tracer,
                      wakeup_gran_ns=None)
    pins = [(i,) for i in range(32)]
    vm = machine.new_vm("hpvm", 32, pinned_map=pins)
    group_classes = ["hcll", "hchl", "lcll", "lchl",
                     "hcll", "hchl", "lcll", "lchl"]
    class_map = {"hcll": HCLL, "hchl": HCHL, "lcll": LCLL, "lchl": LCHL}
    classes: List[str] = []
    for g in range(4):
        for j in range(8):
            i = g * 8 + j
            if g == 3:
                classes.append("dedicated")
                continue
            cname = group_classes[j]
            classes.append(cname)
            _apply_class(machine, vm.vcpu(i), class_map[cname],
                         stagger_ns=(i * 911 * USEC))
    kernel = GuestKernel(vm, guest_config)
    return VmEnvironment(engine, machine, vm, kernel,
                         vcpu_classes=classes)


def build_plain_vm(n_vcpus: int, engine: Optional[Engine] = None,
                   sockets: int = 1, smt: int = 1,
                   tracer: Optional[Tracer] = None,
                   host_slice_ns: int = 4 * MSEC,
                   wakeup_gran_ns: Optional[int] = 1 * MSEC,
                   guest_config: Optional[GuestConfig] = None,
                   speed: Optional[SpeedConfig] = None,
                   pin_offset: int = 0,
                   cores_per_socket: Optional[int] = None) -> VmEnvironment:
    """A VM with one vCPU per hardware thread — the canvas most individual
    experiments paint their host conditions onto."""
    engine = engine or Engine()
    threads_per_socket = -(-n_vcpus // sockets)
    if cores_per_socket is None:
        cores_per_socket = -(-threads_per_socket // smt)
    topo = HostTopology(sockets, cores_per_socket, smt=smt)
    machine = Machine(engine, topo, speed=speed or SpeedConfig(),
                      tracer=tracer, host_slice_ns=host_slice_ns,
                      wakeup_gran_ns=wakeup_gran_ns)
    pins = [(pin_offset + i,) for i in range(n_vcpus)]
    vm = machine.new_vm("vm", n_vcpus, pinned_map=pins)
    kernel = GuestKernel(vm, guest_config)
    return VmEnvironment(engine, machine, vm, kernel)
