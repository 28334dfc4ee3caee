"""The vSched kernel module analogue.

In the paper, a kernel module receives the user-space probers' results and
exposes them to CFS: per-vCPU data (EMA capacity, vCPU latency) and a
schedule-domain rebuild from the probed topology (§4).  This class plays
that role for the simulated guest: probers call the ``publish_*`` methods,
and the module updates the kernel's capacity provider and domains, then
notifies subscribers (rwc re-evaluates its bans after every publish).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.abstraction import AbstractionStore, TopologyView
from repro.guest.domains import SchedDomains
from repro.guest.kernel import GuestKernel


class VSchedModule:
    """Bridge between user-space probers and the guest scheduler."""

    def __init__(self, kernel: GuestKernel, ema_halflife_periods: float = 2.0):
        self.kernel = kernel
        self.store = AbstractionStore(len(kernel.cpus), ema_halflife_periods)
        #: ``store[i].capacity`` of every vCPU, refreshed by
        #: ``publish_capacity``; the kernel's capacity provider once
        #: installed.
        self.capacities: List[float] = self.store.capacities()
        self._subscribers: List[Callable] = []

    # ------------------------------------------------------------------
    # Installation into the kernel
    # ------------------------------------------------------------------
    def install_capacity_provider(self) -> None:
        """Replace the steal-based CFS capacity estimate with vcap's.

        The kernel reads this module's ``capacities`` list, so a snapshot
        fork, which restores kernel and module from one pickle image,
        rebinds the provider to the fork's list instead of aliasing the
        frozen world's.
        """
        self.kernel.capacity_provider = self.capacities

    def subscribe(self, callback: Callable) -> None:
        """Register a callback invoked after every prober publish."""
        self._subscribers.append(callback)

    def _notify(self) -> None:
        for cb in self._subscribers:
            cb()

    # ------------------------------------------------------------------
    # Prober-facing publish API
    # ------------------------------------------------------------------
    def publish_capacity(self, cpu_index: int, capacity: float,
                         core_capacity: Optional[float] = None) -> None:
        entry = self.store[cpu_index]
        entry.ema_capacity.update(capacity)
        self.capacities[cpu_index] = entry.capacity
        if core_capacity is not None:
            entry.core_capacity = core_capacity
        entry.last_update = self.kernel.now()

    def publish_activity(self, cpu_index: int, latency_ns: float,
                         avg_active_ns: float) -> None:
        entry = self.store[cpu_index]
        # Predictability first: deviation of this sample from the running
        # mean, relative to the mean.
        mean = entry.latency_ns
        if mean > 0:
            cv_sample = min(2.0, abs(latency_ns - mean) / mean)
            entry.latency_cv += 0.5 * (cv_sample - entry.latency_cv)
        elif latency_ns == 0:
            entry.latency_cv += 0.5 * (0.0 - entry.latency_cv)
        # else: first nonzero sample — no baseline yet, leave cv alone.
        # Activity is smoothed lightly: latency must track phase changes
        # within a couple of sampling periods (§5.7).
        entry.latency_ns += 0.5 * (latency_ns - entry.latency_ns)
        entry.avg_active_ns += 0.5 * (avg_active_ns - entry.avg_active_ns)
        entry.last_update = self.kernel.now()

    def publish_topology(self, view: TopologyView) -> None:
        """Install a probed topology: rebuild the schedule domains."""
        self.store.topology = view
        self.kernel.domains = SchedDomains.from_topology_lists(
            view.n_cpus, view.smt_siblings, view.socket_siblings)
        self._notify()

    def sampling_complete(self) -> None:
        """Called by vcap at the end of every sampling period."""
        self._notify()

    # ------------------------------------------------------------------
    # Scheduler-facing queries
    # ------------------------------------------------------------------
    def capacity(self, cpu_index: int) -> float:
        return self.store[cpu_index].capacity

    def latency(self, cpu_index: int) -> float:
        return self.store[cpu_index].latency_ns

    def median_capacity(self) -> float:
        return self.store.median_capacity()

    def median_latency(self) -> float:
        return self.store.median_latency()
