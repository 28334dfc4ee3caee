"""The accurate vCPU abstraction vSched maintains per vCPU.

This is the data the vProbers populate and the optimizing techniques read:
EMA capacity (vcap), vCPU latency and average active/inactive periods
(vact), and the probed topology (vtop).  It intentionally contains nothing
the guest could not measure itself.
"""

from __future__ import annotations

import statistics
from typing import Dict, FrozenSet, List

from repro.core.ema import Ema, alpha_for_halflife


class VCpuAbstraction:
    """Probed performance features of one vCPU."""

    def __init__(self, index: int, ema_halflife_periods: float = 2.0):
        self.index = index
        #: Smoothed capacity, 1024 = one full nominal core.
        self.ema_capacity = Ema(alpha_for_halflife(ema_halflife_periods),
                                initial=1024.0)
        #: Hosting-core capacity from the last heavy sampling.
        self.core_capacity = 1024.0
        #: Average inactive period — the paper's "vCPU latency".
        self.latency_ns = 0.0
        #: Average host-active period between preemptions.
        self.avg_active_ns = 0.0
        #: Coefficient of variation of the inactive periods — how
        #: predictable this vCPU's activity pattern is.  Activity-aware
        #: techniques only trust predictions when this is low.  Starts at
        #: the trust boundary: one consistent sample unlocks predictions,
        #: one erratic sample locks them.
        self.latency_cv = 0.6
        #: Last wall time any prober refreshed this entry.
        self.last_update = 0

    @property
    def capacity(self) -> float:
        return self.ema_capacity.get(1024.0)

    def __repr__(self) -> str:
        return (f"<VCpuAbstraction {self.index} cap={self.capacity:.0f} "
                f"lat={self.latency_ns / 1e6:.2f}ms>")


class TopologyView:
    """vtop's probed topology: per-vCPU sibling sets plus stack groups."""

    def __init__(self, n_cpus: int):
        self.n_cpus = n_cpus
        self.smt_siblings: Dict[int, FrozenSet[int]] = {
            c: frozenset((c,)) for c in range(n_cpus)}
        self.socket_siblings: Dict[int, FrozenSet[int]] = {
            c: frozenset(range(n_cpus)) for c in range(n_cpus)}
        self.stack_groups: List[FrozenSet[int]] = []

    def stacked_partners(self, cpu: int) -> FrozenSet[int]:
        for g in self.stack_groups:
            if cpu in g:
                return g - {cpu}
        return frozenset()

    def equals(self, other: "TopologyView") -> bool:
        return (self.smt_siblings == other.smt_siblings
                and self.socket_siblings == other.socket_siblings
                and sorted(map(sorted, self.stack_groups))
                == sorted(map(sorted, other.stack_groups)))


class AbstractionStore:
    """All per-vCPU abstractions of one VM, with aggregate queries."""

    def __init__(self, n_cpus: int, ema_halflife_periods: float = 2.0):
        self.vcpus: List[VCpuAbstraction] = [
            VCpuAbstraction(i, ema_halflife_periods) for i in range(n_cpus)]
        self.topology = TopologyView(n_cpus)

    def __getitem__(self, index: int) -> VCpuAbstraction:
        return self.vcpus[index]

    def __len__(self) -> int:
        return len(self.vcpus)

    def median_capacity(self) -> float:
        return statistics.median(v.capacity for v in self.vcpus)

    def mean_capacity(self) -> float:
        return statistics.fmean(v.capacity for v in self.vcpus)

    def median_latency(self) -> float:
        return statistics.median(v.latency_ns for v in self.vcpus)

    def capacities(self) -> List[float]:
        return [v.capacity for v in self.vcpus]
