"""Relaxed work conservation (rwc, §3.4).

rwc intentionally leaves problematic vCPUs idle by hiding them from task
placement via cgroup cpusets:

* **straggler vCPUs** — probed EMA capacity far below the average (the
  paper's example: 10× lower).  Hidden from normal tasks only: best-effort
  (sched_idle) work, including vcap's light probers, may still run there so
  a capacity recovery is noticed.
* **stacked vCPUs** — all but one vCPU of each stacking group are banned
  for *everything* except vtop (which must keep probing all vCPUs to detect
  stacking changes).  This avoids expensive vCPU switches and double-
  scheduling hazards such as priority inversion and LHP.

The policy re-evaluates after every prober publish (module subscription).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.core.module import VSchedModule
from repro.guest.cgroup import TaskGroup
from repro.guest.kernel import GuestKernel


class RelaxedWorkConservation:
    """cpuset manager hiding straggler and stacked vCPUs."""

    #: A vCPU is a straggler when its capacity is below median/RATIO.  The
    #: paper's example is "10x below average"; on this substrate wake-up
    #: credit lets even a heavily hogged vCPU burst briefly, flooring its
    #: *measured* capacity around 15% of nominal, so the trigger is
    #: re-calibrated to the same semantic point: 3x below the median
    #: (median, because the stragglers themselves drag the mean down).
    STRAGGLER_RATIO = 3.0

    def __init__(
        self,
        kernel: GuestKernel,
        module: VSchedModule,
        workload_group: TaskGroup,
        besteffort_group: Optional[TaskGroup] = None,
        vcap_group: Optional[TaskGroup] = None,
    ):
        self.kernel = kernel
        self.module = module
        self.workload_group = workload_group
        self.besteffort_group = besteffort_group
        self.vcap_group = vcap_group
        self.banned_stacked: FrozenSet[int] = frozenset()
        self.stragglers: FrozenSet[int] = frozenset()
        self._straggler_candidates: FrozenSet[int] = frozenset()
        module.subscribe(self.refresh)

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        store = self.module.store
        n = len(store)
        all_cpus = frozenset(range(n))

        banned_stacked: Set[int] = set()
        for group in store.topology.stack_groups:
            members = sorted(group)
            # Keep the member with the highest probed capacity; hide the rest.
            keep = max(members, key=lambda c: store[c].capacity)
            banned_stacked.update(m for m in members if m != keep)

        usable = all_cpus - banned_stacked
        if usable:
            caps = sorted(store[c].capacity for c in usable)
            median_cap = caps[len(caps) // 2]
        else:
            median_cap = 1024.0
        observed = frozenset(
            c for c in usable
            if store[c].capacity < median_cap / self.STRAGGLER_RATIO)
        # Hysteresis: ban only vCPUs that look straggling on two
        # consecutive refreshes (transient dips on a dynamic host must not
        # hide healthy vCPUs); unban immediately on recovery.
        stragglers = observed & (self._straggler_candidates | self.stragglers)
        self._straggler_candidates = observed
        # Never hide everything.
        if len(stragglers) >= len(usable):
            stragglers = frozenset()

        new_banned = frozenset(banned_stacked)
        changed = (new_banned != self.banned_stacked
                   or stragglers != self.stragglers)
        self.banned_stacked = new_banned
        self.stragglers = stragglers
        if not changed:
            return

        workload_mask = all_cpus - new_banned - stragglers
        if not workload_mask:
            workload_mask = all_cpus - new_banned or all_cpus
        self.workload_group.set_allowed(workload_mask)
        self.kernel.apply_cpuset(self.workload_group)
        # Best-effort tasks may still use stragglers (only stacking is
        # hidden from them).
        be_mask = all_cpus - new_banned
        if self.besteffort_group is not None:
            self.besteffort_group.set_allowed(be_mask)
            self.kernel.apply_cpuset(self.besteffort_group)
        if self.vcap_group is not None:
            self.vcap_group.set_allowed(be_mask)
            self.kernel.apply_cpuset(self.vcap_group)

    # ------------------------------------------------------------------
    def hidden_cpus(self) -> FrozenSet[int]:
        return self.banned_stacked | self.stragglers
