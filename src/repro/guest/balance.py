"""Guest CFS load balancing: periodic, new-idle, and misfit (active).

Three mechanisms, matching the baseline behaviours the paper's experiments
depend on (§2.2, §5.3):

* **periodic balance** — every ``balance_interval`` per CPU, walk the
  domain hierarchy inner→outer and pull a queued task from the busiest CPU
  when the load-per-capacity ratio is imbalanced;
* **new-idle balance** — a CPU going idle immediately tries to pull work
  (this is the work-conservation reflex rwc selectively relaxes);
* **misfit / active balance** — in an underloaded system a *running* task
  whose utilization exceeds its CPU's capacity is actively migrated to a
  higher-capacity idle CPU.

Capacity comes from ``kernel.capacity_of``, which is either the default
steal-based estimate (inaccurate, fluctuating — the source of the spurious
migrations in Figure 11b) or the vcap-probed EMA capacity when the vSched
module is installed.

Each pass starts from state kept where it changes: the busiest-CPU scan
runs only while another vCPU has a queued task it could pull
(``kernel.nr_queued_normal``), or while a busy pass must read the busiest
vCPU's default capacity estimate for its side effect; and the running-task
pulls return at once when even the weakest vCPU
(``kernel.capacity_floor``) fails their capacity test.
"""

from __future__ import annotations

from typing import Optional

from repro.guest.task import Task


class LoadBalancer:
    """Balancing policy bound to one guest kernel."""

    #: Ratio of load/capacity between busiest and local CPU that triggers
    #: a pull.
    IMBALANCE_PCT = 1.25
    #: A running task is "misfit" when util exceeds this fraction of its
    #: CPU's capacity.
    MISFIT_UTIL_FRACTION = 0.8
    #: Required capacity advantage of the destination for active balance.
    CAPACITY_ADVANTAGE = 1.15

    def __init__(self, kernel):
        self.kernel = kernel
        self._nohz_cursor = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def periodic(self, cpu, now: int) -> None:
        """The tick's balance pass; the tick calls it once ``now`` reaches
        ``cpu.next_balance``."""
        cpu.next_balance = now + self.kernel.config.balance_interval_ns
        self._balance_domains(cpu, now, idle=cpu.current is None)
        self._nohz_idle_balance(now)

    def _nohz_idle_balance(self, now: int) -> None:
        """Balance on behalf of one tickless idle CPU (NOHZ analogue).

        Halted vCPUs take no ticks, so a busy CPU's tick runs the idle
        balancing for them round-robin — without this, misfit tasks are
        never pulled to idle higher-capacity vCPUs.
        """
        cpus = self.kernel.cpus
        n = len(cpus)
        for _ in range(n):
            self._nohz_cursor = (self._nohz_cursor + 1) % n
            cand = cpus[self._nohz_cursor]
            rq = cand.rq
            if (cand.current is None and not rq.normal and not rq.idle_band
                    and not cand._in_sched and now >= cand.next_balance):
                cand.next_balance = now + self.kernel.config.balance_interval_ns
                self._balance_domains(cand, now, idle=True)
                return

    def newidle(self, cpu, now: int) -> bool:
        """A CPU just went idle; try to pull work. True if it got a task."""
        return self._balance_domains(cpu, now, idle=True)

    # ------------------------------------------------------------------
    def _balance_domains(self, cpu, now: int, idle: bool) -> bool:
        for level in self.kernel.domains.levels:
            span = level.group_of(cpu.index)
            if span is None or len(span) <= 1:
                continue
            if self._balance_span(cpu, span, now, idle):
                return True
        return False

    def _balance_span(self, cpu, span, now: int, idle: bool) -> bool:
        kernel = self.kernel
        my_rq = cpu.rq
        my_cap = max(1.0, kernel.capacity_of(cpu.index))
        busiest = None
        busiest_key = None
        my_index = cpu.index
        my_nr = len(my_rq.normal) + len(my_rq.idle_band)
        # Only a queued normal task can be pulled, so the scan runs when
        # another vCPU holds one.  A busy pass under the default estimate
        # also scans whenever another vCPU has queued work: ``_should_pull``
        # reads the busiest vCPU's capacity, and that read decays an idle
        # vCPU's steal average (the observer effect of ``capacity_of``).
        if kernel.nr_queued_normal > len(my_rq.normal) or (
                not idle and kernel.capacity_provider is None
                and kernel.nr_queued > my_nr):
            cpus = kernel.cpus
            for c in span:
                if c == my_index:
                    continue
                other = cpus[c]
                rq = other.rq
                nr = len(rq.normal) + len(rq.idle_band)
                if nr == 0:
                    continue
                key = (nr, rq.load())
                if busiest is None or key > busiest_key:
                    busiest = other
                    busiest_key = key
        if busiest is not None:
            if self._should_pull(my_rq, my_cap, busiest, idle):
                task = self._pick_pull_candidate(busiest, cpu.index)
                if task is not None:
                    kernel.migrate_queued(task, busiest, cpu, reason="lb")
                    return True
        if idle and my_nr == 0:
            if kernel.capacity_provider is not None:
                # Probed capacities installed: the SD_ASYM_CPUCAPACITY
                # machinery (misfit migration) is effective (§5.3).
                if self._try_misfit_pull(cpu, span, my_cap, now):
                    return True
            if self._smt_unpack(cpu, span, now):
                return True
            return self._failure_driven_active_balance(cpu, span, my_cap, now)
        return False

    # ------------------------------------------------------------------
    # SMT un-packing (group-capacity overload, needs an SMT level)
    # ------------------------------------------------------------------
    #: Back-off between SMT un-pack pushes from the same core.
    SMT_UNPACK_COOLDOWN_NS = 50 * 1_000_000

    def _smt_unpack(self, cpu, span, now: int) -> bool:
        """A fully idle core pulls a running task off a core whose SMT
        siblings are all busy (CFS marks such cores overloaded via group
        capacity).  Only possible once the domains carry an SMT level —
        i.e. after vtop has exposed the real topology (Figure 12)."""
        kernel = self.kernel
        domains = kernel.domains
        if not domains.has_smt_level():
            return False
        for sib in domains.smt_siblings(cpu.index):
            other = kernel.cpus[sib]
            if other.current is not None or other.rq.nr_running() > 0:
                return False  # my core is not fully idle
        for c in span:
            if c == cpu.index:
                continue
            src = kernel.cpus[c]
            task = src.current
            if (task is None or task.is_idle_policy or src._in_sched
                    or src.rq.nr_running() > 0
                    or not task.may_run_on(cpu.index)
                    or now < src.next_active_push):
                continue
            siblings_busy = all(
                kernel.cpus[s].current is not None
                and not kernel.cpus[s].current.is_idle_policy
                for s in domains.smt_siblings(c) if s != c)
            if not siblings_busy or len(domains.smt_siblings(c)) < 2:
                continue
            src.next_active_push = now + self.SMT_UNPACK_COOLDOWN_NS
            kernel.active_balance(src=src, dst=cpu)
            return True
        return False

    def _should_pull(self, my_rq, my_cap: float, busiest, idle: bool) -> bool:
        if idle:
            return busiest.rq.nr_running() > 0
        their_cap = max(1.0, self.kernel.capacity_of(busiest.index))
        my_ratio = my_rq.load() / my_cap
        their_ratio = busiest.rq.load() / their_cap
        if busiest.rq.nr_total() - my_rq.nr_total() >= 2:
            return True
        return their_ratio > my_ratio * self.IMBALANCE_PCT and busiest.rq.nr_running() > 0

    #: Tasks migrated more recently than this are cache-hot and skipped
    #: (the sched_migration_cost analogue).
    MIGRATION_COOLDOWN_NS = 500_000

    def _pick_pull_candidate(self, busiest, dest_index: int) -> Optional[Task]:
        now = self.kernel.engine.now
        candidates = [
            t for t in busiest.rq.steal_candidates(dest_index)
            if now - t.last_migration_time > self.MIGRATION_COOLDOWN_NS
        ]
        if not candidates:
            return None
        # Prefer the least cache-hot (longest-waiting ~ highest vruntime lag
        # proxy: lowest recent util).
        return min(candidates, key=lambda t: (t.util(now), t.tid))

    # ------------------------------------------------------------------
    # Failure-driven active balance (stock CFS behaviour)
    # ------------------------------------------------------------------
    #: Failed balance attempts before the running task is actively moved
    #: (cache_nice_tries analogue).
    FAILED_TRIES = 3
    #: Back-off after an active push from a CPU.
    ACTIVE_BALANCE_COOLDOWN_NS = 250 * 1_000_000

    def _failure_driven_active_balance(self, cpu, span, my_cap: float,
                                       now: int) -> bool:
        """An idle CPU that keeps seeing an 'overloaded' CPU (high
        load-per-perceived-capacity) and cannot pull a queued task
        eventually active-migrates the running task — this is how stock
        CFS, misled by the steal-based capacity estimate, produces the
        spurious migrations of Figure 11b."""
        kernel = self.kernel
        if max(1.0, kernel.capacity_floor()) * self.IMBALANCE_PCT >= my_cap:
            return False  # not even the weakest vCPU looks overloaded
        best = None
        for c in span:
            if c == cpu.index:
                continue
            other = kernel.cpus[c]
            task = other.current
            if (task is None or other.rq.normal or other.rq.idle_band
                    or task.is_idle_policy or other._in_sched
                    or not task.may_run_on(cpu.index)):
                continue
            their_cap = max(1.0, kernel.capacity_of(c))
            # Perceived imbalance: they look overloaded relative to me.
            if their_cap * self.IMBALANCE_PCT >= my_cap:
                continue
            if now < other.next_active_push:
                continue
            best = other
            break
        if best is None:
            return False
        best.balance_failed += 1
        if best.balance_failed < self.FAILED_TRIES:
            return False
        best.balance_failed = 0
        best.next_active_push = now + self.ACTIVE_BALANCE_COOLDOWN_NS
        kernel.active_balance(src=best, dst=cpu)
        return True

    # ------------------------------------------------------------------
    # Misfit / active balance
    # ------------------------------------------------------------------
    def _try_misfit_pull(self, cpu, span, my_cap: float, now: int) -> bool:
        """Idle CPU looks for a running misfit task on a weaker CPU."""
        kernel = self.kernel
        if my_cap < max(1.0, kernel.capacity_floor()) * self.CAPACITY_ADVANTAGE:
            return False  # no vCPU is weak enough to gain from the move
        best = None
        best_util = 0.0
        for c in span:
            if c == cpu.index:
                continue
            other = kernel.cpus[c]
            task = other.current
            if task is None or other.rq.nr_running() > 0:
                continue
            if other._in_sched:
                continue  # its scheduler is mid-pass; racing would corrupt it
            if task.is_idle_policy or not task.may_run_on(cpu.index):
                continue
            their_cap = max(1.0, kernel.capacity_of(c))
            util = task.util(now)
            if util < self.MISFIT_UTIL_FRACTION * their_cap:
                continue
            if my_cap < their_cap * self.CAPACITY_ADVANTAGE:
                continue
            if util > best_util:
                best = other
                best_util = util
        if best is None:
            return False
        kernel.active_balance(src=best, dst=cpu)
        return True
