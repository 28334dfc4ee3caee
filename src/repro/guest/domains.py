"""Guest schedule domains.

Schedule domains group CPUs by shared resources so placement and balancing
can be topology-aware (§2.2).  A cloud VM by default sees a *flat UMA*
topology — one domain spanning everything, no SMT level — which is exactly
the inaccuracy the paper attacks; vtop's probed topology is installed by
rebuilding the domains (the ``rebuild_sched_domains`` analogue in §4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


class DomainLevel:
    """One level of the hierarchy: a partition of CPUs into groups."""

    def __init__(self, name: str, groups: Iterable[Iterable[int]]):
        self.name = name
        self.groups: List[FrozenSet[int]] = [frozenset(g) for g in groups]
        self._of: Dict[int, FrozenSet[int]] = {}
        for g in self.groups:
            for cpu in g:
                if cpu in self._of:
                    raise ValueError(f"cpu {cpu} in two groups of level {name}")
                self._of[cpu] = g

    def group_of(self, cpu: int) -> Optional[FrozenSet[int]]:
        return self._of.get(cpu)


class SchedDomains:
    """The domain hierarchy of one VM, innermost level first.

    Every per-CPU query is answered from tables filled here, once: wake
    placement and balancing ask them on every wake and idle pass, and
    the domains never change after construction (vtop installs a new
    object; ``levels`` is only read).  The tables are filled eagerly, so
    a snapshot image does not depend on which queries ran before it.
    """

    def __init__(self, n_cpus: int, levels: Sequence[DomainLevel]):
        self.n_cpus = n_cpus
        self.levels: List[DomainLevel] = list(levels)
        machine = frozenset(range(n_cpus))
        self._machine = machine
        # Each CPU's group in the first "smt" / "llc" level that holds
        # it, as the inner-to-outer walk finds it; CPUs no such level
        # holds fall back to themselves / the whole machine.
        smt_of: Dict[int, FrozenSet[int]] = {}
        llc_of: Dict[int, FrozenSet[int]] = {}
        for level in self.levels:
            table = {"smt": smt_of, "llc": llc_of}.get(level.name)
            if table is not None:
                for group in level.groups:
                    for cpu in group:
                        table.setdefault(cpu, group)
        for cpu in range(n_cpus):
            smt_of.setdefault(cpu, frozenset((cpu,)))
            llc_of.setdefault(cpu, machine)
        self._smt_of = smt_of
        self._llc_of = llc_of
        self._has_smt = any(level.name == "smt" for level in self.levels)
        # Every group's CPUs in ascending order, keyed by the group.
        members: Dict[FrozenSet[int], Tuple[int, ...]] = {
            machine: tuple(range(n_cpus))}
        for level in self.levels:
            for group in level.groups:
                members.setdefault(group, tuple(sorted(group)))
        self._members = members

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, n_cpus: int) -> "SchedDomains":
        """The default (inaccurate) view: one UMA domain, no SMT level."""
        return cls(n_cpus, [DomainLevel("machine", [range(n_cpus)])])

    @classmethod
    def from_topology_lists(
        cls,
        n_cpus: int,
        smt_siblings: Dict[int, FrozenSet[int]],
        socket_siblings: Dict[int, FrozenSet[int]],
    ) -> "SchedDomains":
        """Build domains from per-CPU sibling lists (the kernel-module path).

        ``smt_siblings[c]`` / ``socket_siblings[c]`` are the sets of CPUs
        sharing a core / socket with ``c`` (both including ``c`` itself).
        Stacked vCPUs are handled by rwc (they are hidden via cpuset), so
        they do not appear as a domain level.
        """
        levels: List[DomainLevel] = []
        smt_groups = _unique_groups(smt_siblings, n_cpus)
        if any(len(g) > 1 for g in smt_groups):
            levels.append(DomainLevel("smt", smt_groups))
        socket_groups = _unique_groups(socket_siblings, n_cpus)
        if len(socket_groups) > 1:
            levels.append(DomainLevel("llc", socket_groups))
        levels.append(DomainLevel("machine", [range(n_cpus)]))
        return cls(n_cpus, levels)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def smt_siblings(self, cpu: int) -> FrozenSet[int]:
        """CPUs sharing a core with ``cpu`` (including it), per the domains."""
        group = self._smt_of.get(cpu)
        return group if group is not None else frozenset((cpu,))

    def llc_domain(self, cpu: int) -> FrozenSet[int]:
        """CPUs sharing a last-level cache with ``cpu``, per the domains."""
        return self._llc_of.get(cpu, self._machine)

    def all_cpus(self) -> FrozenSet[int]:
        return self._machine

    def has_smt_level(self) -> bool:
        return self._has_smt

    def members(self, group: FrozenSet[int]) -> Tuple[int, ...]:
        """The CPUs of ``group`` in ascending order; ``group`` is one of
        the levels' groups or the whole machine (what :meth:`llc_domain`
        and :meth:`all_cpus` return)."""
        return self._members[group]


def _unique_groups(siblings: Dict[int, FrozenSet[int]], n_cpus: int) -> List[FrozenSet[int]]:
    """Deduplicate sibling sets into a partition covering all CPUs."""
    seen = set()
    groups: List[FrozenSet[int]] = []
    for cpu in range(n_cpus):
        g = frozenset(siblings.get(cpu, frozenset((cpu,))) or (cpu,))
        if cpu not in g:
            g = g | {cpu}
        if g not in seen:
            seen.add(g)
            groups.append(g)
    # Partition sanity: every CPU must appear exactly once.
    covered = set()
    for g in groups:
        if covered & g:
            raise ValueError(f"inconsistent sibling lists near group {sorted(g)}")
        covered |= g
    if covered != set(range(n_cpus)):
        raise ValueError("sibling lists do not cover all CPUs")
    return groups
