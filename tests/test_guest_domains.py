"""Unit tests for schedule domains and the cgroup cpuset model."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.guest.cgroup import TaskGroup
from repro.guest.domains import DomainLevel, SchedDomains


class TestDomainLevel:
    def test_group_of(self):
        level = DomainLevel("smt", [[0, 1], [2, 3]])
        assert level.group_of(0) == frozenset({0, 1})
        assert level.group_of(3) == frozenset({2, 3})
        assert level.group_of(7) is None

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            DomainLevel("bad", [[0, 1], [1, 2]])


class TestSchedDomains:
    def test_flat_default(self):
        d = SchedDomains.flat(8)
        assert not d.has_smt_level()
        assert d.llc_domain(3) == frozenset(range(8))
        assert d.smt_siblings(3) == frozenset({3})

    def test_from_topology_lists(self):
        smt = {0: frozenset({0, 1}), 1: frozenset({0, 1}),
               2: frozenset({2, 3}), 3: frozenset({2, 3}),
               4: frozenset({4, 5}), 5: frozenset({4, 5}),
               6: frozenset({6}), 7: frozenset({7})}
        sock = {c: frozenset({0, 1, 2, 3}) for c in range(4)}
        sock.update({c: frozenset({4, 5, 6, 7}) for c in range(4, 8)})
        d = SchedDomains.from_topology_lists(8, smt, sock)
        assert d.has_smt_level()
        assert d.smt_siblings(0) == frozenset({0, 1})
        assert d.smt_siblings(6) == frozenset({6})
        assert d.llc_domain(2) == frozenset({0, 1, 2, 3})
        assert d.llc_domain(7) == frozenset({4, 5, 6, 7})

    def test_single_socket_has_no_llc_level(self):
        smt = {c: frozenset({c}) for c in range(4)}
        sock = {c: frozenset(range(4)) for c in range(4)}
        d = SchedDomains.from_topology_lists(4, smt, sock)
        assert [l.name for l in d.levels] == ["machine"]

    def test_inconsistent_sibling_lists_rejected(self):
        smt = {0: frozenset({0, 1}), 1: frozenset({1, 2}),
               2: frozenset({2}), 3: frozenset({3})}
        sock = {c: frozenset(range(4)) for c in range(4)}
        with pytest.raises(ValueError):
            SchedDomains.from_topology_lists(4, smt, sock)


# ----------------------------------------------------------------------
# The per-CPU tables against the level walk they replaced
# ----------------------------------------------------------------------
def _walk_smt_siblings(domains, cpu):
    """``SchedDomains.smt_siblings`` before the tables, verbatim."""
    for level in domains.levels:
        if level.name == "smt":
            g = level.group_of(cpu)
            if g is not None:
                return g
    return frozenset((cpu,))


def _walk_llc_domain(domains, cpu):
    """``SchedDomains.llc_domain`` before the tables, verbatim."""
    for level in domains.levels:
        if level.name == "llc":
            g = level.group_of(cpu)
            if g is not None:
                return g
    return frozenset(range(domains.n_cpus))


def _walk_has_smt_level(domains):
    """``SchedDomains.has_smt_level`` before the tables, verbatim."""
    return any(level.name == "smt" for level in domains.levels)


@st.composite
def _partition(draw, cpus):
    """A random partition of ``cpus`` into at most 8 groups."""
    labels = draw(st.lists(st.integers(0, 7), min_size=len(cpus),
                           max_size=len(cpus)))
    groups = {}
    for cpu, label in zip(cpus, labels):
        groups.setdefault(label, []).append(cpu)
    return list(groups.values())


@st.composite
def _domains(draw):
    """Domains on 1-32 CPUs, from sibling lists (the vtop path) or built
    by hand: levels missing, repeated, in any order, or covering only
    some CPUs."""
    n = draw(st.integers(1, 32))
    cpus = list(range(n))
    if draw(st.booleans()):
        siblings = []
        for _name in ("smt", "llc"):
            of = {}
            for g in draw(_partition(cpus)):
                for cpu in g:
                    of[cpu] = frozenset(g)
            siblings.append(of)
        return SchedDomains.from_topology_lists(n, *siblings)
    levels = []
    for name in draw(st.lists(st.sampled_from(("smt", "llc", "machine")),
                              max_size=4)):
        covered = cpus if draw(st.booleans()) else [
            c for c in cpus if draw(st.booleans())]
        levels.append(DomainLevel(name, draw(_partition(covered))))
    return SchedDomains(n, levels)


class TestDomainTables:
    @given(_domains())
    @settings(max_examples=300, deadline=None)
    def test_tables_answer_like_the_level_walk(self, domains):
        before = pickle.dumps(vars(domains))
        n = domains.n_cpus
        for cpu in list(range(n)) + [n]:  # every CPU and one past the end
            assert domains.llc_domain(cpu) == _walk_llc_domain(domains, cpu)
            assert domains.smt_siblings(cpu) == _walk_smt_siblings(domains,
                                                                   cpu)
        assert domains.has_smt_level() == _walk_has_smt_level(domains)
        groups = [g for level in domains.levels for g in level.groups]
        groups += [domains.all_cpus()]
        groups += [domains.llc_domain(cpu) for cpu in range(n)]
        for group in groups:
            assert list(domains.members(group)) == sorted(group)
        # Filled at construction: no query added or changed an entry.
        assert pickle.dumps(vars(domains)) == before


class TestTaskGroup:
    def test_mask_intersection_with_task_affinity(self):
        from repro.cluster import build_plain_vm
        env = build_plain_vm(4)
        g = env.kernel.new_group("g")
        g.set_allowed(frozenset({1, 2}))

        def body(api):
            yield api.run(1000)

        t = env.kernel.spawn(body, "t", group=g, allowed=(2, 3))
        assert t.effective_allowed() == frozenset({2})
        assert t.may_run_on(2)
        assert not t.may_run_on(1)
        assert not t.may_run_on(3)

    def test_none_mask_means_everywhere(self):
        from repro.cluster import build_plain_vm
        env = build_plain_vm(4)

        def body(api):
            yield api.run(1000)

        t = env.kernel.spawn(body, "t")
        assert t.effective_allowed() is None
        assert all(t.may_run_on(c) for c in range(4))
