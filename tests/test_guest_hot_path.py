"""The guest per-event fast paths against their reference rules.

``Task.may_run_on``, ``CfsRunqueue.charge_vruntime`` and
``Task.is_idle_policy`` are written for few Python calls per event; each
test here states the plain rule the fast form must reproduce exactly.
"""

import copy
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.guest.cgroup import TaskGroup
from repro.guest.eevdf import EevdfRunqueue
from repro.guest.runqueue import CfsRunqueue
from repro.guest.task import GUEST_NICE0_WEIGHT, Policy, Task

N_CPUS = 8


def _body(api):
    yield api.run(1)


def _task(**kw) -> Task:
    return Task(None, "t", _body, **kw)


masks = st.one_of(st.none(), st.frozensets(st.integers(0, N_CPUS - 1)))


class TestMayRunOn:
    @given(masks, st.booleans(), masks)
    @settings(max_examples=200, deadline=None)
    def test_matches_effective_allowed_membership(self, own, grouped,
                                                  group_mask):
        task = _task(allowed=own)
        if grouped:
            TaskGroup("g", allowed=group_mask).add(task)
        eff = task.effective_allowed()
        for i in range(N_CPUS):
            assert task.may_run_on(i) == (eff is None or i in eff)


def _reference_min_vruntime(old, cur, band):
    """CFS rule: min_vruntime tracks min(curr, leftmost), never lowered."""
    candidates = [t.vruntime for t in band]
    if cur is not None:
        candidates.append(cur.vruntime)
    if not candidates:
        return old
    return max(old, min(candidates))


vruntimes = st.integers(-10 ** 9, 10 ** 9)


class TestChargeVruntime:
    @given(st.sampled_from([CfsRunqueue, EevdfRunqueue]),
           st.one_of(st.none(), vruntimes),
           st.lists(vruntimes, max_size=5),
           st.lists(vruntimes, max_size=5),
           vruntimes,
           st.integers(0, 10 ** 7),
           st.integers(2, 4096))
    @settings(max_examples=300, deadline=None)
    def test_min_vruntime_follows_reference_rule(self, rq_cls, cur_vr,
                                                 normal_vrs, idle_vrs,
                                                 old_min, delta, weight):
        cur = None
        if cur_vr is not None:
            cur = _task(weight=weight)
            cur.vruntime = cur_vr
        rq = rq_cls(SimpleNamespace(current=cur))
        for vrs, band in ((normal_vrs, rq.normal), (idle_vrs, rq.idle_band)):
            for vr in vrs:
                t = _task()
                t.vruntime = vr
                band.append(t)
        rq.min_vruntime = old_min
        charged = cur if cur is not None else _task(weight=weight)
        before = charged.vruntime
        rq.charge_vruntime(charged, delta)
        assert charged.vruntime == before + delta * GUEST_NICE0_WEIGHT // weight
        band = rq.normal or rq.idle_band
        assert rq.min_vruntime == _reference_min_vruntime(old_min, cur, band)
        assert rq.min_vruntime >= old_min


class TestIdlePolicyFlag:
    @given(st.sampled_from(list(Policy)))
    @settings(max_examples=10, deadline=None)
    def test_flag_matches_policy_and_survives_deepcopy(self, policy):
        task = _task(policy=policy)
        assert task.is_idle_policy == (task.policy == Policy.IDLE)
        forked = copy.deepcopy(task)
        assert forked.policy == policy
        assert forked.is_idle_policy == (policy == Policy.IDLE)
