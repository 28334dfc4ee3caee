"""The guest per-event fast paths against their reference rules.

``Task.may_run_on``, ``CfsRunqueue.charge_vruntime`` and
``Task.is_idle_policy`` are written for few Python calls per event; each
test here states the plain rule the fast form must reproduce exactly.
The runqueues' maintained load and queued count must equal a recount
after every mutation, and the load balancer's early-outs over that state
must decide exactly as the rescanning balancer they replaced.
"""

import copy
import math
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.cluster import build_plain_vm
from repro.guest.balance import LoadBalancer
from repro.guest.cgroup import TaskGroup
from repro.guest.config import GuestConfig
from repro.guest.domains import SchedDomains
from repro.guest.eevdf import EevdfRunqueue
from repro.guest.runqueue import CfsRunqueue
from repro.guest.task import GUEST_NICE0_WEIGHT, Policy, Task, TaskState
from repro.sim import MSEC

N_CPUS = 8


def _body(api):
    yield api.run(1)


#: Stands in for the kernel of tasks built outside a VM: it hands out
#: their tids, which rise in creation order as in a kernel.
_KERNEL = SimpleNamespace(last_tid=0)


def _task(**kw) -> Task:
    return Task(_KERNEL, "t", _body, **kw)


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


# ----------------------------------------------------------------------
# Maintained runqueue state: load() and the kernel's queued count
# ----------------------------------------------------------------------
def _reference_load(rq) -> int:
    """``CfsRunqueue.load`` as it was: re-sums the normal band."""
    total = sum(t.weight for t in rq.normal)
    cur = rq.cpu.current
    if cur is not None and not cur.is_idle_policy:
        total += cur.weight
    return total


weights = st.integers(2, 8192)
rq_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, 1), st.booleans(), weights,
              vruntimes),
    st.tuples(st.just("dequeue"), st.integers(0, 1), st.integers(0, 63)),
    st.tuples(st.just("pick"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("current"), st.integers(0, 1),
              st.one_of(st.none(), st.tuples(st.booleans(), weights))),
), max_size=40)


class TestMaintainedRunqueueState:
    @given(st.sampled_from([CfsRunqueue, EevdfRunqueue]), rq_ops)
    @settings(max_examples=300, deadline=None)
    def test_load_and_queued_count_equal_a_recount(self, rq_cls, ops):
        kernel = SimpleNamespace(config=GuestConfig(), nr_queued=0)
        rqs = [rq_cls(SimpleNamespace(kernel=kernel, current=None))
               for _ in range(2)]

        def task(idle, weight):
            return _task(policy=Policy.IDLE if idle else Policy.NORMAL,
                         weight=weight)

        for op, i, *args in ops:
            rq = rqs[i]
            queued = rq.normal + rq.idle_band
            if op == "enqueue":
                idle, weight, vr = args
                t = task(idle, weight)
                t.vruntime = vr
                rq.enqueue(t)
            elif op == "dequeue" and queued:
                rq.dequeue(queued[args[0] % len(queued)])
            elif op == "pick":
                picked = rq.pick_next()
                if picked is not None and args[0]:
                    # A context switch: the old current goes back to the
                    # queue and the picked task runs.
                    if rq.cpu.current is not None:
                        rq.enqueue(rq.cpu.current)
                    rq.cpu.current = picked
            elif op == "current":
                rq.cpu.current = None if args[0] is None else task(*args[0])
            for r in rqs:
                assert r.load() == _reference_load(r)
            assert kernel.nr_queued == sum(
                len(r.normal) + len(r.idle_band) for r in rqs)


# ----------------------------------------------------------------------
# The balancer's early-outs against the rescanning balancer
# ----------------------------------------------------------------------
class _RescanningBalancer(LoadBalancer):
    """The balancer before it read maintained state: verbatim copies of
    the three passes it changed (comments dropped, and ``rq.load()``
    replaced by its old re-sum), every pass rescanning every vCPU."""

    def _balance_span(self, cpu, span, now: int, idle: bool) -> bool:
        kernel = self.kernel
        my_rq = cpu.rq
        my_cap = max(1.0, kernel.capacity_of(cpu.index))
        busiest = None
        busiest_key = None
        my_index = cpu.index
        cpus = kernel.cpus
        for c in span:
            if c == my_index:
                continue
            other = cpus[c]
            rq = other.rq
            nr = len(rq.normal) + len(rq.idle_band)
            if nr == 0:
                continue
            key = (nr, _reference_load(rq))
            if busiest is None or key > busiest_key:
                busiest = other
                busiest_key = key
        if busiest is not None:
            if self._should_pull(my_rq, my_cap, busiest, idle):
                task = self._pick_pull_candidate(busiest, cpu.index)
                if task is not None:
                    kernel.migrate_queued(task, busiest, cpu, reason="lb")
                    return True
        if idle and my_rq.nr_running() == 0:
            if kernel.capacity_provider is not None:
                if self._try_misfit_pull(cpu, span, my_cap, now):
                    return True
            if self._smt_unpack(cpu, span, now):
                return True
            return self._failure_driven_active_balance(cpu, span, my_cap, now)
        return False

    def _failure_driven_active_balance(self, cpu, span, my_cap: float,
                                       now: int) -> bool:
        kernel = self.kernel
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

    def _try_misfit_pull(self, cpu, span, my_cap: float, now: int) -> bool:
        kernel = self.kernel
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
                continue
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


#: Capacity ratios at and next to the balancer's thresholds (the 1.15 and
#: 1.25 factors and their neighbours), so the early-outs' boundaries are
#: hit, not only sampled around.
_EDGE_RATIOS = sorted({x for r in (1.0, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.5)
                       for x in (r, math.nextafter(r, 0.0),
                                 math.nextafter(r, 3.0))})
ratios = st.one_of(st.floats(1.0, 3.0), st.sampled_from(_EDGE_RATIOS))


def chance(percent: int):
    """True in about ``percent`` of draws."""
    return st.integers(1, 100).map(lambda x: x <= percent)


@st.composite
def balance_worlds(draw):
    """A guest's balancing inputs, as plain values.

    vCPUs are drawn from a few shared specs, as in a real VM where many
    vCPUs look alike: that makes ties in the busiest-CPU key and
    candidates that pass every filter but the capacity test common.
    """
    n = draw(st.integers(2, 32))
    now = draw(st.integers(10 ** 9, 2 * 10 ** 9))
    cpu_ids = st.integers(0, n - 1)
    task = st.tuples(chance(15),                      # SCHED_IDLE
                     weights,
                     st.tuples(chance(30), st.frozensets(cpu_ids)).map(
                         lambda a: a[1] if a[0] else None),  # affinity
                     st.floats(0.0, 1024.0),          # util
                     st.integers(0, 2 * MSEC))     # time since migration
    cpu_spec = st.fixed_dictionaries({
        "current": st.tuples(chance(15), task).map(
            lambda t: None if t[0] else t[1]),
        "queued": st.lists(task, min_size=1, max_size=3),
        "in_sched": chance(10),
        "push_in": st.integers(-MSEC, MSEC),
        "failed": st.integers(0, 3),
        "touched_ago": st.one_of(st.just(0), st.integers(0, 10 ** 9)),
    })

    def per_cpu(values):
        """One of up to four drawn values for every vCPU."""
        palette = draw(st.lists(values, min_size=1, max_size=4))
        return [palette[i] for i in draw(st.lists(
            st.integers(0, len(palette) - 1), min_size=n, max_size=n))]

    cpus = [dict(spec) for spec in per_cpu(cpu_spec)]

    def capacities(top):
        """The strongest vCPU's capacity divided by a ratio per vCPU, so
        ratios at the thresholds are common."""
        caps = [top / r for r in per_cpu(ratios)]
        caps[draw(cpu_ids)] = top
        return caps

    # The default estimate (at most 1024) and the probed capacities are
    # drawn apart: the balancer must read the installed one.
    default = capacities(1024.0)
    provider = None
    if draw(st.booleans()):
        provider = capacities(draw(st.floats(0.0, 2048.0)))
    # Queued work sits on a few vCPUs at most, as in an idle-heavy VM,
    # so the paths that need empty queues are reached.
    loaded = draw(st.frozensets(cpu_ids))
    for c, spec in enumerate(cpus):
        if c not in loaded:
            spec["queued"] = []
    if draw(st.booleans()):
        # Every vCPU runs a task that every other filter admits, so the
        # capacity tests, and the early-outs in front of them, decide.
        for spec, util in zip(cpus, per_cpu(st.floats(0.0, 1024.0))):
            spec.update(current=(False, GUEST_NICE0_WEIGHT, None, util, 0),
                        queued=[], in_sched=False, push_in=0)
    # Domain spans are frozensets, which need not iterate in ascending
    # order (list(frozenset({8, 0})) == [8, 0]); the busiest-CPU tie-break
    # follows that order.
    span = draw(st.one_of(st.just(frozenset(range(n))),
                          st.frozensets(cpu_ids)))
    return {"n": n, "now": now, "cpus": cpus, "span": span,
            "default": default, "provider": provider,
            "idle": draw(st.booleans()), "smt": draw(st.booleans())}


def _decide(balancer_cls, world, me):
    """Run one ``_balance_span`` pass on vCPU ``me``; return everything it
    decided."""
    env = build_plain_vm(world["n"])
    kernel = env.kernel
    now = world["now"]
    env.engine.now = now
    if world["smt"]:
        n = world["n"]
        kernel.domains = SchedDomains.from_topology_lists(
            n, {c: frozenset({c, c ^ 1}) & set(range(n)) for c in range(n)},
            {c: frozenset(range(n)) for c in range(n)})

    def make(name, spec):
        idle, weight, allowed, util, since_migration = spec
        t = Task(kernel, name, _body, weight=weight, allowed=allowed,
                 policy=Policy.IDLE if idle else Policy.NORMAL)
        t.pelt.set_util(util, now - MSEC)
        t.last_migration_time = now - since_migration
        return t

    for cpu, spec, cap in zip(kernel.cpus, world["cpus"], world["default"]):
        for k, q in enumerate(spec["queued"]):
            cpu.rq.enqueue(make(f"q{cpu.index}.{k}", q))
        if spec["current"] is not None:
            cur = make(f"cur{cpu.index}", spec["current"])
            cur.state = TaskState.RUNNING
            cur.cpu = cpu
            cpu.current = cur
        cpu._in_sched = spec["in_sched"]
        cpu.next_active_push = now + spec["push_in"]
        cpu.balance_failed = spec["failed"]
        # The default estimator's invariant: its value is
        # (1 - steal average) * 1024, written with the average.
        cpu.steal_frac_avg = 1.0 - cap / 1024.0
        kernel.cfs_capacity[cpu.index] = (1.0 - cpu.steal_frac_avg) * 1024.0
        cpu._cap_touch = now - spec["touched_ago"]
    if world["provider"] is not None:
        kernel.capacity_provider = list(world["provider"])
    for cpu in kernel.cpus:
        assert cpu.rq.load() == _reference_load(cpu.rq)

    log = []
    read = kernel.capacity_of

    def capacity_of(i):
        value = read(i)
        if kernel.cpus[i].current is None:
            log.append(("capacity_of", i, value))
        return value

    kernel.capacity_of = capacity_of
    kernel.migrate_queued = lambda task, src, dst, reason: log.append(
        ("pull", task.name, src.index, dst.index, reason))
    kernel.active_balance = lambda src, dst: log.append(
        ("active", src.current.name, src.index, dst.index))
    pulled = balancer_cls(kernel)._balance_span(
        kernel.cpus[me], world["span"] | {me}, now, world["idle"])
    after = [(c.balance_failed, c.next_active_push, c.steal_frac_avg,
              c._cap_touch) for c in kernel.cpus]
    for cpu in kernel.cpus:  # the default estimator's invariant still holds
        assert kernel.cfs_capacity[cpu.index] == (
            1.0 - cpu.steal_frac_avg) * 1024.0
    return pulled, log, after, list(kernel.cfs_capacity)


def _edge_world(ratio: float, probed: bool) -> dict:
    """Four vCPUs, each running a task every filter admits; vCPU 0 is
    ``ratio`` times stronger than the other three."""
    busy = {"current": (False, GUEST_NICE0_WEIGHT, None, 1024.0, 0),
            "queued": [], "in_sched": False, "push_in": 0, "failed": 2,
            "touched_ago": 0}
    caps = [1024.0] + [1024.0 / ratio] * 3
    return {"n": 4, "now": 10 ** 9, "cpus": [dict(busy) for _ in range(4)],
            "span": frozenset(range(4)), "default": caps,
            "provider": caps if probed else None, "idle": True,
            "smt": False}


def _tie_world() -> dict:
    """vCPUs 0 and 8 queue one equal task each, and the span iterates 8
    first (``list(frozenset({8, 0})) == [8, 0]``): the first-max
    tie-break pulls from vCPU 8."""
    idle = {"current": None, "queued": [], "in_sched": False, "push_in": 0,
            "failed": 0, "touched_ago": 0}
    loaded = dict(idle, queued=[(False, GUEST_NICE0_WEIGHT, None, 0.0,
                                 2 * MSEC)])
    cpus = [dict(loaded if c in (0, 8) else idle) for c in range(9)]
    return {"n": 9, "now": 10 ** 9, "cpus": cpus,
            "span": frozenset({8, 0}), "default": [1024.0] * 9,
            "provider": None, "idle": True, "smt": False}


def _at_the_edges(test):
    """Run ``test`` on the tie-break world and on every edge ratio,
    under both estimators, besides the drawn worlds."""
    test = example(_tie_world())(test)
    for ratio in _EDGE_RATIOS:
        for probed in (False, True):
            test = example(_edge_world(ratio, probed))(test)
    return test


class TestBalancerEarlyOuts:
    @given(balance_worlds())
    @_at_the_edges
    @settings(max_examples=200, deadline=None)
    def test_same_decisions_as_the_rescanning_balancer(self, world):
        for me in range(world["n"]):
            assert (_decide(LoadBalancer, world, me)
                    == _decide(_RescanningBalancer, world, me))
