"""Regression tests for scheduler bugs found (and fixed) during development.

Each test pins a specific failure mode:

1. stale ``min_vruntime`` letting a waking entity monopolize the CPU;
2. dispatcher re-entrancy corrupting ``current`` during the interpreter;
3. active-balance hand-off losing a task (RUNNING with no CPU);
4. ``wake()`` discarding the residual work of a task evicted mid-``Run``;
5. new-idle balance stealing an ivh-migrated task straight back;
6. vcap probers phase-locking every core's co-runner schedule.
"""

import pytest

from repro.cluster import attach_scheduler, build_plain_vm, make_context, run_to_completion
from repro.guest import Channel, GuestKernel, Mutex, Policy, TaskState
from repro.hw import HostTopology
from repro.hypervisor import Machine
from repro.sim import Engine, MSEC, SEC, USEC


def test_min_vruntime_tracks_long_running_entity():
    """A host entity that runs for a long time without rescheduling must
    not leave min_vruntime stale: a newly woken competitor would otherwise
    inherit unbounded credit and monopolize the thread."""
    eng = Engine()
    m = Machine(eng, HostTopology(1, 1, smt=1), host_slice_ns=4 * MSEC)
    a = m.add_host_task("a", pinned=(0,))
    eng.run_until(900 * MSEC)  # a runs alone, no rescheduling at all
    b = m.add_host_task("b", pinned=(0,))
    t0 = eng.now
    eng.run_until(t0 + 100 * MSEC)
    # b must not get more than ~half plus one sleeper-credit slice.
    assert b.run_ns(eng.now) - b.run_ns(t0) < 60 * MSEC


def test_unlock_wake_onto_own_cpu_does_not_corrupt_current():
    """A task releasing a lock wakes a waiter that may be placed on the
    *same* CPU; the wake path re-entering the dispatcher used to clobber
    ``current`` and leave a RUNNING task with no CPU."""
    env = build_plain_vm(1)
    m = Mutex("m")
    finished = []

    def body(name):
        def gen(api):
            for _ in range(30):
                yield api.lock(m)
                yield api.run(200 * USEC)
                yield api.unlock(m)
                yield api.run(100 * USEC)
            finished.append(name)
        return gen

    for i in range(3):
        env.kernel.spawn(body(i), f"t{i}", cpu=0, allowed=(0,))
    env.engine.run_until(5 * SEC)
    assert len(finished) == 3
    # Invariant: nobody is RUNNING without being some CPU's current.
    for t in env.kernel.tasks:
        if t.state == TaskState.RUNNING:
            assert t.cpu is not None and t.cpu.current is t


def test_no_task_is_running_without_a_cpu_under_churn():
    """Heavy balancing churn (pipelines + contention + misfit pushes) must
    never leave a task in the RUNNING state unattached."""
    env = build_plain_vm(8, host_slice_ns=4 * MSEC)
    from repro.hypervisor.entity import weight_for_nice
    env.machine.add_host_task("hog", weight=weight_for_nice(-10), pinned=(0,))
    vs = attach_scheduler(env, "vsched")
    ctx = make_context(env, vs, "churn")
    env.engine.run_until(6 * SEC)
    from repro.workloads import build_parsec
    wl = build_parsec("dedup", threads=8, scale=0.06)
    wl.start(ctx)
    bad = []
    stop = env.engine.now + 3 * SEC

    def check():
        for t in wl.tasks:
            if t.state == TaskState.RUNNING:
                if t.cpu is None or t.cpu.current is not t:
                    bad.append((env.engine.now, t.name))
        if env.engine.now < stop and not wl.done:
            env.engine.call_in(3 * MSEC, check)

    env.engine.call_in(3 * MSEC, check)
    env.engine.run_until(stop)
    assert not bad


def test_eviction_mid_run_preserves_remaining_work():
    """A task evicted from its CPU in the middle of a Run action (cpuset
    change) must finish the remaining work, not skip it."""
    env = build_plain_vm(4)
    g = env.kernel.new_group("g")
    done = []

    def body(api):
        yield api.run(100 * MSEC)
        done.append(api.now())

    t = env.kernel.spawn(body, "t", group=g, cpu=0)
    env.engine.run_until(30 * MSEC)
    assert not done
    g.set_allowed(frozenset({3}))
    env.kernel.apply_cpuset(g)
    env.engine.run_until(SEC)
    assert done
    # 30 ms ran on CPU0 + ~70 ms on CPU3 (+ migration slack).
    assert done[0] == pytest.approx(100 * MSEC, rel=0.05)
    assert t.stats.work_done >= 100 * MSEC - 1


def test_ivh_migration_not_stolen_back_by_newidle_balance():
    """After an ivh migration the source goes idle; its new-idle balance
    must not immediately steal the task back (cache-hot cooldown)."""
    env = build_plain_vm(4, host_slice_ns=5 * MSEC)
    for i in range(4):
        env.machine.add_host_task(f"c{i}", pinned=(i,))
    vs = attach_scheduler(env, "vsched")
    ctx = make_context(env, vs, "steal-back")
    env.engine.run_until(4 * SEC)
    done = []

    def burn(api):
        yield api.run(500 * MSEC)
        done.append(api.now())

    env.kernel.spawn(burn, "burn", group=vs.workload_group, initial_util=900)
    env.engine.run_until(30 * SEC)
    assert done
    # Harvesting must actually pay off — if migrations bounce straight
    # back, elapsed degenerates to the ~1 s stalled baseline.
    elapsed = done[0] - 4 * SEC
    assert elapsed < 750 * MSEC
    assert env.kernel.stats.ivh_migrations > 20


def test_vcap_windows_do_not_phase_lock_corunners():
    """Prober spawns are staggered: co-runner activity across cores must
    not end up synchronized (which would make harvesting impossible and
    is an artifact, not physics)."""
    env = build_plain_vm(4, host_slice_ns=5 * MSEC)
    for i in range(4):
        env.machine.add_host_task(f"c{i}", pinned=(i,))
    vs = attach_scheduler(env, "enhanced")
    ctx = make_context(env, vs, "lockstep")
    env.engine.run_until(5 * SEC + 50 * MSEC)  # inside a sampling window
    # Sample joint activity: with staggered probers, "all four vCPUs
    # simultaneously inactive" should be rare.
    all_inactive = 0
    samples = 0

    def sample():
        nonlocal all_inactive, samples
        samples += 1
        if not any(v.active for v in env.vm.vcpus):
            all_inactive += 1
        if samples < 80:
            env.engine.call_in(USEC * 700, sample)

    env.engine.call_in(0, sample)
    env.engine.run_until(env.engine.now + 70 * MSEC)
    assert samples >= 80
    assert all_inactive < samples * 0.5


def test_wake_affinity_domain_load_is_capacity_normalized():
    """fig19 regression: once vtop installs real LLC domains *and* vcap
    reports real per-vCPU capacities, raw task counts misrank domains —
    wake affinity then crams communicating tasks onto a low-capacity
    socket that merely *queues* fewer tasks.  Domain load must be the
    capacity-normalized comparison of update_sg_lb_stats."""
    from repro.guest.domains import DomainLevel, SchedDomains

    env = build_plain_vm(8, sockets=2)
    env.kernel.domains = SchedDomains(8, [
        DomainLevel("llc", [range(0, 4), range(4, 8)]),
        DomainLevel("machine", [range(8)]),
    ])
    env.kernel.capacity_provider = [1024.0 if c < 4 else 256.0
                                    for c in range(8)]

    def spin(api):
        while True:
            yield api.run(MSEC)

    # Two tasks queued in the strong socket, one in the weak socket.
    env.kernel.spawn(spin, "s0", cpu=0, allowed=(0,))
    env.kernel.spawn(spin, "s1", cpu=1, allowed=(1,))
    env.kernel.spawn(spin, "w0", cpu=4, allowed=(4,))
    env.engine.run_until(10 * MSEC)
    placer = env.kernel.placer
    strong = env.kernel.domains.llc_domain(0)
    weak = env.kernel.domains.llc_domain(4)
    # Raw counts say the strong socket (2 tasks) is busier than the weak
    # one (1 task); per unit of capacity it is the other way around.
    assert placer._domain_load(weak) > placer._domain_load(strong)


def test_wake_affinity_domain_load_reduces_to_counts_when_uniform():
    """With uniform capacities the normalized load must equal the raw
    task count — the CFS-baseline behaviour fig18/fig19 rely on."""
    from repro.guest.domains import DomainLevel, SchedDomains

    env = build_plain_vm(8, sockets=2)
    env.kernel.domains = SchedDomains(8, [
        DomainLevel("llc", [range(0, 4), range(4, 8)]),
        DomainLevel("machine", [range(8)]),
    ])

    def spin(api):
        while True:
            yield api.run(MSEC)

    env.kernel.spawn(spin, "s0", cpu=0, allowed=(0,))
    env.kernel.spawn(spin, "s1", cpu=1, allowed=(1,))
    env.engine.run_until(5 * MSEC)
    placer = env.kernel.placer
    strong = env.kernel.domains.llc_domain(0)
    raw = sum(env.kernel.cpus[c].rq.nr_total() for c in strong)
    assert placer._domain_load(strong) == pytest.approx(raw)
