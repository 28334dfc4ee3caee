"""Snapshot/fork determinism: a forked world resumes byte-identically.

The warm-start contract (docs/INTERNALS.md §15) has three layers, each
tested here against its cold-path twin:

* engine layer — ``Engine.snapshot()/restore()`` replay the identical
  event sequence;
* world layer — :class:`WorldSnapshot` pickles engine + roots into one
  image, the guard rejects unsafe callbacks loudly, the freeze rejects
  a closure anywhere else in the world, every task-body rule of
  ``Task.__getstate__`` holds, and every fork resumes byte-identically
  to a cold run (under vsched and under plain CFS) independent of its
  siblings and of the frozen image, with its kernel reading the fork's
  own vSched capacity list, its events counted in ``Engine.counters()``,
  its hot-path objects keeping their attributes inline and its new
  tasks numbered as a cold run numbers them;
* store layer — :class:`SnapshotStore` keys on
  (code fingerprint, prefix, fast), hits after one miss, and
  ``execute_unit`` produces identical results with snapshotting on and
  off;
* campaign layer — ``run_units`` hands its ``snapshot`` argument to pool
  workers, and falls back to ``$VSCHED_REPRO_SNAPSHOT`` only when the
  argument is omitted; a pooled campaign builds each prefix once and
  counts what a serial one counts, also when the building worker dies;
  an experiment's ``run(fast=)`` wrapper forks the prefixes a campaign
  of the same mode already built.
"""

from __future__ import annotations

import _thread
import copy
import gc
import inspect
import os
import pickle
import signal
import sys
import threading
import types
from functools import partial

import pytest

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments import parallel
from repro.experiments.common import (EXPERIMENTS, Table, load_experiment,
                                     run_experiment)
from repro.experiments.figA1_antagonists import _spin
from repro.experiments.snapstore import (
    PrefixSpec,
    SnapshotStore,
    execute_unit,
    prefix_store_key,
    process_store,
    reset_process_store,
)
from repro.experiments.units import WorkUnit, execute_serial
from repro.guest.cpu import GuestCpu
from repro.guest.runqueue import CfsRunqueue
from repro.guest.task import Policy, StatefulBody, Task, TaskState
from repro.hypervisor.runqueue import HostRunqueue
from repro.hypervisor.vcpu import VCpuThread
from repro.sim.engine import MSEC, SEC, Engine
from repro.sim.rng import make_rng, rng_signature
from repro.sim.snapshot import (SnapshotError, WorldSnapshot, _setattr_state,
                                guard_world)
from repro.workloads import SysbenchCpu

FP = "f" * 64  # stand-in code fingerprint (key tests only)


# ----------------------------------------------------------------------
# A compact but fully real world: 4-vCPU VM, vsched, 2 stressor threads.
# ----------------------------------------------------------------------
def _world(seed: str = "snaptest", mode: str = "vsched",
           event_work_ns: int = 500_000):
    env = build_plain_vm(4)
    env.machine.add_host_task("stress0", pinned=(0,))
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, seed=seed)
    wl = SysbenchCpu(threads=2, event_work_ns=event_work_ns)
    wl.start(ctx)
    return {"engine": env.engine, "env": env, "vs": vs, "ctx": ctx,
            "wl": wl}


def _sig(roots):
    """Everything a divergent fork could corrupt, in one tuple."""
    env, wl, ctx = roots["env"], roots["wl"], roots["ctx"]
    return (env.engine.now, env.engine.events_fired, wl.events,
            env.kernel.stats.migrations, rng_signature(ctx.rng))


# The engine's event store, by name: every fork must own a separate copy.
_STORE = [pytest.param(lambda eng: eng._heap, id="heap")]


# The default world, and a long-chunk CFS world whose guest ticks run
# without vsched's 1 ms prober cadence.
_WORLDS = [pytest.param({}, id="default"),
           pytest.param({"mode": "cfs", "event_work_ns": 20 * MSEC},
                        id="cfs-long-chunk")]


@pytest.mark.parametrize("store", _STORE)
@pytest.mark.parametrize("world", _WORLDS)
class TestForkMatchesColdRun:
    def test_fork_resumes_byte_identically(self, store, world):
        cold = _world(**world)
        cold["engine"].run_until(2 * SEC)
        want = _sig(cold)

        warm = _world(**world)
        warm["engine"].run_until(1 * SEC)
        snap = WorldSnapshot(warm["engine"], warm)
        at_freeze = _sig(warm)

        # Two sibling forks, both run to the cold horizon.
        for _ in range(2):
            _eng, fork = snap.fork()
            assert store(fork["engine"]) is not store(warm["engine"])
            fork["engine"].run_until(2 * SEC)
            assert _sig(fork) == want
        # The original world and the frozen image are untouched by the
        # forks' divergence.
        assert _sig(warm) == at_freeze


class TestForkRebindsCapacityProvider:
    def test_fork_list_follows_fork_store(self):
        """The kernel reads vSched's per-CPU capacity list directly; a
        fork's kernel must read the fork's list, which follows the fork's
        store, while the frozen world's list does not move."""
        warm = _world()
        warm["engine"].run_until(1 * SEC)
        snap = WorldSnapshot(warm["engine"], warm)
        frozen = list(warm["vs"].module.capacities)

        _eng, fork = snap.fork()
        kernel, module = fork["env"].kernel, fork["vs"].module
        assert kernel.capacity_provider is module.capacities
        assert module.capacities is not warm["vs"].module.capacities
        module.publish_capacity(1, 100.0)
        assert module.capacities[1] == module.store[1].capacity != frozen[1]
        assert kernel.capacity_of(1) == module.store[1].capacity

        assert warm["vs"].module.capacities == frozen
        assert warm["env"].kernel.capacity_of(1) == frozen[1]
        _eng, sibling = snap.fork()
        assert sibling["vs"].module.capacities == frozen


class TestForkCounters:
    def test_fork_counts_into_the_process_counters(self):
        """``Engine.counters()`` sums every engine in the process, forks
        included: the image holds no copy of the counters for a fork to
        count into.  A fork run counts the events its engine fired, the
        pushes it made, and the cancels its cold twin makes."""
        def run_to_2s(engine):
            before = Engine.counters()
            engine.run_until(2 * SEC)
            return {k: v - before[k] for k, v in Engine.counters().items()}

        cold = _spin_world()
        cold["engine"].run_until(1 * SEC)
        cold_delta = run_to_2s(cold["engine"])

        warm = _spin_world()
        warm["engine"].run_until(1 * SEC)
        eng, _fork = WorldSnapshot(warm["engine"], warm).fork()
        fired0, seq0 = eng.events_fired, eng._seq
        delta = run_to_2s(eng)
        assert delta["fired"] == eng.events_fired - fired0 > 0
        assert delta["pushes"] == eng._seq - seq0 > 0
        assert delta["cancels"] == cold_delta["cancels"] > 0
        assert delta == cold_delta


class TestTaskIds:
    def test_tids_follow_the_world_not_the_process(self):
        """Each kernel numbers its own tasks: two cold runs of one world
        in one process and a fork of it give every task the same tid,
        the tasks spawned after the divergence point included."""
        def tids(roots):
            SysbenchCpu(threads=2, event_work_ns=500_000).start(roots["ctx"])
            roots["engine"].run_until(2 * SEC)
            return [t.tid for t in roots["env"].kernel.tasks]

        runs = []
        for _ in range(2):
            cold = _world()
            cold["engine"].run_until(1 * SEC)
            runs.append(tids(cold))
        warm = _world()
        warm["engine"].run_until(1 * SEC)
        _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
        runs.append(tids(fork))
        assert len(runs[0]) > 4
        assert runs[0] == runs[1] == runs[2]


class TestEngineRestore:
    def test_restore_replays_identical_event_sequence(self):
        roots = _world()
        eng = roots["engine"]
        eng.run_until(1 * SEC)
        frozen = eng.snapshot()
        eng.run_until(2 * SEC)
        first = (eng.now, eng.events_fired)

        eng.restore(frozen)
        assert (eng.now, eng.events_fired) != first
        eng.run_until(2 * SEC)
        assert (eng.now, eng.events_fired) == first

    def test_snapshot_refused_while_running(self):
        eng = Engine()
        seen = []

        def freeze_mid_run():
            with pytest.raises(RuntimeError, match="running"):
                eng.snapshot()
            seen.append("tried")

        eng.call_at(10, freeze_mid_run)
        eng.run_until(20)
        assert seen == ["tried"]


class TestGuard:
    def test_closure_callback_is_named(self):
        eng = Engine()
        leak = []
        eng.call_at(1000, lambda: leak.append(1))
        with pytest.raises(SnapshotError) as exc:
            guard_world(eng)
        assert "closure" in str(exc.value)
        assert "t=1000" in str(exc.value)

    def test_all_offenders_reported_at_once(self):
        eng = Engine()
        a, b = [], []
        eng.call_at(1, lambda: a.append(1))
        eng.call_at(2, lambda: b.append(1))
        eng.call_at(3, b.append)  # bound builtin: shares the receiver
        with pytest.raises(SnapshotError) as exc:
            guard_world(eng)
        msg = str(exc.value)
        assert msg.count("closure") == 2
        assert "bound builtin" in msg

    def test_cancelled_offenders_are_ignored(self):
        eng = Engine()
        ev = eng.call_at(1, lambda: None)
        ev.cancel()
        guard_world(eng)  # does not raise

    def test_real_world_is_guard_clean(self):
        roots = _world()
        roots["engine"].run_until(1 * SEC)
        guard_world(roots["engine"])  # does not raise


class TestClosureOutsideTheHeap:
    def test_listener_closure_fails_the_freeze(self):
        """guard_world vets only pending events.  A lambda in a vCPU's
        activity listeners used to freeze and be shared by every fork,
        which then called it with the fork's vCPUs against the original
        world's state; pickle cannot name it, so the freeze fails."""
        warm = _world()
        warm["engine"].run_until(1 * SEC)
        seen = []
        for vcpu in warm["env"].vm.vcpus:
            vcpu.activity_listeners.append(lambda v, on, now: seen.append(now))
        guard_world(warm["engine"])  # the heap holds no closure
        with pytest.raises(SnapshotError) as exc:
            WorldSnapshot(warm["engine"], warm)
        msg = str(exc.value)
        assert "test_listener_closure_fails_the_freeze.<locals>.<lambda>" \
            in msg, msg

    def test_live_generator_is_named(self):
        warm = _world()
        warm["engine"].run_until(1 * SEC)
        warm["wl"].pending = (n for n in range(3))
        with pytest.raises(SnapshotError,
                           match="cannot pickle live generator "
                                 "'.*test_live_generator_is_named"
                                 ".<locals>.<genexpr>'"):
            WorldSnapshot(warm["engine"], warm)


# ----------------------------------------------------------------------
# Task-body rules (Task.__getstate__ / __setstate__), through the freeze.
# ----------------------------------------------------------------------
def _bursts(api):
    """A plain (unregistered) generator body with state in its frame."""
    for _ in range(1000):
        yield api.run(1 * MSEC)
        yield api.sleep(2 * MSEC)


def _closure_factory(n: int):
    def body(api):
        for _ in range(n):
            yield api.run(1 * MSEC)
    return body


def _task_sig(roots):
    kernel = roots["env"].kernel
    return (roots["engine"].now, roots["engine"].events_fired,
            [(t.name, t.state, t.stats.work_done, t.stats.dispatches)
             for t in kernel.tasks])


class _Countdown(StatefulBody):
    """Runs ``chunks`` 1 ms chunks, then exits (an explicit state machine)."""

    def __init__(self, api, chunks: int):
        self.api = api
        self.left = chunks

    def send(self, value):
        if self.left == 0:
            raise StopIteration
        self.left -= 1
        return self.api.run(1 * MSEC)


def _spin_world():
    """A CFS VM: vCPU 0 runs figA1's @restartable_body spinner, vCPU 1 a
    StatefulBody that exits at about 1.5 s."""
    env = build_plain_vm(2)
    env.machine.add_host_task("stress0", pinned=(0,))
    env.kernel.spawn(_spin, name="spin0", cpu=0, allowed=(0,))
    env.kernel.spawn(partial(_Countdown, chunks=1500), name="countdown",
                     cpu=1, allowed=(1,))
    return {"engine": env.engine, "env": env}


def _fork_and_compare(build, prepare=None):
    """Freeze ``build()`` at 1 s (after ``prepare``), fork it, and check
    that the fork runs to 2 s like a cold world prepared the same way."""
    cold = build()
    cold["engine"].run_until(1 * SEC)
    if prepare is not None:
        prepare(cold)
    cold["engine"].run_until(2 * SEC)

    warm = build()
    warm["engine"].run_until(1 * SEC)
    if prepare is not None:
        prepare(warm)
    _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
    fork["engine"].run_until(2 * SEC)
    assert _task_sig(fork) == _task_sig(cold)
    return fork


def _queue_behind_countdown(roots, factory, name):
    """Spawn a SCHED_IDLE task on vCPU 1: it does not preempt the
    countdown on wakeup, so its generator has not started yet."""
    task = roots["env"].kernel.spawn(factory, name=name, policy=Policy.IDLE,
                                     cpu=1, allowed=(1,))
    assert inspect.getgeneratorstate(task.body) == inspect.GEN_CREATED


class TestTaskBodyRules:
    def test_restartable_body_forks_like_a_cold_run(self):
        fork = _fork_and_compare(_spin_world)
        spin, countdown = fork["env"].kernel.tasks
        assert spin.factory is _spin and spin.stats.work_done > 0
        assert countdown.state is TaskState.EXITED

    def test_never_started_generator_forks_like_a_cold_run(self):
        fork = _fork_and_compare(
            _spin_world, prepare=lambda roots: _queue_behind_countdown(
                roots, _bursts, "bursts"))
        task = fork["env"].kernel.tasks[-1]
        assert task.name == "bursts" and task.stats.work_done > 0

    def test_suspended_plain_generator_is_named_at_freeze(self):
        warm = _spin_world()
        warm["env"].kernel.spawn(_bursts, name="bursts", cpu=1)
        warm["engine"].run_until(1 * SEC)
        assert warm["env"].kernel.tasks[-1].stats.work_done > 0
        with pytest.raises(SnapshotError,
                           match="task 'bursts' is suspended inside a "
                                 "plain generator body"):
            WorldSnapshot(warm["engine"], warm)

    def test_closure_factory_is_named_at_freeze(self):
        warm = _spin_world()
        warm["engine"].run_until(1 * SEC)
        _queue_behind_countdown(warm, _closure_factory(5), "closed")
        with pytest.raises(SnapshotError,
                           match="task 'closed': body factory "
                                 "'_closure_factory.<locals>.body' is a "
                                 "closure"):
            WorldSnapshot(warm["engine"], warm)

    def test_exited_vtop_probe_keeps_neither_body_nor_factory(self):
        """vtop's pair probes exit during the warm-up, and their factory
        is a closure pickle cannot name: the image drops it."""
        warm = _world()
        warm["engine"].run_until(1 * SEC)
        probes = [t for t in warm["env"].kernel.tasks
                  if t.name.startswith("vtop-")]
        assert probes and all(t.state is TaskState.EXITED for t in probes)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(probes[0].factory)

        cold = _world()
        cold["engine"].run_until(2 * SEC)
        _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
        forked = [t for t in fork["env"].kernel.tasks
                  if t.name.startswith("vtop-")][:len(probes)]
        assert all(t.body is None and t.factory is None for t in forked)
        fork["engine"].run_until(2 * SEC)
        assert _sig(fork) == _sig(cold)
        assert _task_sig(fork) == _task_sig(cold)


class _Plain:
    def __init__(self):
        self.a = 1


class _Slotted:
    __slots__ = ("a",)


class _DictSubclass(dict):
    pass


def _inline(obj, name):
    """``obj.name`` is held inline: an object with a materialised
    ``__dict__`` shows the garbage collector the dict instead of its
    attribute values (CPython 3.11+)."""
    value = getattr(obj, name)
    return any(ref is value for ref in gc.get_referents(obj))


class TestSetattrRestore:
    def test_only_plain_instances_restore_by_setattr(self):
        """The image's ``(None, state)`` form is for classes whose pickle
        default is ``__new__`` plus a ``__dict__`` update; everything
        else keeps its own reduction."""
        assert _setattr_state(_Plain)(_Plain()) == {"a": 1}
        eng = Engine()
        assert _setattr_state(Engine)(eng) is eng.__dict__
        for cls in (Task, _Slotted, _DictSubclass, dict, list, type,
                    types.FunctionType):
            assert _setattr_state(cls) is None, cls

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="inline attribute values are CPython 3.11+")
    def test_fork_keeps_attributes_inline(self):
        """An object restored by a ``__dict__`` update keeps a dict, and
        reads its attributes slower; the garbage collector then sees the
        dict instead of the attribute values."""
        warm = _spin_world()
        warm["engine"].run_until(1 * SEC)
        _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
        assert _inline(fork["env"].kernel, "engine")
        assert _inline(fork["engine"], "_heap")
        assert _inline(fork["env"].kernel.tasks[1].body, "api")

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="inline attribute values are CPython 3.11+")
    def test_hot_path_objects_keep_attributes_inline(self):
        """The objects every event reads keep their attributes inline,
        cold and forked: ``Task`` through ``__slots__``, the others by
        setting at most 30 attributes, CPython 3.11's inline limit, so a
        31st attribute fails here instead of slowing every read."""
        def hot_path_objects(world):
            env = world["env"]
            cpu = env.kernel.cpus[0]
            return [(env.kernel.tasks[0], "stats"), (cpu, "rq"),
                    (cpu.rq, "normal"), (cpu.vcpu, "activity_listeners"),
                    (env.machine.runqueues[0], "waiting"),
                    (world["engine"], "_heap")]

        warm = _spin_world()
        warm["engine"].run_until(1 * SEC)
        # Checked before the freeze, which reads (and so materialises)
        # the original world's instance dicts.
        cold = hot_path_objects(warm)
        assert [type(obj) for obj, _name in cold] == [
            Task, GuestCpu, CfsRunqueue, VCpuThread, HostRunqueue, Engine]
        assert [type(obj).__name__ for obj, name in cold
                if not _inline(obj, name)] == []

        _eng, fork = WorldSnapshot(warm["engine"], warm).fork()
        fork["engine"].run_until(2 * SEC)
        assert [type(obj).__name__ for obj, name in hot_path_objects(fork)
                if not _inline(obj, name)] == []


class TestRngFork:
    def test_fork_copies_stream_then_diverges_identically(self):
        rng = make_rng("snap-rng")
        rng.normal()
        sig = rng_signature(rng)
        clone = copy.deepcopy(rng)
        assert rng_signature(clone) == sig
        assert clone.normal() == rng.normal()
        assert rng_signature(clone) == rng_signature(rng) != sig


# ----------------------------------------------------------------------
# Store keying and accounting, on a synthetic (cheap) prefix.
# ----------------------------------------------------------------------
class _Ticker:
    """Periodic bound-method event source — deep-copy safe by design."""

    def __init__(self, engine: Engine, period: int):
        self.engine = engine
        self.period = period
        self.count = 0
        engine.call_in(period, self._tick)

    def _tick(self):
        self.count += 1
        self.engine.call_in(self.period, self._tick)


def _ticker_prefix(period: int):
    eng = Engine()
    ticker = _Ticker(eng, period)
    eng.run_until(10 * period)
    return {"engine": eng, "ticker": ticker}


def _ticker_unit(roots, horizon: int):
    roots["engine"].run_until(horizon)
    return (roots["engine"].now, roots["ticker"].count)


_SPEC = PrefixSpec(key="ticker", func=_ticker_prefix, config=(100,),
                   seed="t-100")


class TestStoreKey:
    def test_chain_fast_and_fingerprint_isolate(self):
        base = prefix_store_key(_SPEC, True, FP)
        assert prefix_store_key(_SPEC, True, FP) == base
        assert prefix_store_key(_SPEC, False, FP) != base
        assert prefix_store_key(_SPEC, True, "a" * 64) != base
        other = PrefixSpec(key="ticker", func=_ticker_prefix, config=(200,),
                           seed="t-100")
        assert prefix_store_key(other, True, FP) != base


class TestSnapshotStore:
    def test_miss_then_hit_accounting(self):
        store = SnapshotStore()
        store.fork(_SPEC, True, FP)
        store.fork(_SPEC, True, FP)
        assert (store.misses, store.hits, store.forks) == (1, 1, 2)
        assert store.build_seconds > 0

    def test_forks_are_independent(self):
        store = SnapshotStore()
        a = store.fork(_SPEC, True, FP)
        b = store.fork(_SPEC, True, FP)
        a["engine"].run_until(20_000)
        assert b["ticker"].count == 10  # sibling unmoved by a's divergence
        b["engine"].run_until(20_000)
        assert a["ticker"].count == b["ticker"].count == 200


class TestExecuteUnit:
    @pytest.fixture(autouse=True)
    def fresh_store(self):
        reset_process_store()
        yield
        reset_process_store()

    def test_prefixless_unit_is_plain_call(self):
        assert execute_unit(int, ("7",), None, True) == 7

    def test_on_and_off_paths_agree(self):
        forked = [execute_unit(_ticker_unit, (h,), _SPEC, True,
                               snapshot=True)
                  for h in (2_000, 3_000)]
        on_store = process_store()
        assert (on_store.hits, on_store.misses) == (1, 1)
        assert on_store.cold_builds == 0

        reset_process_store()
        cold = [execute_unit(_ticker_unit, (h,), _SPEC, True,
                             snapshot=False)
                for h in (2_000, 3_000)]
        off_store = process_store()
        assert off_store.cold_builds == 2
        assert (off_store.hits, off_store.misses, off_store.forks) == \
            (0, 0, 0)
        assert forked == cold == [(2_000, 20), (3_000, 30)]


# ----------------------------------------------------------------------
# Campaign layer: run_units hands the mode to every worker.
# ----------------------------------------------------------------------
def _ticker_assemble(fast, results):
    table = Table("figsnap", "ticker", ["now", "count"])
    for now, count in results:
        table.add(now, count)
    return table


def _install_ticker(monkeypatch, *prefixes: PrefixSpec,
                    horizons=(2_000, 3_000)) -> None:
    """Register figsnap: for each of ``prefixes``, one unit per horizon."""
    units = [WorkUnit(exp_id="figsnap", label=f"p{i}-h{h}",
                      func=_ticker_unit, config=(h,),
                      seed=f"figsnap-{h}", prefix=prefix)
             for i, prefix in enumerate(prefixes) for h in horizons]
    mod = types.ModuleType("_vsched_fake_snapshot")
    mod.scenarios = lambda fast: list(units)
    mod.assemble = _ticker_assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, "_vsched_fake_snapshot", mod)
    monkeypatch.setitem(EXPERIMENTS, "figsnap", "_vsched_fake_snapshot")


@pytest.fixture
def ticker_experiment(monkeypatch):
    """A two-unit experiment whose units share the ticker prefix."""
    _install_ticker(monkeypatch, _SPEC)
    reset_process_store()
    yield
    reset_process_store()


def _ticker_prefix_killed_once(marker: str, period: int):
    """The ticker prefix, after SIGKILLing the building worker on the
    first attempt (pooled only: in-process it would kill the runner)."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _ticker_prefix(period)


def _pooled_within(seconds: float, exp_id: str, jobs: int = 2):
    """Run ``exp_id`` on ``jobs`` workers; fail the test if the campaign
    is still running after ``seconds``."""
    timer = threading.Timer(seconds, _thread.interrupt_main)
    timer.start()
    try:
        res, = parallel.run_units([exp_id], fast=True, jobs=jobs)
    except parallel.CampaignInterrupted as exc:
        pytest.fail(f"campaign did not finish within {seconds} s ({exc})")
    finally:
        timer.cancel()
    return res


class TestCampaignSnapshotMode:
    def test_pooled_workers_receive_the_mode(self, ticker_experiment):
        forked, = parallel.run_units(["figsnap"], fast=True, jobs=2,
                                     snapshot=True)
        cold, = parallel.run_units(["figsnap"], fast=True, jobs=2,
                                   snapshot=False)
        assert cold.counters["snap_cold_builds"] == 2
        assert cold.counters["snap_forks"] == 0
        assert cold.rendered == forked.rendered

    def test_environment_is_the_default_only(self, monkeypatch,
                                             ticker_experiment):
        monkeypatch.setenv("VSCHED_REPRO_SNAPSHOT", "0")
        res, = parallel.run_units(["figsnap"], fast=True, jobs=1)
        assert res.counters["snap_cold_builds"] == 2
        assert res.counters["snap_forks"] == 0
        # An explicit argument wins over the environment.
        res, = parallel.run_units(["figsnap"], fast=True, jobs=1,
                                  snapshot=True)
        assert res.counters["snap_cold_builds"] == 0
        assert res.counters["snap_forks"] == 2


class TestPooledPrefixes:
    """A pooled campaign builds each prefix once, in the first unit of
    the prefix in dispatch order, and relays the image to the other
    workers, so its counts equal a serial campaign's."""

    def test_pooled_campaign_builds_each_prefix_once(self,
                                                     ticker_experiment):
        serial, = parallel.run_units(["figsnap"], fast=True, jobs=1)
        # The workers fork from this process, whose store now holds the
        # prefix; each starts with an empty store all the same.
        pooled = _pooled_within(60.0, "figsnap")
        assert pooled.counters["snap_misses"] == 1
        assert pooled.counters["snap_hits"] == 1
        assert pooled.events_fired == serial.events_fired == 40
        for key in ("pushes", "cancels", "snap_misses", "snap_hits",
                    "snap_forks"):
            assert pooled.counters[key] == serial.counters[key], key
        assert pooled.table.rows == serial.table.rows

    def test_a_builder_that_dies_does_not_strand_its_prefix(
            self, monkeypatch, tmp_path):
        marker = str(tmp_path / "killed")
        _install_ticker(monkeypatch, PrefixSpec(
            key="ticker", func=_ticker_prefix_killed_once,
            config=(marker, 100), seed="t-100"))
        reset_process_store()
        try:
            pooled = _pooled_within(60.0, "figsnap")
            assert parallel.last_campaign_stats().requeues == 1
            # The first unit claimed the build and died; the held second
            # unit then built the prefix, and the first one's retry
            # forked it.
            assert pooled.ok
            assert [u["attempts"] for u in pooled.unit_stats] == [2, 1]
            reset_process_store()
            serial, = parallel.run_units(["figsnap"], fast=True, jobs=1)
            assert pooled.table.rows == serial.table.rows
            assert pooled.rendered == serial.rendered
        finally:
            reset_process_store()

    def test_more_workers_than_cores_still_build_each_prefix_once(
            self, monkeypatch):
        """3 workers on 12 units of 3 prefixes: a second build of any
        prefix would show as a fourth miss."""
        _install_ticker(monkeypatch, *(
            PrefixSpec(key="ticker", func=_ticker_prefix, config=(period,),
                       seed="t-100") for period in (100, 150, 200)),
            horizons=(2_000, 2_500, 3_000, 3_500))
        reset_process_store()
        try:
            serial, = parallel.run_units(["figsnap"], fast=True, jobs=1)
            pooled = _pooled_within(60.0, "figsnap", jobs=3)
            assert (pooled.counters["snap_misses"],
                    pooled.counters["snap_hits"]) == (3, 9)
            assert pooled.events_fired == serial.events_fired
            for key in ("pushes", "cancels", "snap_forks"):
                assert pooled.counters[key] == serial.counters[key], key
            assert pooled.table.rows == serial.table.rows
        finally:
            reset_process_store()


class TestExecuteSerialMode:
    def test_run_wrapper_forks_campaign_prefixes(self, ticker_experiment):
        list(parallel.run_units(["figsnap"], fast=True, jobs=1))
        store = process_store()
        assert (store.misses, store.forks) == (1, 2)
        units, _assemble = parallel.decompose("figsnap", True)
        assert execute_serial(units, True) == [(2_000, 20), (3_000, 30)]
        assert (store.misses, store.forks) == (1, 4)

    def test_fast_is_required(self, ticker_experiment):
        units, _assemble = parallel.decompose("figsnap", True)
        with pytest.raises(TypeError):
            execute_serial(units)

    def test_every_run_wrapper_passes_its_mode(self, monkeypatch):
        class _Stop(Exception):
            pass

        seen = {}
        for exp_id in sorted(EXPERIMENTS):
            mod = load_experiment(exp_id)
            if not hasattr(mod, "execute_serial"):
                continue

            def spy(units, fast, exp_id=exp_id):
                seen[exp_id] = fast
                raise _Stop  # record the mode, simulate nothing

            monkeypatch.setattr(mod, "execute_serial", spy)
            with pytest.raises(_Stop):
                run_experiment(exp_id, fast=True)
        assert len(seen) >= 15 and set(seen.values()) == {True}, seen
