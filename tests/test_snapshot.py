"""Snapshot/fork determinism: a forked world resumes byte-identically.

The warm-start contract (docs/INTERNALS.md §15) has three layers, each
tested here against its cold-path twin:

* engine layer — ``Engine.snapshot()/restore()`` replay the identical
  event sequence;
* world layer — :class:`WorldSnapshot` freezes engine + roots in one
  deep copy, the guard rejects copy-unsafe callbacks loudly, and every
  fork resumes byte-identically to a cold run (under vsched and under
  plain CFS) independent of its siblings and of the frozen image;
* store layer — :class:`SnapshotStore` keys on
  (code fingerprint, prefix, fast), hits after one miss, and
  ``execute_unit`` produces identical results with snapshotting on and
  off;
* campaign layer — ``run_units`` hands its ``snapshot`` argument to pool
  workers, and falls back to ``$VSCHED_REPRO_SNAPSHOT`` only when the
  argument is omitted; an experiment's ``run(fast=)`` wrapper forks the
  prefixes a campaign of the same mode already built.
"""

from __future__ import annotations

import copy
import sys
import types

import pytest

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.experiments import parallel
from repro.experiments.common import (EXPERIMENTS, Table, load_experiment,
                                     run_experiment)
from repro.experiments.snapstore import (
    PrefixSpec,
    SnapshotStore,
    execute_unit,
    prefix_store_key,
    process_store,
    reset_process_store,
)
from repro.experiments.units import WorkUnit, execute_serial
from repro.sim.engine import MSEC, SEC, Engine
from repro.sim.rng import make_rng, rng_signature
from repro.sim.snapshot import SnapshotError, WorldSnapshot, guard_world
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


@pytest.fixture
def ticker_experiment(monkeypatch):
    """A two-unit experiment whose units share the ticker prefix."""
    units = [WorkUnit(exp_id="figsnap", label=f"h{h}", func=_ticker_unit,
                      config=(h,), seed=f"figsnap-{h}", prefix=_SPEC)
             for h in (2_000, 3_000)]
    mod = types.ModuleType("_vsched_fake_snapshot")
    mod.scenarios = lambda fast: list(units)
    mod.assemble = _ticker_assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, "_vsched_fake_snapshot", mod)
    monkeypatch.setitem(EXPERIMENTS, "figsnap", "_vsched_fake_snapshot")
    reset_process_store()
    yield
    reset_process_store()


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
