"""Tests for the work-unit decomposition, flat scheduler, and result cache.

The cache key must be a faithful content address: identical (code, config,
seed, fast) inputs hit; any change to any of them misses.  The flat
scheduler must render byte-identically to the serial path and propagate
unit failures.
"""

import sys
import types
from collections import Counter

import pytest

from repro.experiments import parallel
from repro.experiments.cache import ResultCache, code_fingerprint, unit_key
from repro.experiments.common import EXPERIMENTS, Table
from repro.experiments.snapstore import prefix_store_key
from repro.experiments.units import WorkUnit, check_config_is_data


def _times10(x):
    return x * 10


def _boom(x):
    raise ValueError(f"boom {x}")


def _unit(**kw):
    defaults = dict(exp_id="figx", label="u", func=_times10, config=(1,),
                    cost_hint=1.0, seed="figx-1")
    defaults.update(kw)
    return WorkUnit(**defaults)


FP = "f" * 64  # stand-in code fingerprint


class TestUnitKey:
    def test_identical_inputs_hit(self):
        assert unit_key(_unit(), True, FP) == unit_key(_unit(), True, FP)

    def test_config_change_misses(self):
        assert unit_key(_unit(config=(1,)), True, FP) != \
            unit_key(_unit(config=(2,)), True, FP)

    def test_seed_change_misses(self):
        assert unit_key(_unit(seed="a"), True, FP) != \
            unit_key(_unit(seed="b"), True, FP)

    def test_code_fingerprint_change_misses(self):
        assert unit_key(_unit(), True, "a" * 64) != \
            unit_key(_unit(), True, "b" * 64)

    def test_fast_and_full_keys_isolated(self):
        assert unit_key(_unit(), True, FP) != unit_key(_unit(), False, FP)

    def test_identity_fields_isolate(self):
        assert unit_key(_unit(exp_id="figy"), True, FP) != \
            unit_key(_unit(), True, FP)
        assert unit_key(_unit(label="v"), True, FP) != \
            unit_key(_unit(), True, FP)


class TestCodeFingerprint:
    def test_stable_and_sensitive(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        first = code_fingerprint(str(tmp_path))
        assert first == code_fingerprint(str(tmp_path))
        (tmp_path / "a.py").write_text("x = 2\n")
        edited = code_fingerprint(str(tmp_path))
        assert edited != first
        (tmp_path / "c.py").write_text("")
        assert code_fingerprint(str(tmp_path)) != edited

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(str(tmp_path))
        (tmp_path / "notes.txt").write_text("irrelevant")
        assert code_fingerprint(str(tmp_path)) == before

    def test_default_root_is_memoized(self):
        assert code_fingerprint() == code_fingerprint()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = unit_key(_unit(), True, FP)
        hit, _ = cache.lookup(key)
        assert not hit
        cache.store(key, {"p95": 1.5})
        hit, value = cache.lookup(key)
        assert hit and value == {"p95": 1.5}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = unit_key(_unit(), True, FP)
        cache.store(key, 42)
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        hit, _ = cache.lookup(key)
        assert not hit

    def test_store_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("k", 1)
        cache.store("k", 2)
        assert cache.lookup("k") == (True, 2)

    def test_store_failure_degrades_instead_of_raising(self, tmp_path,
                                                       capsys):
        # The cache is an accelerator, never a point of failure: an
        # unwritable store must warn and count, not abort the campaign.
        cache = ResultCache(str(tmp_path))
        cache.store("k", lambda: None)  # unpicklable value
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert "warning" in capsys.readouterr().err
        assert "store-errors=1" in cache.summary()
        cache.store("k", 2)  # still works afterwards
        assert cache.lookup("k") == (True, 2)


class TestConfigIsData:
    def test_accepts_plain_data(self):
        check_config_is_data(_unit(config=("a", 1, 2.5, False, None,
                                           (1, "b"))))

    def test_rejects_identity_reprs(self):
        with pytest.raises(TypeError):
            check_config_is_data(_unit(config=(_times10,)))

    def test_all_catalogue_units_are_data(self):
        for exp_id in EXPERIMENTS:
            units, _assemble = parallel.decompose(exp_id, True)
            for unit in units:
                check_config_is_data(unit)
                assert "0x" not in repr(unit.config), (exp_id, unit.label)


# ----------------------------------------------------------------------
# Flat scheduler mechanics on a synthetic experiment (no simulation).
# ----------------------------------------------------------------------
def _fake_scenarios(fast):
    return [WorkUnit(exp_id="figx", label=f"u{i}", func=_times10,
                     config=(i,), cost_hint=float(i), seed=f"figx-{i}")
            for i in range(5)]


def _fake_assemble(fast, results):
    table = Table("figx", "fake", ["i", "v"])
    for i, v in enumerate(results):
        table.add(i, v)
    return table


def _failing_scenarios(fast):
    return [WorkUnit(exp_id="figx", label="bad", func=_boom, config=(3,))]


@pytest.fixture
def fake_experiment(monkeypatch):
    mod = types.ModuleType("_vsched_fake_exp")
    mod.scenarios = _fake_scenarios
    mod.assemble = _fake_assemble
    mod.check = lambda table: None
    monkeypatch.setitem(sys.modules, "_vsched_fake_exp", mod)
    monkeypatch.setitem(EXPERIMENTS, "figx", "_vsched_fake_exp")
    return mod


class TestFlatScheduler:
    def test_serial_and_pooled_render_identically(self, fake_experiment):
        serial, = parallel.run_units(["figx"], fast=True, jobs=1)
        pooled, = parallel.run_units(["figx"], fast=True, jobs=2)
        assert serial.rendered == pooled.rendered
        assert serial.n_units == pooled.n_units == 5
        assert serial.ok and pooled.ok

    def test_cold_then_warm_cache(self, fake_experiment, tmp_path):
        cold_cache = ResultCache(str(tmp_path))
        cold, = parallel.run_units(["figx"], fast=True, jobs=1,
                                   cache=cold_cache)
        assert (cold_cache.hits, cold_cache.misses) == (0, 5)
        assert cold.cache_hits == 0
        warm_cache = ResultCache(str(tmp_path))
        warm, = parallel.run_units(["figx"], fast=True, jobs=2,
                                   cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (5, 0)
        assert warm.cache_hits == 5
        assert warm.rendered == cold.rendered

    def test_fast_and_full_cached_separately(self, fake_experiment,
                                             tmp_path):
        cache = ResultCache(str(tmp_path))
        list(parallel.run_units(["figx"], fast=True, cache=cache))
        list(parallel.run_units(["figx"], fast=False, cache=cache))
        assert (cache.hits, cache.misses) == (0, 10)

    def test_unit_failure_propagates(self, fake_experiment, monkeypatch):
        monkeypatch.setattr(sys.modules["_vsched_fake_exp"], "scenarios",
                            _failing_scenarios)
        with pytest.raises(RuntimeError, match="figx/bad.*boom 3"):
            list(parallel.run_units(["figx"], fast=True, jobs=1))

    def test_check_failure_is_reported_not_raised(self, fake_experiment,
                                                  monkeypatch):
        def bad_check(table):
            raise AssertionError("wrong shape")
        monkeypatch.setattr(sys.modules["_vsched_fake_exp"], "check",
                            bad_check)
        res, = parallel.run_units(["figx"], fast=True, jobs=1)
        assert not res.ok and "wrong shape" in res.check_error


class TestDecompose:
    def test_migrated_experiments_decompose(self):
        n_units = {"fig2": 24, "fig3": 2, "fig4": 18, "fig10a": 1,
                   "fig10b": 1, "tab2": 2, "fig11": 4, "fig12": 6,
                   "fig13": 6, "fig14": 20, "tab3": 5, "fig15": 24,
                   "tab4": 6, "fig16": 2, "fig17": 2, "fig18": 30,
                   "fig19": 30, "fig20": 12, "fig21": 12, "figA1": 12}
        assert set(n_units) == set(EXPERIMENTS)
        for exp_id, n in n_units.items():
            units, _assemble = parallel.decompose(exp_id, True)
            assert len(units) == n, exp_id
            assert len({u.label for u in units}) == len(units), exp_id

    def test_shared_warm_ups_are_prefixes(self):
        def sharing(exp_id):
            """(units per prefix store key, prefix-less unit count)."""
            units, _assemble = parallel.decompose(exp_id, True)
            per_key = Counter(prefix_store_key(u.prefix, True)
                              for u in units if u.prefix is not None)
            return per_key, sum(1 for u in units if u.prefix is None)

        for exp_id, n_keys, per_key in (("fig13", 2, 3), ("fig14", 2, 10),
                                        ("fig15", 2, 12), ("tab4", 2, 3),
                                        ("fig21", 2, 6), ("fig18", 3, 10),
                                        ("fig19", 3, 10), ("fig20", 2, 6)):
            counts, bare = sharing(exp_id)
            assert sorted(counts.values()) == [per_key] * n_keys, exp_id
            assert bare == 0, exp_id
        # tab3's four bvs/no-bvs units fork fig14's own worlds; its
        # strawman installs its hook before the warm-up, so nothing else
        # shares that world and it stays prefix-less.
        tab3, tab3_bare = sharing("tab3")
        assert sorted(tab3.values()) == [2, 2] and tab3_bare == 1
        assert set(tab3) == set(sharing("fig14")[0])
        # fig20's fast cfs and vsched worlds are fig19's.
        assert set(sharing("fig20")[0]) < set(sharing("fig19")[0])

    def test_heavy_experiments_no_longer_monolithic(self):
        # The PR 1 critical path: these four dominated the serial suite.
        for exp_id in ("fig16", "fig17", "fig18", "fig19"):
            units, _assemble = parallel.decompose(exp_id, True)
            assert len(units) >= 2, exp_id
