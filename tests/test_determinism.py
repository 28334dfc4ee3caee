"""Regression tests for the determinism contract (docs/INTERNALS.md §8).

Every scenario seeds all of its randomness from an explicit string, and the
engine breaks same-instant ties by insertion order, so an experiment must
render byte-identically run over run — and a flat-scheduled, pooled, or
warm-cache campaign must render byte-identically to a serial one.
"""

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.common import run_experiment


def test_fig2_fast_is_reproducible():
    first = run_experiment("fig2", fast=True).render()
    second = run_experiment("fig2", fast=True).render()
    assert first == second


def test_flat_scheduler_matches_serial():
    """Unit-level fan-out renders byte-identically to a plain run()."""
    serial = run_experiment("fig2", fast=True).render()
    pooled, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2)
    assert pooled.rendered == serial
    assert pooled.n_units > 1  # fig2 really decomposed


def test_pooled_table_matches_serial_at_full_precision():
    """``CampaignResult.table`` is the assembled table itself, so a pooled
    run matches a plain run() cell for cell, not only after rounding."""
    serial = run_experiment("fig2", fast=True)
    pooled, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2)
    assert pooled.table.columns == serial.columns
    assert pooled.table.rows == serial.rows


def test_warm_cache_renders_identically(tmp_path):
    """Serial, pooled and warm-cache runs are byte-identical; the warm
    rerun of an unchanged tree is 100% unit cache hits."""
    serial = run_experiment("fig2", fast=True).render()
    cold_cache = ResultCache(str(tmp_path))
    cold, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2,
                               cache=cold_cache)
    assert cold.rendered == serial
    assert cold_cache.hits == 0 and cold_cache.misses == cold.n_units
    warm_cache = ResultCache(str(tmp_path))
    warm, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2,
                               cache=warm_cache)
    assert warm.rendered == serial
    assert warm.cache_hits == warm.n_units
    assert warm_cache.misses == 0 and warm_cache.hits == warm.n_units
