"""Regression tests for the determinism contract (docs/INTERNALS.md §8).

Every scenario seeds all of its randomness from an explicit string, and the
engine breaks same-instant ties by insertion order, so an experiment must
render byte-identically run over run — and a pooled or warm-cache campaign
must render byte-identically to an in-process (``jobs=1``) one.
"""

import pytest

from repro.experiments import parallel
from repro.experiments.cache import ResultCache


def _serial(exp_id):
    res, = parallel.run_units([exp_id], fast=True, check=False, jobs=1)
    return res


def test_fig2_fast_is_reproducible():
    assert _serial("fig2").rendered == _serial("fig2").rendered


def test_flat_scheduler_matches_serial():
    """Unit-level fan-out renders byte-identically to an in-process run."""
    serial = _serial("fig2").rendered
    pooled, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2)
    assert pooled.rendered == serial
    assert pooled.n_units > 1  # fig2 really decomposed


def test_pooled_table_matches_serial_at_full_precision():
    """``CampaignResult.table`` is the assembled table itself, so a pooled
    run matches an in-process one cell for cell, not only after
    rounding."""
    serial = _serial("fig2").table
    pooled, = parallel.run_units(["fig2"], fast=True, check=False, jobs=2)
    assert pooled.table.columns == serial.columns
    assert pooled.table.rows == serial.rows


@pytest.mark.parametrize("exp_id", ["fig3", "tab2"])
def test_split_scenarios_match_serial_at_full_precision(exp_id):
    """Each unit builds and seeds its own VM, so the two units of fig3
    and tab2 give the same cells and notes on different workers."""
    serial = _serial(exp_id).table
    pooled, = parallel.run_units([exp_id], fast=True, check=False, jobs=2)
    assert pooled.n_units == 2
    assert pooled.table.rows == serial.rows
    assert pooled.table.notes == serial.notes


def test_warm_cache_renders_identically(tmp_path):
    """Serial, pooled and warm-cache runs are byte-identical; the warm
    rerun of an unchanged tree is 100% unit cache hits."""
    serial = _serial("fig2").rendered
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
