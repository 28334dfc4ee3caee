"""Parallel experiment campaigns: the flat work-unit scheduler.

PR 1 had two rigid fan-out layers — whole experiments across a pool, or one
experiment's scenario sweep — so ``run all --jobs N`` collapsed to the wall
time of the slowest *whole experiment* (fig17, ~45 s fast) because nested
fan-out silently degraded inside daemonic pool workers.  This module now
schedules a **single flat queue of work units** instead:

1. every experiment is decomposed into independent scenario evaluations
   (:class:`~repro.experiments.units.WorkUnit`) via its ``scenarios(fast)``
   hook, or wrapped whole as a single unit when not yet migrated;
2. one persistent pool of **non-daemonic** worker processes executes all
   units from all experiments, dispatched longest-``cost_hint``-first
   (greedy LPT), so the critical path is the slowest single *scenario*;
3. results are keyed by unit index and each experiment's table is
   ``assemble``\\ d in the parent, in deterministic presentation order, the
   moment its last unit lands — callers stream tables in paper order.

Workers are plain ``Process`` objects (not ``Pool`` daemons) fed by a task
queue; each pins its own in-worker default to one job so legacy
``run_scenarios`` callers inside a unit can never nest another pool.

A :class:`~repro.experiments.cache.ResultCache` can be layered underneath:
unit keys are content addresses of ``(code, config, seed, fast)``, hits are
satisfied in the parent before anything is dispatched, and misses are
stored as they complete — a warm ``run all`` re-runs only units whose key
changed.

Execution is **supervised** (:mod:`repro.experiments.supervisor`): the
parent owns a per-worker dispatch record, so dead workers are detected and
their in-flight unit requeued, hung units are killed at a per-unit
deadline, transient failures retry with deterministic backoff, and
``keep_going=True`` turns a permanently-failed unit into a
:class:`CampaignResult` failure panel instead of aborting the campaign.

Determinism contract
--------------------
Every scenario derives **all** of its randomness from an explicit seed
string (see :func:`repro.sim.rng.make_rng`), typically
``f"{exp_id}-{param1}-{param2}"``.  Seeds therefore depend only on the
scenario's identity — never on execution order, worker id, or wall clock —
so a unit computes the same result in any process, and serial, pooled and
warm-cache campaigns must render byte-identical tables;
``tests/test_determinism.py`` enforces this.  Unit functions must be
module-level (picklable) and must return picklable data (floats / dicts /
:class:`~repro.experiments.common.Table`), not live simulation objects.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.experiments.chaos import ChaosPlan
from repro.experiments.supervisor import (
    CampaignInterrupted,
    DeadlinePolicy,
    RetryPolicy,
    SupervisorStats,
    supervise,
)
from repro.experiments.units import (
    TransientUnitError,
    WorkUnit,
    get_assemble,
    get_scenarios,
    supports_units,
)

__all__ = ["run_units", "run_campaign", "run_scenarios", "decompose",
           "set_default_jobs", "default_jobs", "last_campaign_stats",
           "CampaignResult", "UnitFailure", "CampaignInterrupted",
           "JOBS_ENV_VAR"]

#: Environment variable consulted for the default worker count.
JOBS_ENV_VAR = "VSCHED_REPRO_JOBS"

_default_jobs: Optional[int] = None

#: Approximate fast-mode serial wall seconds per experiment (from the PR 1
#: BENCH report) — cost hints for experiments not yet decomposed, so the
#: LPT dispatch order stays sensible even for whole-experiment units.
WHOLE_EXPERIMENT_COST: Dict[str, float] = {
    "fig2": 1.7, "fig3": 0.1, "fig4": 6.7, "fig10a": 0.4, "fig10b": 0.1,
    "tab2": 0.2, "fig11": 9.3, "fig12": 5.6, "fig13": 2.0, "fig14": 14.9,
    "tab3": 3.8, "fig15": 9.9, "tab4": 2.9, "fig16": 27.9, "fig17": 45.0,
    "fig18": 21.1, "fig19": 29.6, "fig20": 7.6, "fig21": 4.4,
}


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default for ``run_scenarios(jobs=None)``.

    The CLI calls this with ``--jobs`` so experiments fan their scenario
    sweeps out without threading a parameter through every ``run()``.
    """
    global _default_jobs
    _default_jobs = None if jobs is None else max(1, int(jobs))


def default_jobs() -> int:
    """Resolve the default worker count (explicit > $VSCHED_REPRO_JOBS > 1)."""
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: ignoring malformed {JOBS_ENV_VAR}={env!r} "
                  f"(expected an integer); defaulting to 1 worker",
                  file=sys.stderr)
            return 1
    return 1


def _in_pool_worker() -> bool:
    """True when already inside a multiprocessing pool worker."""
    return mp.current_process().daemon


def _pool_context():
    """Prefer fork (cheap, POSIX) and fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _execute_prefixed(func: Callable, config: tuple, prefix, fast: bool):
    """Picklable wrapper running one prefixed unit via the snapshot store.

    Module-level so :func:`run_scenarios` can ship prefixed units to pool
    workers exactly like plain ones; each worker process warms its own
    store on first use.
    """
    from repro.experiments.snapstore import execute_unit
    return execute_unit(func, config, prefix, fast)


def unit_body_config(units: Sequence["WorkUnit"], fast: bool
                     ) -> Tuple[Callable, List[tuple]]:
    """Normalize a same-``func`` run of units to a (func, configs) pair.

    Units without a prefix pass through untouched (the exact PR 2 path);
    prefixed units are rewritten to :func:`_execute_prefixed` calls so
    every execution route — plain loop, pool, supervised campaign — goes
    through the snapshot store with identical semantics.
    """
    first = units[0]
    if first.prefix is None:
        return first.func, [u.config for u in units]
    return _execute_prefixed, [(u.func, u.config, u.prefix, fast)
                               for u in units]


def run_scenarios(func: Callable, configs: Sequence[tuple],
                  jobs: Optional[int] = None) -> List:
    """Run ``func(*config)`` for every config; return results in order.

    ``func`` must be a module-level callable whose randomness comes only
    from seeds encoded in the config (the determinism contract above).
    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1``, a single config,
    or being already inside a pool worker all run serially in-process —
    the exact code path a plain loop would take.
    """
    configs = list(configs)
    if jobs is None:
        jobs = default_jobs()
    jobs = min(max(1, jobs), len(configs)) if configs else 1
    if jobs <= 1 or _in_pool_worker():
        return [func(*cfg) for cfg in configs]
    with _pool_context().Pool(processes=jobs) as pool:
        # chunksize=1: scenarios are coarse (seconds each); favour balance.
        return pool.starmap(func, configs, chunksize=1)


# ----------------------------------------------------------------------
# Decomposition: experiment -> work units
# ----------------------------------------------------------------------
def _whole_experiment_unit(exp_id: str, fast: bool):
    """Fallback unit body for experiments without a scenarios() hook."""
    # Imported here so worker processes resolve their own module state.
    from repro.experiments.common import run_experiment
    return run_experiment(exp_id, fast=fast)


def decompose(exp_id: str, fast: bool) -> Tuple[List[WorkUnit], Callable]:
    """Return ``(units, assemble)`` for one experiment.

    ``assemble(fast, results)`` rebuilds the experiment's Table from one
    result per unit (in unit order).  Experiments without the
    scenarios/assemble protocol become a single whole-experiment unit whose
    result *is* the table.
    """
    from repro.experiments.common import load_experiment
    mod = load_experiment(exp_id)
    if supports_units(mod, exp_id):
        units = list(get_scenarios(mod, exp_id)(fast))
        return units, get_assemble(mod, exp_id)
    cost = WHOLE_EXPERIMENT_COST.get(exp_id, 5.0)
    unit = WorkUnit(exp_id=exp_id, label="__whole__",
                    func=_whole_experiment_unit, config=(exp_id, fast),
                    cost_hint=cost)
    return [unit], lambda fast_, results: results[0]


# ----------------------------------------------------------------------
# The flat scheduler
# ----------------------------------------------------------------------
@dataclass
class _UnitState:
    """Book-keeping for one scheduled unit."""

    unit: WorkUnit
    key: Optional[str] = None
    result: Any = None
    error: Optional[str] = None
    tb: Optional[str] = None
    wall_s: float = 0.0
    events: int = 0
    #: Engine counter deltas (pushes/cancels/dead_drops) over the unit's
    #: successful attempt; empty for cached units.
    counters: Dict[str, int] = field(default_factory=dict)
    done: bool = False
    cached: bool = False
    attempts: int = 0
    fate: str = ""


@dataclass(frozen=True)
class UnitFailure:
    """One permanently-failed unit, for the end-of-run failure report."""

    exp_id: str
    label: str
    error: str
    attempts: int
    fate: str
    tb: Optional[str] = None


@dataclass
class CampaignResult:
    """Outcome of one experiment inside a campaign."""

    exp_id: str
    rendered: str
    wall_s: float
    events_fired: int
    #: Always 0 (no timer is elided); kept because vbench/child.py reads it.
    events_elided: int = 0
    check_error: Optional[str] = None
    n_units: int = 1
    cache_hits: int = 0
    retries: int = 0
    failed_units: List[UnitFailure] = field(default_factory=list)
    unit_stats: List[dict] = field(default_factory=list)
    #: Summed engine counter deltas across units (see _UnitState.counters).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.check_error is None and not self.failed_units


def _failure_panel(exp_id: str, states: List[_UnitState]) -> str:
    """Rendered stand-in table for an experiment with failed units."""
    failed = [st for st in states if st.error is not None]
    lines = [f"== {exp_id}: FAILED ({len(failed)}/{len(states)} units) =="]
    for st in failed:
        lines.append(f"unit {st.unit.label}: {st.error}")
        lines.append(f"  attempts: {st.attempts}")
        if st.fate:
            lines.append(f"  fate: {st.fate}")
    healthy = len(states) - len(failed)
    if healthy:
        lines.append(f"({healthy} healthy unit(s) completed; their results "
                     f"are cached when --cache is on)")
    return "\n".join(lines)


def _unit_stats(states: List[_UnitState]) -> List[dict]:
    return [{"label": st.unit.label, "wall_s": round(st.wall_s, 3),
             "events_fired": st.events,
             "engine": dict(st.counters),
             "attempts": st.attempts, "cached": st.cached}
            for st in states]


def _sum_counters(states: List[_UnitState]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for st in states:
        for k, v in st.counters.items():
            total[k] = total.get(k, 0) + v
    return total


def _finish_experiment(exp_id: str, states: List[_UnitState],
                       assemble: Callable, fast: bool, check: bool,
                       keep_going: bool = False) -> CampaignResult:
    """Assemble + shape-check one experiment from its completed units.

    A permanently-failed unit aborts the campaign with ``RuntimeError``
    unless ``keep_going``, in which case the experiment yields a
    failure-panel :class:`CampaignResult` with ``ok=False`` instead.
    """
    from repro.experiments.common import check_experiment
    failed = [st for st in states if st.error is not None]
    retries = sum(max(0, st.attempts - 1) for st in states)
    if failed and not keep_going:
        st = failed[0]
        detail = f"\n{st.tb}" if st.tb else ""
        fate = f"; fate: {st.fate}" if st.fate else ""
        raise RuntimeError(
            f"work unit {exp_id}/{st.unit.label} failed: "
            f"{st.error} (attempts={max(1, st.attempts)}{fate})"
            f"{detail}")
    if failed:
        return CampaignResult(
            exp_id=exp_id, rendered=_failure_panel(exp_id, states),
            wall_s=sum(st.wall_s for st in states),
            events_fired=sum(st.events for st in states),
            n_units=len(states),
            cache_hits=sum(1 for st in states if st.cached),
            retries=retries,
            failed_units=[UnitFailure(exp_id=exp_id, label=st.unit.label,
                                      error=st.error,
                                      attempts=max(1, st.attempts),
                                      fate=st.fate, tb=st.tb)
                          for st in failed],
            unit_stats=_unit_stats(states),
            counters=_sum_counters(states))
    table = assemble(fast, [st.result for st in states])
    check_error = None
    if check:
        try:
            check_experiment(exp_id, table)
        except AssertionError as exc:
            check_error = str(exc)
    return CampaignResult(
        exp_id=exp_id, rendered=table.render(),
        wall_s=sum(st.wall_s for st in states),
        events_fired=sum(st.events for st in states),
        check_error=check_error, n_units=len(states),
        cache_hits=sum(1 for st in states if st.cached),
        retries=retries, unit_stats=_unit_stats(states),
        counters=_sum_counters(states))


#: Stats of the most recent supervised campaign in this process (None
#: until one runs); tools/bench.py reports them in the BENCH json.
_last_stats: Optional[SupervisorStats] = None


def last_campaign_stats() -> Optional[SupervisorStats]:
    return _last_stats


def run_units(exp_ids: Sequence[str], fast: bool = False, check: bool = True,
              jobs: Optional[int] = None, cache=None,
              keep_going: bool = False,
              max_retries: Optional[int] = None,
              unit_timeout: Optional[float] = None,
              max_respawns: Optional[int] = None,
              ) -> Iterator[CampaignResult]:
    """Flat-schedule every unit of every experiment; stream ordered results.

    Yields one :class:`CampaignResult` per experiment in ``exp_ids`` order,
    each as soon as its last unit completes.  ``cache`` is an optional
    :class:`repro.experiments.cache.ResultCache`; hits skip execution
    entirely and misses are stored on completion.

    Execution is supervised: transient failures (worker death, deadline
    expiry, :class:`TransientUnitError`) retry up to ``max_retries``
    (default :class:`RetryPolicy`'s), ``unit_timeout`` overrides every
    derived per-unit deadline, and ``keep_going=True`` converts a
    permanently-failed unit into a ``CampaignResult`` with ``ok=False``
    (its ``failed_units`` carry the per-unit error, attempts and worker
    fate) instead of a raised ``RuntimeError`` — healthy experiments still
    stream and successes still populate the cache.  Ctrl-C tears the pool
    down and raises :class:`CampaignInterrupted`.  Chaos injection
    (``$VSCHED_REPRO_CHAOS``, pooled runs only) is parsed here so a
    malformed spec fails fast in the parent.
    """
    ids = list(exp_ids)
    if jobs is None:
        jobs = default_jobs()
    retry = RetryPolicy() if max_retries is None \
        else RetryPolicy(max_retries=max_retries)
    deadline = DeadlinePolicy.from_env(override_s=unit_timeout)
    chaos = ChaosPlan.from_env()
    plans: List[Tuple[str, List[_UnitState], Callable]] = []
    for exp_id in ids:
        units, assemble = decompose(exp_id, fast)
        plans.append((exp_id, [_UnitState(u) for u in units], assemble))

    if cache is not None:
        from repro.experiments.cache import code_fingerprint, unit_key
        fingerprint = code_fingerprint()
        for _exp_id, states, _assemble in plans:
            for st in states:
                st.key = unit_key(st.unit, fast, fingerprint=fingerprint)
                hit, value = cache.lookup(st.key)
                if hit:
                    st.result = value
                    st.done = st.cached = True

    pending = [st for _e, states, _a in plans
               for st in states if not st.done]
    jobs = min(max(1, jobs), len(pending)) if pending else 1

    global _last_stats
    stats = SupervisorStats()
    _last_stats = stats

    if jobs <= 1 or _in_pool_worker():
        yield from _run_units_serial(plans, fast, check, cache, keep_going,
                                     retry)
        return

    # Longest-first greedy dispatch: the supervisor assigns one unit at a
    # time, so the big scenarios start immediately and the stragglers pack
    # the tail.
    pending.sort(key=lambda st: -st.unit.cost_hint)
    outcomes = supervise([st.unit for st in pending], jobs, fast=fast,
                         retry=retry, deadline=deadline, chaos=chaos,
                         stats=stats, max_respawns=max_respawns)
    next_yield = 0
    try:
        for pos, out in outcomes:
            st = pending[pos]
            st.result, st.error, st.tb = out.result, out.error, out.tb
            st.wall_s, st.events = out.wall_s, out.events
            st.counters = out.counters or {}
            st.attempts, st.fate = out.attempts, out.fate
            st.done = True
            if out.error is None and cache is not None and st.key is not None:
                cache.store(st.key, out.result)
            while (next_yield < len(plans)
                   and all(s.done for s in plans[next_yield][1])):
                exp_id, states, assemble = plans[next_yield]
                yield _finish_experiment(exp_id, states, assemble, fast,
                                         check, keep_going)
                next_yield += 1
        # Experiments satisfied purely from cache (no pending units).
        while next_yield < len(plans):
            exp_id, states, assemble = plans[next_yield]
            yield _finish_experiment(exp_id, states, assemble, fast, check,
                                     keep_going)
            next_yield += 1
    finally:
        outcomes.close()


def _run_units_serial(plans, fast: bool, check: bool, cache,
                      keep_going: bool = False,
                      retry: Optional[RetryPolicy] = None,
                      ) -> Iterator[CampaignResult]:
    """In-process scheduler path (jobs<=1): same semantics, no pool.

    Deadlines and chaos need worker processes and do not apply here, but
    the bounded-retry contract does: a unit raising
    :class:`TransientUnitError` is retried with the same deterministic
    backoff as the pooled path.
    """
    from repro.experiments.snapstore import execute_unit, snapshot_counters
    from repro.experiments.supervisor import unit_tag
    from repro.sim.engine import Engine
    retry = retry or RetryPolicy()
    for exp_id, states, assemble in plans:
        for st in states:
            if st.done:
                continue
            fates: List[str] = []
            while True:
                events0 = Engine.total_events_fired
                counters0 = Engine.counters()
                snap0 = snapshot_counters()
                started = time.perf_counter()
                st.error = st.tb = None
                retryable = False
                try:
                    st.result = execute_unit(st.unit.func, st.unit.config,
                                             st.unit.prefix, fast)
                except Exception as exc:  # noqa: BLE001 - same as pooled
                    st.error = f"{type(exc).__name__}: {exc}"
                    st.tb = traceback.format_exc()
                    retryable = isinstance(exc, TransientUnitError)
                st.wall_s = time.perf_counter() - started
                st.events = Engine.total_events_fired - events0
                st.counters = {k: v - counters0[k]
                               for k, v in Engine.counters().items()
                               if k != "fired"}
                st.counters.update(
                    {k: round(v - snap0[k], 3)
                     for k, v in snapshot_counters().items()})
                st.attempts += 1
                if st.error is None:
                    st.fate = "ok" if not fates else (
                        "; ".join(fates) + f"; ok on attempt {st.attempts}")
                    break
                fates.append(f"attempt {st.attempts}: {st.error}")
                if not retryable or st.attempts > retry.retries_for(st.unit):
                    st.fate = "; ".join(fates) + (
                        "; gave up" if retryable else " (not retryable)")
                    break
                if _last_stats is not None:
                    _last_stats.retries += 1
                time.sleep(retry.backoff_s(unit_tag(st.unit), st.attempts))
            st.done = True
            if st.error is None and cache is not None and st.key is not None:
                cache.store(st.key, st.result)
        yield _finish_experiment(exp_id, states, assemble, fast, check,
                                 keep_going)


# ----------------------------------------------------------------------
# Campaign-level compatibility wrapper
# ----------------------------------------------------------------------
def run_campaign(exp_ids: Sequence[str], fast: bool = False,
                 check: bool = True, jobs: Optional[int] = None,
                 cache=None, **kwargs) -> Iterator[CampaignResult]:
    """Run experiments (optionally in parallel); yield ordered results.

    Retained API from PR 1; now a thin wrapper over the supervised flat
    scheduler, so a campaign parallelizes *inside* migrated experiments
    instead of only across them.  Tables render byte-identically either
    way.  ``kwargs`` pass through to :func:`run_units` (``keep_going``,
    ``max_retries``, ``unit_timeout``, ``max_respawns``).
    """
    yield from run_units(exp_ids, fast=fast, check=check, jobs=jobs,
                         cache=cache, **kwargs)
