"""Parallel experiment campaigns: the flat work-unit scheduler.

:func:`run_units` is the one way a campaign runs, at any worker count:

1. every experiment is decomposed into independent scenario evaluations
   (:class:`~repro.experiments.units.WorkUnit`) by its ``scenarios(fast)``;
2. with ``jobs > 1`` one pool of **non-daemonic** worker processes
   executes all units from all experiments, dispatched longest-
   ``cost_hint``-first (greedy LPT), so the critical path is the slowest
   single *scenario*; with ``jobs <= 1`` the same units run in-process,
   in presentation order;
3. results are keyed by unit index and each experiment's table is
   ``assemble``\\ d in the parent, in deterministic presentation order, the
   moment its last unit lands — callers stream tables in paper order.

A :class:`~repro.experiments.cache.ResultCache` can be layered underneath:
unit keys are content addresses of ``(code, config, seed, fast)``, hits are
satisfied in the parent before anything is dispatched, and misses are
stored as they complete — a warm ``run all`` re-runs only units whose key
changed.

Pooled execution is **supervised** (:mod:`repro.experiments.supervisor`):
the parent owns a per-worker dispatch record, so dead workers are detected
and their in-flight unit requeued, hung units are killed at a per-unit
deadline, and both retry with deterministic backoff.  In-process
(``jobs <= 1``) no worker can die and no deadline applies, so each unit
runs once.  At any worker count an exception raised by a unit body fails
that unit, and ``keep_going=True`` turns a failed unit into a
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

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.experiments.common import Table
from repro.experiments.supervisor import (
    CampaignInterrupted,
    SupervisorStats,
    supervise,
)
from repro.experiments.units import WorkUnit

__all__ = ["run_units", "decompose", "last_campaign_stats",
           "CampaignResult", "UnitFailure", "CampaignInterrupted"]


# ----------------------------------------------------------------------
# Decomposition: experiment -> work units
# ----------------------------------------------------------------------
def decompose(exp_id: str, fast: bool) -> Tuple[List[WorkUnit], Callable]:
    """Return ``(units, assemble)`` for one experiment.

    ``assemble(fast, results)`` rebuilds the experiment's Table from one
    result per unit (in unit order).
    """
    from repro.experiments.common import load_experiment
    mod = load_experiment(exp_id)
    return list(mod.scenarios(fast)), mod.assemble


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
    #: The assembled table at full precision (``rendered`` rounds floats);
    #: None for a failure panel.
    table: Optional[Table] = None

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
        counters=_sum_counters(states), table=table)


#: Stats of the most recent campaign in this process (None until one
#: runs); vbench reports its retry/requeue/respawn counts.
_last_stats: Optional[SupervisorStats] = None


def last_campaign_stats() -> Optional[SupervisorStats]:
    return _last_stats


def run_units(exp_ids: Sequence[str], fast: bool = False, check: bool = True,
              jobs: int = 1, cache=None,
              keep_going: bool = False,
              max_retries: int = 1,
              unit_timeout: Optional[float] = None,
              snapshot: Optional[bool] = None,
              ) -> Iterator[CampaignResult]:
    """Flat-schedule every unit of every experiment; stream ordered results.

    Yields one :class:`CampaignResult` per experiment in ``exp_ids`` order,
    each as soon as its last unit completes.  ``jobs > 1`` runs the units
    on that many pool workers; otherwise they run in-process.  ``cache`` is
    an optional :class:`repro.experiments.cache.ResultCache`; hits skip
    execution entirely and misses are stored on completion.

    Pooled execution is supervised: worker death and deadline expiry
    retry up to ``max_retries`` times, and ``unit_timeout`` overrides
    every derived per-unit deadline.  An exception raised by a unit body
    fails the unit at once.  ``keep_going=True`` converts a failed unit
    into a ``CampaignResult`` with ``ok=False`` (its ``failed_units``
    carry the per-unit error, attempts and worker fate) instead of a
    raised ``RuntimeError`` — healthy experiments still stream and
    successes still populate the cache.  Ctrl-C tears the pool down and
    raises :class:`CampaignInterrupted`.

    ``snapshot`` picks warm-start prefix forking (True) or cold prefix
    rebuilds (False); pool workers receive it as an argument.  When it is
    None, ``$VSCHED_REPRO_SNAPSHOT`` decides (``0`` is cold, anything
    else forks) — the one environment variable the package reads, kept
    for harnesses that drive ``run_units`` in a child process.
    """
    ids = list(exp_ids)
    if snapshot is None:
        snapshot = os.environ.get("VSCHED_REPRO_SNAPSHOT", "1") != "0"
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

    if jobs <= 1:
        yield from _run_units_serial(plans, fast, check, cache, keep_going,
                                     snapshot)
        return

    # Longest-first greedy dispatch: the supervisor assigns one unit at a
    # time, so the big scenarios start immediately and the stragglers pack
    # the tail.
    pending.sort(key=lambda st: -st.unit.cost_hint)
    outcomes = supervise([st.unit for st in pending], jobs, fast=fast,
                         max_retries=max_retries, unit_timeout=unit_timeout,
                         stats=stats, snapshot=snapshot)
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
                      keep_going: bool = False, snapshot: bool = True,
                      ) -> Iterator[CampaignResult]:
    """In-process scheduler path (jobs<=1): same semantics, no pool.

    Worker death and deadlines need worker processes, so nothing here is
    transient and each unit runs once; an exception fails the unit as in
    a pooled campaign.
    """
    from repro.experiments.snapstore import execute_unit, snapshot_counters
    from repro.sim.engine import Engine
    for exp_id, states, assemble in plans:
        for st in states:
            if st.done:
                continue
            counters0 = Engine.counters()
            snap0 = snapshot_counters()
            started = time.perf_counter()
            st.fate = "ok"
            try:
                st.result = execute_unit(st.unit.func, st.unit.config,
                                         st.unit.prefix, fast, snapshot)
            except Exception as exc:  # noqa: BLE001 - same as pooled
                st.error = f"{type(exc).__name__}: {exc}"
                st.tb = traceback.format_exc()
                st.fate = f"attempt 1: {st.error} (not retryable)"
            st.wall_s = time.perf_counter() - started
            st.counters = {k: v - counters0[k]
                           for k, v in Engine.counters().items()}
            st.events = st.counters.pop("fired")
            st.counters.update({k: v - snap0[k]
                                for k, v in snapshot_counters().items()})
            st.attempts = 1
            st.done = True
            if st.error is None and cache is not None and st.key is not None:
                cache.store(st.key, st.result)
        yield _finish_experiment(exp_id, states, assemble, fast, check,
                                 keep_going)
