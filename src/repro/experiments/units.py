"""Work units: the scenario-granular decomposition of an experiment.

PR 1 parallelized campaigns at two rigid layers (whole experiments, or one
experiment's scenario sweep).  The flat scheduler in
:mod:`repro.experiments.parallel` instead executes a single global queue of
**work units** drawn from every experiment at once.  A work unit is one
independent scenario evaluation — a pure function of ``(code, config,
seed)`` under the determinism contract — which makes it both the natural
unit of load balancing *and* the natural unit of result caching
(:mod:`repro.experiments.cache`).

An experiment module opts in by exposing two functions::

    scenarios(fast: bool) -> List[WorkUnit]   # decompose
    assemble(fast: bool, results: List) -> Table  # recompose, same order

``assemble`` receives one result per unit, in ``scenarios`` order, and must
build the table purely from those results — no additional simulation.  The
module's ``run(fast=)`` stays as a thin in-process wrapper
(:func:`execute_serial`) so direct callers and tests are untouched.

Unit configs must be **data only** (strings, numbers, bools, tuples):
``repr(config)`` feeds the cache key, so anything with an identity-based
repr (functions, objects) would silently defeat caching, and workers
re-invoke ``func(*config)`` in another process, so everything must pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["WorkUnit", "supports_units",
           "get_scenarios", "get_assemble", "execute_serial",
           "check_config_is_data"]

_DATA_TYPES = (str, bytes, int, float, bool, type(None))


@dataclass(frozen=True)
class WorkUnit:
    """One independent scenario evaluation of one experiment.

    ``func`` must be module-level (picklable by reference) and
    ``func(*config)`` must return a picklable value.  ``cost_hint`` is the
    expected serial wall time in approximate seconds of the unit's own
    mode (``scenarios(fast)`` returns fast- or full-mode hints); the flat
    scheduler dispatches longest-first so the big units start immediately,
    and the supervisor derives the unit's deadline from it.  ``seed``
    records the scenario's RNG seed string for the cache key; by
    convention it matches what the unit passes to ``make_rng``.
    """

    exp_id: str
    label: str
    func: Callable
    config: Tuple = ()
    cost_hint: float = 1.0
    seed: str = ""
    #: Shared scenario prefix (:class:`repro.experiments.snapstore.
    #: PrefixSpec`).  When set, ``func`` is called as ``func(roots,
    #: *config)`` on a fork of the prefix's frozen world (or on a cold
    #: rebuild when snapshots are disabled), and the prefix joins the
    #: cache key — the unit result depends on the prefix's identity.
    prefix: Optional[object] = None


def check_config_is_data(unit: WorkUnit) -> None:
    """Raise if a unit config smells identity-based (defeats the cache)."""
    def walk(v):
        if isinstance(v, _DATA_TYPES):
            return
        if isinstance(v, (tuple, list, frozenset)):
            for item in v:
                walk(item)
            return
        if isinstance(v, dict):
            for k, item in sorted(v.items()):
                walk(k)
                walk(item)
            return
        raise TypeError(
            f"work unit {unit.exp_id}/{unit.label}: config element {v!r} "
            f"of type {type(v).__name__} is not plain data; its repr would "
            f"poison the cache key")
    walk(unit.config)
    if unit.prefix is not None:
        walk(unit.prefix.config)


def supports_units(mod, exp_id: str) -> bool:
    """True when the module exposes the scenarios/assemble protocol."""
    return (get_scenarios(mod, exp_id) is not None
            and get_assemble(mod, exp_id) is not None)


def get_scenarios(mod, exp_id: str) -> Optional[Callable]:
    """Resolve ``scenarios_{exp_id}`` or ``scenarios`` (like run/check)."""
    return getattr(mod, f"scenarios_{exp_id}", None) or \
        getattr(mod, "scenarios", None)


def get_assemble(mod, exp_id: str) -> Optional[Callable]:
    return getattr(mod, f"assemble_{exp_id}", None) or \
        getattr(mod, "assemble", None)


def execute_serial(units: Sequence[WorkUnit], fast: bool) -> List:
    """Run units in order, in-process, returning one result per unit.

    This is what the thin ``run(fast=)`` wrappers call.  Each unit runs
    through :func:`repro.experiments.snapstore.execute_unit`, so units
    carrying a prefix fork it from this process's snapshot store.
    ``fast`` feeds the prefix store key, so it is required: a wrapper
    that dropped its mode would file fast prefixes under the full-mode
    key and build every shared world a second time.
    """
    from repro.experiments.snapstore import execute_unit
    return [execute_unit(u.func, u.config, u.prefix, fast) for u in units]
