"""Work units: the scenario-granular decomposition of an experiment.

The flat scheduler in :mod:`repro.experiments.parallel` executes a single
global queue of **work units** drawn from every experiment at once.  A
work unit is one independent scenario evaluation — a pure function of
``(code, config, seed)`` under the determinism contract — which makes it
both the natural unit of load balancing *and* the natural unit of result
caching (:mod:`repro.experiments.cache`).

Every experiment module exposes three functions::

    scenarios(fast: bool) -> List[WorkUnit]        # decompose
    assemble(fast: bool, results: List) -> Table   # recompose, same order
    check(table: Table) -> None                    # the shape assertions

``assemble`` receives one result per unit, in ``scenarios`` order, and must
build the table purely from those results — no additional simulation.

Unit configs must be **data only** (strings, numbers, bools, tuples):
``repr(config)`` feeds the cache key, so anything with an identity-based
repr (functions, objects) would silently defeat caching, and workers
re-invoke ``func(*config)`` in another process, so everything must pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = ["WorkUnit", "check_config_is_data"]

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
