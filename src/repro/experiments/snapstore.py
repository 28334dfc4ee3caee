"""Warm-start snapshot store: build each scenario prefix once, fork many.

Most sweep scenarios share an expensive setup: build the VM, attach the
scheduler, run the warmup until the probers converge — and only then
diverge (install an antagonist, start a workload, flip a feature).  A
:class:`PrefixSpec` names that shared prefix declaratively; the first unit
that needs it builds the world cold, runs it to the
divergence point, and freezes it as a
:class:`~repro.sim.snapshot.WorldSnapshot`.  Every later unit with the
same prefix forks the frozen image instead of rebuilding — byte-identical
results (``tools/abdiff.py`` proves it) at a fraction of the wall time.

A prefix goes where two or more units share a warm-up that costs
several forks (INTERNALS §15): fig13, fig14, fig15, fig18, fig19, fig20,
fig21, tab4, and tab3, whose bvs units fork fig14's worlds; fig20's
fast hpvm worlds are fig19's.  fig12 has no prefix: its time is in its
underloaded measurements, not in the vtop warm-ups its units share
(INTERNALS §15).

A prefix snapshot is addressed by its key, ``repr(config)``, seed and
fast/full mode (:func:`prefix_store_key`).  The key holds no code
fingerprint: each process has one store (:func:`process_store`), a
snapshot is a pickle image held in that process's memory and never
written to disk, and a running process's code cannot change.  A
pooled campaign builds each prefix once, in the worker that runs its
first unit in dispatch order; that worker returns the image with the
unit's outcome, and the supervisor
(:mod:`repro.experiments.supervisor`) sends it through the task pipe to
each other worker that runs a unit of the prefix, which installs it
(:meth:`SnapshotStore.install`) before forking.  So a pooled campaign
counts the same hits, misses and events as a serial one.

``snapshot=False`` (``run_units(..., snapshot=False)``, ``--no-snapshot``
on the CLI) disables forking: every unit then rebuilds its prefix cold
through the *same* builder function, which is the A/B baseline for the
identity contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.snapshot import WorldSnapshot

__all__ = ["PrefixSpec", "SnapshotStore", "execute_unit", "process_store",
           "reset_process_store", "prefix_parts", "prefix_store_key",
           "snapshot_counters", "build_cold"]


@dataclass(frozen=True)
class PrefixSpec:
    """Declarative description of a shared scenario prefix.

    ``func`` must be module-level (picklable by reference).  It is called
    as ``func(*config)`` and must return the world's *roots*: a dict of
    top-level handles containing at least ``"engine"`` (everything a
    diverging unit needs to keep driving the world — env, scheduler,
    workload context...).

    ``config`` must be plain data — it feeds the store key via ``repr``,
    exactly like a work unit's config feeds the result-cache key.
    ``seed`` records the prefix's RNG seed string by the same convention.
    """

    key: str
    func: Callable
    config: Tuple = ()
    seed: str = ""


def prefix_parts(prefix: PrefixSpec) -> List[str]:
    """Key material naming a prefix."""
    return [prefix.key, repr(prefix.config), prefix.seed]


def prefix_store_key(prefix: PrefixSpec, fast: bool) -> Tuple[str, ...]:
    """Store key of one prefix's frozen world: the prefix and the
    fast/full mode."""
    return (*prefix_parts(prefix), "fast" if fast else "full")


def build_cold(prefix: PrefixSpec) -> Dict[str, Any]:
    """Build a prefix world with no snapshotting at all.

    The disabled-mode path and the miss path run the same builder
    function; the only difference is whether the result is frozen
    afterwards.
    """
    roots = prefix.func(*prefix.config)
    if "engine" not in roots:
        raise KeyError(
            f"prefix {prefix.key!r}: builder returned roots without an "
            f"'engine' entry")
    return roots


class SnapshotStore:
    """In-process map from prefix key to frozen world, with accounting.

    ``build_seconds`` is the wall time spent building and freezing
    prefixes on misses; fork cost shows up in each unit's own wall time.
    A miss freezes the world it built and keeps only the image.
    """

    def __init__(self) -> None:
        self._snaps: Dict[Tuple[str, ...], WorldSnapshot] = {}
        self.hits = 0
        self.misses = 0
        self.forks = 0
        self.cold_builds = 0
        self.build_seconds = 0.0

    def acquire(self, prefix: PrefixSpec, fast: bool) -> WorldSnapshot:
        """Return the frozen world for ``prefix``, building it on miss."""
        key = prefix_store_key(prefix, fast)
        snap = self._snaps.get(key)
        if snap is not None:
            self.hits += 1
            return snap
        self.misses += 1
        started = time.perf_counter()
        roots = build_cold(prefix)
        snap = WorldSnapshot(roots["engine"], roots)
        self._snaps[key] = snap
        self.build_seconds += time.perf_counter() - started
        return snap

    def fork(self, prefix: PrefixSpec, fast: bool) -> Dict[str, Any]:
        """Fork the prefix's world; returns the forked roots dict."""
        snap = self.acquire(prefix, fast)
        _engine, roots = snap.fork()
        self.forks += 1
        return roots

    def image(self, prefix: PrefixSpec, fast: bool) -> Optional[bytes]:
        """The frozen image of ``prefix``, or None if it is not held."""
        snap = self._snaps.get(prefix_store_key(prefix, fast))
        return None if snap is None else snap.image

    def install(self, prefix: PrefixSpec, fast: bool, image: bytes) -> None:
        """Hold an image of ``prefix`` that another process froze.

        Counts as neither a hit nor a miss: the fork that follows is the
        hit, and the miss was counted where the image was built.
        """
        self._snaps[prefix_store_key(prefix, fast)] = \
            WorldSnapshot.from_image(image)


#: The per-process store (grown lazily; each pool worker owns one).
_process_store: Optional[SnapshotStore] = None


def process_store() -> SnapshotStore:
    global _process_store
    if _process_store is None:
        _process_store = SnapshotStore()
    return _process_store


def reset_process_store() -> None:
    """Drop every frozen world: each pool worker does at start, and tests
    do between cases."""
    global _process_store
    _process_store = None


def snapshot_counters() -> Dict[str, int]:
    """Cumulative per-process snapshot accounting, for unit stat deltas.

    Reported through the same channel as the engine counter deltas, so
    pooled workers ship them back inside each unit outcome and a
    campaign's ``counters`` sum hit/miss/fork counts per experiment.
    """
    s = _process_store
    if s is None:
        return {"snap_hits": 0, "snap_misses": 0, "snap_forks": 0,
                "snap_cold_builds": 0}
    return {"snap_hits": s.hits, "snap_misses": s.misses,
            "snap_forks": s.forks, "snap_cold_builds": s.cold_builds}


def execute_unit(func: Callable, config: Tuple,
                 prefix: Optional[PrefixSpec], fast: bool,
                 snapshot: bool = True) -> Any:
    """Run one work-unit body, warm-starting from its prefix if it has one.

    With a prefix and ``snapshot`` on, the unit function is called as
    ``func(roots, *config)`` on a private fork of the frozen prefix
    world.  With ``snapshot`` off the prefix is rebuilt cold — through
    the identical builder code — before the same call.  Without a
    prefix this is exactly ``func(*config)``.
    """
    if prefix is None:
        return func(*config)
    store = process_store()
    if snapshot:
        roots = store.fork(prefix, fast)
    else:
        store.cold_builds += 1
        roots = build_cold(prefix)
    return func(roots, *config)
