#!/usr/bin/env python3
"""Benchmark the experiment catalogue: wall-clock, events fired, events/sec.

Runs each experiment (fast mode recommended) and writes a JSON report,
``BENCH_<YYYYMMDD>.json`` by default, so engine-hot-path changes can be
compared run over run.  Experiments that expose the work-unit protocol are
timed per scenario, so the report shows where the seconds go inside the
heavy experiments; with ``--cache`` the report also counts unit cache
hits/misses (a warm rerun of an unchanged tree is all hits).

Each row (and the report header) also carries a ``snapshot`` block — the
warm-start store's hit/miss/fork/cold-build counts and the prefix seconds
saved by forking frozen worlds instead of replaying warm-ups
(``docs/INTERNALS.md`` §15).  ``$VSCHED_REPRO_SNAPSHOT=0`` turns forking
off, which is how the A/B win is measured: same command, flip the env
var, compare ``total_wall_s``.

With ``--jobs N`` (N > 1) the catalogue runs as one supervised campaign
through the flat scheduler: per-scenario wall/events come from the worker
measurements, scenario rows carry their retry ``attempts``, and the
report's ``supervisor`` block records retry/requeue/timeout/kill/respawn
counts — under ``$VSCHED_REPRO_CHAOS`` that is the fault-recovery bill.

Every experiment row records the engine counter deltas
(pushes/cancels/dead_drops).

Usage::

    PYTHONPATH=src python tools/bench.py --fast
    PYTHONPATH=src python tools/bench.py --fast --experiments fig2,fig14
    PYTHONPATH=src python tools/bench.py --fast --jobs 4
    PYTHONPATH=src python tools/bench.py --fast --cache --cache-dir .c
    PYTHONPATH=src python tools/bench.py --fast --profile fig14
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments import parallel
from repro.experiments.cache import ResultCache, code_fingerprint, unit_key
from repro.experiments.cli import ALL_ORDER
from repro.experiments.common import check_experiment, run_experiment
from repro.experiments.snapstore import execute_unit, snapshot_counters
from repro.experiments.supervisor import SupervisorStats
from repro.sim.engine import Engine, snapshot_default

#: Counter keys copied into per-scenario/per-experiment "engine" dicts
#: (fired is already a first-class report field).
_COUNTER_KEYS = ("pushes", "cancels", "dead_drops")

#: Snapshot-store keys (deltas ride the same counters channel as the
#: engine's; see repro.experiments.snapstore.snapshot_counters).
_SNAP_KEYS = ("snap_hits", "snap_misses", "snap_forks", "snap_cold_builds",
              "snap_saved_s")


def _counter_delta(before):
    after = Engine.counters()
    return {k: after[k] - before[k] for k in _COUNTER_KEYS}


def _snap_delta(before):
    after = snapshot_counters()
    return {k: round(after[k] - before[k], 3) for k in _SNAP_KEYS}


def _snap_block(source: dict) -> dict:
    """Normalize snapshot counters for a report row (strip the prefix)."""
    return {"hits": int(source.get("snap_hits", 0)),
            "misses": int(source.get("snap_misses", 0)),
            "forks": int(source.get("snap_forks", 0)),
            "cold_builds": int(source.get("snap_cold_builds", 0)),
            "prefix_saved_s": round(float(source.get("snap_saved_s", 0.0)),
                                    3)}


def bench_one(exp_id: str, fast: bool, check: bool, cache=None,
              fingerprint=None) -> dict:
    """Time one experiment unit-by-unit; returns the report row."""
    events0 = Engine.total_events_fired
    counters0 = Engine.counters()
    snap_before = snapshot_counters()
    started = time.perf_counter()
    error = None
    scenarios = []
    hits = misses = 0
    try:
        units, assemble = parallel.decompose(exp_id, fast)
        results = []
        for unit in units:
            key = unit_key(unit, fast, fingerprint=fingerprint) \
                if cache is not None else None
            cached = False
            if key is not None:
                cached, value = cache.lookup(key)
            u_started = time.perf_counter()
            u_events0 = Engine.total_events_fired
            u_counters0 = Engine.counters()
            u_snap0 = snapshot_counters()
            if cached:
                result = value
                hits += 1
            else:
                result = execute_unit(unit.func, unit.config, unit.prefix,
                                      fast)
                if key is not None:
                    cache.store(key, result)
                    misses += 1
            results.append(result)
            scenarios.append({
                "label": unit.label,
                "wall_s": round(time.perf_counter() - u_started, 3),
                "events_fired": Engine.total_events_fired - u_events0,
                "engine": _counter_delta(u_counters0),
                "snapshot": _snap_block(_snap_delta(u_snap0)),
                "cached": cached,
            })
        table = assemble(fast, results)
        if check:
            check_experiment(exp_id, table)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    events = Engine.total_events_fired - events0
    row = {
        "exp_id": exp_id,
        "wall_s": round(wall, 3),
        "events_fired": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "engine": _counter_delta(counters0),
        "snapshot": _snap_block(_snap_delta(snap_before)),
        "scenarios": scenarios,
        "error": error,
    }
    if cache is not None:
        row["cache"] = {"hits": hits, "misses": misses}
    return row


def bench_campaign(ids, fast: bool, check: bool, jobs: int,
                   cache=None) -> list:
    """Time the ids as one supervised campaign; returns report rows.

    Wall/events per scenario are the worker-side measurements streamed
    back through the supervisor; a unit that retried reports the wall of
    its successful attempt and ``attempts > 1``.
    """
    rows = []
    for res in parallel.run_units(ids, fast=fast, check=check, jobs=jobs,
                                  cache=cache, keep_going=True):
        if res.failed_units:
            error = "; ".join(f"{fu.label}: {fu.error}"
                              for fu in res.failed_units)
        else:
            error = res.check_error
        row = {
            "exp_id": res.exp_id,
            "wall_s": round(res.wall_s, 3),
            "events_fired": res.events_fired,
            "events_per_sec": round(res.events_fired / res.wall_s)
            if res.wall_s > 0 else 0,
            "engine": {k: res.counters.get(k, 0) for k in _COUNTER_KEYS},
            "snapshot": _snap_block(res.counters),
            "scenarios": res.unit_stats,
            "error": error,
        }
        if cache is not None:
            row["cache"] = {"hits": res.cache_hits,
                            "misses": res.n_units - res.cache_hits}
        rows.append(row)
    return rows


def profile_experiment(exp_id: str, fast: bool) -> int:
    """cProfile one experiment; print the top 20 by cumulative time and
    the engine's per-callback attribution table (fired/cancelled per
    callsite — where the event budget actually goes)."""
    import cProfile
    import pstats

    Engine.profile_reset()
    Engine.profiling = True
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_experiment(exp_id, fast=fast)
    finally:
        profiler.disable()
        Engine.profiling = False
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    print()
    print(Engine.profile_table())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the experiment catalogue and emit a JSON report.")
    parser.add_argument("--fast", action="store_true",
                        help="shrunken workloads (recommended)")
    parser.add_argument("--experiments", default=None, metavar="IDS",
                        help="comma-separated experiment ids "
                             "(default: the full catalogue)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="N>1 times the ids as one supervised campaign "
                             "over N workers (adds supervisor fault "
                             "counters to the report)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<YYYYMMDD>.json)")
    parser.add_argument("--check", action="store_true",
                        help="run shape checks; exit nonzero on any failure")
    parser.add_argument("--cache", action="store_true",
                        help="consult/populate the work-unit result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory")
    parser.add_argument("--profile", default=None, metavar="EXP_ID",
                        help="cProfile this experiment, print the top 20 "
                             "cumulative entries, and exit")
    parser.add_argument("--snapshot-ab", action="store_true",
                        help="after the primary run, rerun the ids with "
                             "$VSCHED_REPRO_SNAPSHOT=0 and embed the "
                             "per-experiment cold-vs-forked wall-time "
                             "comparison in the report")
    args = parser.parse_args(argv)

    if args.profile:
        return profile_experiment(args.profile, fast=args.fast)

    ids = (args.experiments.split(",") if args.experiments else ALL_ORDER)
    ids = [i.strip() for i in ids if i.strip()]
    parallel.set_default_jobs(args.jobs)
    cache = ResultCache(args.cache_dir) if args.cache else None
    fingerprint = code_fingerprint() if args.cache else None

    if args.jobs > 1:
        primary = bench_campaign(ids, fast=args.fast, check=args.check,
                                 jobs=args.jobs, cache=cache)
    else:
        primary = [bench_one(exp_id, fast=args.fast, check=args.check,
                             cache=cache, fingerprint=fingerprint)
                   for exp_id in ids]
    for res in primary:
        status = res["error"] or "ok"
        cache_note = ""
        if cache is not None:
            cache_note = (f" {res['cache']['hits']}h/"
                          f"{res['cache']['misses']}m")
        print(f"{res['exp_id']:8s} {res['wall_s']:8.2f}s "
              f"{res['events_fired']:>12,d} ev "
              f"{res['events_per_sec']:>10,d} ev/s{cache_note}  "
              f"[{status}]", flush=True)
    sup_stats = parallel.last_campaign_stats()

    report = {
        "date": datetime.date.today().isoformat(),
        "fast": args.fast,
        "jobs": args.jobs,
        "python": platform.python_version(),
        "total_wall_s": round(sum(r["wall_s"] for r in primary), 3),
        "total_events_fired": sum(r["events_fired"] for r in primary),
        "snapshot_forking": snapshot_default(),
        "snapshot": {
            "hits": sum(r["snapshot"]["hits"] for r in primary),
            "misses": sum(r["snapshot"]["misses"] for r in primary),
            "forks": sum(r["snapshot"]["forks"] for r in primary),
            "cold_builds": sum(r["snapshot"]["cold_builds"]
                               for r in primary),
            "prefix_saved_s": round(sum(r["snapshot"]["prefix_saved_s"]
                                        for r in primary), 3),
        },
        "supervisor": (sup_stats.as_dict() if sup_stats is not None
                       else SupervisorStats().as_dict()),
        "experiments": primary,
    }
    if args.snapshot_ab:
        saved_snap = os.environ.get("VSCHED_REPRO_SNAPSHOT")
        os.environ["VSCHED_REPRO_SNAPSHOT"] = "0"
        try:
            if args.jobs > 1:
                off_rows = bench_campaign(ids, fast=args.fast,
                                          check=args.check,
                                          jobs=args.jobs, cache=None)
            else:
                off_rows = [bench_one(exp_id, fast=args.fast,
                                      check=args.check)
                            for exp_id in ids]
        finally:
            if saved_snap is None:
                os.environ.pop("VSCHED_REPRO_SNAPSHOT", None)
            else:
                os.environ["VSCHED_REPRO_SNAPSHOT"] = saved_snap
        on_by_id = {r["exp_id"]: r for r in primary}
        ab = {}
        for off in off_rows:
            on = on_by_id[off["exp_id"]]
            ab[off["exp_id"]] = {
                "forked_wall_s": on["wall_s"],
                "cold_wall_s": off["wall_s"],
                "speedup": round(off["wall_s"] / on["wall_s"], 2)
                if on["wall_s"] > 0 else 0.0,
            }
        on_total = sum(r["wall_s"] for r in primary)
        off_total = sum(r["wall_s"] for r in off_rows)
        report["snapshot_ab"] = {
            "forked_total_wall_s": round(on_total, 3),
            "cold_total_wall_s": round(off_total, 3),
            "speedup": round(off_total / on_total, 2)
            if on_total > 0 else 0.0,
            "experiments": ab,
        }
        print(f"snapshot A/B: forked {on_total:.1f}s vs cold "
              f"{off_total:.1f}s -> x{report['snapshot_ab']['speedup']:.2f}",
              flush=True)
    if cache is not None:
        report["cache"] = {
            "dir": cache.path,
            "hits": cache.hits,
            "misses": cache.misses,
        }
    out = args.out or f"BENCH_{datetime.date.today():%Y%m%d}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    snap = report["snapshot"]
    snap_note = (f", snapshots {snap['hits']}h/{snap['misses']}m "
                 f"({snap['prefix_saved_s']:.1f}s prefix time saved)"
                 if snap["hits"] or snap["misses"] or snap["cold_builds"]
                 else "")
    print(f"wrote {out}: {report['total_wall_s']:.1f}s total, "
          f"{report['total_events_fired']:,d} events fired"
          + snap_note
          + (f", cache {cache.hits}h/{cache.misses}m" if cache else ""))

    failures = [r["exp_id"] for r in primary if r["error"]]
    if failures:
        print(f"FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
