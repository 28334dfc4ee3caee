"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because the snapshot
store is per process: a second fig14 in the same interpreter would fork
every prefix from the first one's store.  The child runs the workload
through ``repro.experiments.parallel.run_units``, the path
``python -m repro.experiments run`` takes, and prints one JSON object as
its last line of standard output.

During the timed (cold) campaign, ``speed.Sampler`` probes the host's
speed, and ``wall_s`` and ``cpu_s`` are reported at the reference speed
next to the raw times (``*_raw_s``).  With ``--trace-out`` the child is
the traced pass instead: no probes, cProfile covers the ``run_units`` call
and spans are recorded around the public calls the harness can reach.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import statistics
import sys
import time

import speed
import workloads
from layers import (Tracer, chrome_trace, fold_self_time, span_self_times,
                    span_totals)
from repro.experiments import cache as cache_mod
from repro.experiments import common, parallel, snapstore
from repro.sim import snapshot


class TimedCache(cache_mod.ResultCache):
    """A ResultCache that adds up the time spent in its calls."""

    def __init__(self, path):
        super().__init__(path)
        self.lookup_s = 0.0
        self.store_s = 0.0

    def lookup(self, key):
        started = time.perf_counter()
        try:
            return super().lookup(key)
        finally:
            self.lookup_s += time.perf_counter() - started

    def store(self, key, value):
        started = time.perf_counter()
        try:
            return super().store(key, value)
        finally:
            self.store_s += time.perf_counter() - started


def _install_spans(tracer: Tracer) -> None:
    """Wrap the public calls into each layer in spans (traced pass only).

    ``run_units`` looks each of these up at call time, through a module
    global or an import inside the calling function, so it picks up the
    wrappers.
    """
    parallel.decompose = tracer.wrap("decompose", parallel.decompose)
    snapstore.execute_unit = tracer.wrap("execute_unit",
                                         snapstore.execute_unit)
    store = snapstore.SnapshotStore
    store.acquire = tracer.wrap("snapstore.acquire", store.acquire)
    world = snapshot.WorldSnapshot
    world.__init__ = tracer.wrap("snapshot.freeze", world.__init__)
    world.fork = tracer.wrap("snapshot.fork", world.fork)
    rc = cache_mod.ResultCache
    rc.lookup = tracer.wrap("cache.lookup", rc.lookup)
    rc.store = tracer.wrap("cache.store", rc.store)
    cache_mod.code_fingerprint = tracer.wrap("code_fingerprint",
                                             cache_mod.code_fingerprint)
    common.check_experiment = tracer.wrap("check", common.check_experiment)


def _campaign(ids, jobs, cache, results, tracer=None):
    """Drain ``run_units`` into ``results``; returns the wall seconds.

    The clock stops after the last experiment is yielded, which is after
    its table was assembled and checked.
    """
    started = time.perf_counter()
    stream = parallel.run_units(ids, fast=True, check=True, jobs=jobs,
                                cache=cache, keep_going=True)
    if tracer is not None:
        stream = tracer.wrap_iter("experiment", stream)
    for res in stream:
        results.append(res)
    return time.perf_counter() - started


def _digests(results):
    return {r.exp_id: hashlib.sha256(r.rendered.encode()).hexdigest()
            for r in results}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children (the workers
    of a finished pool)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launch-ts", type=float, required=True,
                        help="time.monotonic() in the parent just before "
                             "this interpreter was started")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--probe-dir", required=True,
                        help="pool workers write their probe times here")
    parser.add_argument("--trace-out", default=None,
                        help="traced pass: write Chrome trace JSON here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args(argv)

    workload = workloads.get(args.workload)
    ids = workloads.submission_order(workload, args.seed)
    tracer = None
    if args.trace_out:
        tracer = Tracer(f"{workload.name}/seed{args.seed}")
        _install_spans(tracer)

    started = time.perf_counter()
    for exp_id in ids:
        parallel.decompose(exp_id, True)
    decompose_s = time.perf_counter() - started
    setup_s = time.monotonic() - args.launch_ts
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    cache = TimedCache(args.cache_dir) if workload.cache else None
    profiler = sampler = None
    if tracer is not None:
        profiler = cProfile.Profile()
        # Pool workers are forked from this process; without this they
        # would inherit the profiler and run several times slower.
        os.register_at_fork(after_in_child=profiler.disable)
        profiler.enable()
    else:
        sampler = speed.Sampler(args.probe_dir)
        sampler.start()
    results = []
    cpu_from = _cpu_s()
    try:
        wall_raw_s = _campaign(ids, workload.jobs, cache, results, tracer)
    finally:
        if profiler is not None:
            profiler.disable()
        else:
            sampler.stop()
    cpu_raw_s = _cpu_s() - cpu_from
    probes, spent_s = [], 0.0
    if sampler is not None:
        pooled = sampler.spilled()
        probes = sampler.samples + pooled
        # The workers probed in parallel: about 1/jobs of their probe time
        # was on the critical path.
        spent_s = sampler.spent_s + sum(pooled) / workload.jobs
    stats = parallel.last_campaign_stats()

    unit_walls = [u["wall_s"] for r in results for u in r.unit_stats]
    counters = {}
    for r in results:
        for k, v in r.counters.items():
            counters[k] = counters.get(k, 0) + v
    out = {
        "workload": workload.name,
        "order": ids,
        "jobs": workload.jobs,
        "setup_s": setup_s,
        "decompose_s": decompose_s,
        "wall_s": speed.normalise(wall_raw_s, spent_s, probes),
        "wall_raw_s": wall_raw_s,
        "cpu_s": speed.normalise(cpu_raw_s, sum(probes), probes),
        "cpu_raw_s": cpu_raw_s,
        "speed": speed.factor(probes),
        "probes": len(probes),
        "digests": _digests(results),
        "check_errors": {r.exp_id: r.check_error for r in results
                         if r.check_error},
        "units": sum(r.n_units for r in results),
        "failed_units": sum(len(r.failed_units) for r in results),
        "events_fired": sum(r.events_fired for r in results),
        "events_elided": sum(r.events_elided for r in results),
        "pushes": counters.get("pushes", 0),
        "cancels": counters.get("cancels", 0),
        "snap_hits": counters.get("snap_hits", 0),
        "snap_misses": counters.get("snap_misses", 0),
        "snap_forks": counters.get("snap_forks", 0),
        "prefix_build_s": snapstore.process_store().build_seconds,
        "unit_walls": unit_walls,
        "unit_wall_p50": statistics.median(unit_walls) if unit_walls
        else 0.0,
        "supervisor": {k: getattr(stats, k)
                       for k in ("retries", "requeues", "respawns")},
    }

    if cache is not None:
        out["cache_bytes"] = _dir_bytes(cache.path)
        warm_results = []
        warm = TimedCache(args.cache_dir)
        out["warm_pass_s"] = _campaign(ids, workload.jobs, warm,
                                       warm_results, tracer)
        out["warm_units"] = sum(r.n_units for r in warm_results)
        out["warm_failed_units"] = sum(len(r.failed_units)
                                       for r in warm_results)
        out["warm_digests_match"] = _digests(warm_results) == out["digests"]
        out["cache_hits"] = cache.hits + warm.hits
        out["cache_misses"] = cache.misses + warm.misses
        out["cache_lookup_s"] = cache.lookup_s + warm.lookup_s
        out["cache_store_s"] = cache.store_s + warm.store_s

    if tracer is not None:
        out["self_s"] = fold_self_time(pstats.Stats(profiler).stats)
        out["span_totals"] = span_totals(tracer.spans)
        out["span_self_s"] = span_self_times(tracer.spans)
        with open(args.trace_out, "w") as fh:
            json.dump(chrome_trace(tracer.spans, tracer.workload), fh)

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["peak_rss_mb"] = max(me.ru_maxrss, kids.ru_maxrss) / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
