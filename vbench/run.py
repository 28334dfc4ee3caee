#!/usr/bin/env python3
"""vbench: end-to-end and per-layer benchmark of the vSched simulator.

Runs named workloads of fast-mode experiments through the public campaign
API (``repro.experiments.parallel.run_units``), each repetition in a fresh
interpreter, checks every rendered table against ``reference.json``, and
prints every metric by name with its unit.  A traced pass per workload
(cProfile plus spans) gives the per-layer numbers.  See README.md.

Usage, from the root of the repository::

    python3 vbench/run.py                          # every workload, 3 reps
    python3 vbench/run.py --workload fork-sweep --seed 7 --seconds 15 \\
        --trace 0
    python3 vbench/run.py --aa --seconds 15        # A/A; derives bounds
    python3 vbench/run.py --write-reference        # regenerate digests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")

#: A repetition running longer than CHILD_TIMEOUT_S is killed.  No timed
#: round beyond the minimum starts if it would end after RUN_BUDGET_S.  The
#: budget covers only the timed rounds: the page-cache warm-up, the set-up
#: top-ups and the traced pass come on top.  README.md gives the measured
#: length of whole runs.
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0

#: Set-up times per workload and run, topped up by set-up-only children.
SETUP_SAMPLES = 11

#: How ``--aa`` turns its spreads into end-to-end bounds: the largest A/A
#: spread or median difference of a metric on any workload, times
#: SPREAD_MARGIN, rounded up to a multiple of BOUND_STEP and kept within
#: [BOUND_STEP, MAX_BOUND].  ``setup_s`` gets the largest bound of all.
SPREAD_MARGIN = 3.0
BOUND_STEP = 0.05
MAX_BOUND = 0.25

#: Runs per ``--aa`` set, each with its own seed; ten is the fewest that
#: the quartiles of a regression comparison rest on.
AA_RUNS = 10

#: Timings that are normalised to the reference host speed; ``--aa`` also
#: reports their spread as measured.
RAW_TIMES = ("setup_s", "wall_s", "cpu_s")

#: Counters that must repeat exactly across repetitions of one workload.
EXACT_KEYS = ("units", "events_fired", "events_elided", "pushes", "cancels",
              "snap_hits", "snap_misses", "snap_forks", "cache_hits",
              "cache_misses")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from layers import BUCKETS  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark could not run (missing tree, child crash, timeout)."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _child_env(extra: Optional[Dict[str, str]]) -> Dict[str, str]:
    """The caller's environment without the simulator's mode switches,
    which would change what is measured, plus ``extra``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VSCHED_REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def run_child(name: str, seed: int, args: Sequence[str] = (),
              env: Optional[Dict[str, str]] = None) -> dict:
    """One repetition of ``name`` in a fresh interpreter.

    ``args`` go to ``child.py`` (``--trace-out PATH``, ``--setup-only``).
    """
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="rep-", dir=OUT)
    cache_dir = os.path.join(scratch, "cache")
    probe_dir = os.path.join(scratch, "probes")
    os.mkdir(cache_dir)
    os.mkdir(probe_dir)
    cmd = [sys.executable, CHILD, "--workload", name, "--seed", str(seed),
           "--cache-dir", cache_dir, "--probe-dir", probe_dir, *args]
    launched = time.monotonic()
    cmd += ["--launch-ts", repr(launched)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{name}: repetition exceeded "
                           f"{CHILD_TIMEOUT_S:.0f} s")
    finally:
        try:  # pool workers the child failed to reap
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise HarnessError(f"{name}: child exited {proc.returncode} without a "
                       f"result\n{err[-4000:]}")


def schedule(names: Sequence[str], reps: int, seconds: float,
             run) -> Dict[str, List[dict]]:
    """Round-robin repetitions over ``names``, reversed on odd rounds.

    Runs at least ``reps`` rounds and keeps adding rounds until
    ``seconds`` have passed, unless the next round would end after
    RUN_BUDGET_S.
    """
    samples: Dict[str, List[dict]] = {n: [] for n in names}
    started = time.monotonic()
    rounds = 0
    while True:
        order = list(names) if rounds % 2 == 0 else list(names)[::-1]
        round_started = time.monotonic()
        for name in order:
            samples[name].append(run(name))
        rounds += 1
        elapsed = time.monotonic() - started
        last = time.monotonic() - round_started
        if rounds >= reps and (elapsed >= seconds
                               or elapsed + last > RUN_BUDGET_S):
            return samples


# ----------------------------------------------------------------------
# Statistics and metrics
# ----------------------------------------------------------------------
def describe(values: Sequence[float]) -> dict:
    """Median, min and quartiles (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values),
            "values": values}


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as fh:
        return json.load(fh)["tables"]


def problems_of(samples: Sequence[dict], reference: Dict[str, str]
                ) -> List[str]:
    """Everything that makes this workload's output incorrect."""
    found = []
    for i, s in enumerate(samples):
        for exp_id, digest in s["digests"].items():
            if reference.get(exp_id) != digest:
                found.append(f"rep {i}: {exp_id} table differs from "
                             f"reference.json")
        for exp_id, err in s["check_errors"].items():
            found.append(f"rep {i}: {exp_id} check failed: {err}")
        if s["failed_units"]:
            found.append(f"rep {i}: {s['failed_units']} unit(s) failed")
        if "warm_units" in s:
            if not s["warm_digests_match"] or s["warm_failed_units"]:
                found.append(f"rep {i}: warm pass differs from cold pass")
            if s["cache_hits"] != s["units"]:
                found.append(f"rep {i}: warm pass hit {s['cache_hits']} "
                             f"of {s['units']} units")
    for key in EXACT_KEYS:
        seen = {s.get(key) for s in samples}
        if len(seen) > 1:
            found.append(f"{key} differs across repetitions: "
                         f"{sorted(seen, key=str)}")
    return found


def _output_ok(sample: dict, reference: Dict[str, str]) -> int:
    return int(not problems_of([sample], reference))


def end_to_end(samples: Sequence[dict], reference: Dict[str, str],
               setups: Sequence[float] = ()) -> Dict[str, dict]:
    """``setups`` are extra set-up times from set-up-only children.

    ``wall_s`` and ``cpu_s`` come from each repetition at the reference
    speed.  A set-up is too short to probe, so the set-up times are scaled
    by the mean host speed over the repetitions of the run.
    """
    run_speed = statistics.fmean(s["speed"] for s in samples)
    columns = {
        "setup_s": [t * run_speed for t in
                    [s["setup_s"] for s in samples] + list(setups)],
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "output_ok": [_output_ok(s, reference) for s in samples],
    }
    return {k: describe(v) for k, v in columns.items()}


def raw_times(samples: Sequence[dict], setups: Sequence[float] = ()
              ) -> Dict[str, float]:
    """Medians of the timings as measured, before normalisation."""
    return {
        "setup_s": statistics.median(
            [s["setup_s"] for s in samples] + list(setups)),
        "wall_s": statistics.median(s["wall_raw_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_raw_s"] for s in samples),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(samples: Sequence[dict], traced: dict) -> Dict[str, float]:
    """Per-layer values: counters from the untraced repetitions (exact),
    timings as their medians, self time and spans from the traced pass."""
    first = samples[0]

    def med(f):
        return statistics.median(f(s) for s in samples)

    def unit_sum(s):
        return sum(s["unit_walls"])

    spans = traced["span_totals"]
    self_s = traced["self_s"]
    profiled = sum(self_s.get(b, 0.0) for b in BUCKETS)
    snap_lookups = first["snap_hits"] + first["snap_misses"]
    values = {
        "sim.events_fired": first["events_fired"],
        "sim.events_elided": first["events_elided"],
        "sim.pushes": first["pushes"],
        "sim.cancels": first["cancels"],
        "sim.cancel_ratio": _ratio(first["cancels"], first["pushes"]),
        "sim.ns_per_event": med(lambda s: _ratio(
            unit_sum(s) * s["speed"] * 1e9, s["events_fired"])),
        "snapstore.hits": first["snap_hits"],
        "snapstore.misses": first["snap_misses"],
        "snapstore.forks": first["snap_forks"],
        "snapstore.hit_ratio": _ratio(first["snap_hits"], snap_lookups),
        "snapstore.prefix_build_s": med(lambda s: s["prefix_build_s"]),
        "snapstore.fork_s": spans.get("snapshot.fork", (0, 0.0))[1],
        "cache.hits": first.get("cache_hits", 0),
        "cache.misses": first.get("cache_misses", 0),
        "cache.lookup_s": med(lambda s: s.get("cache_lookup_s", 0.0)),
        "cache.store_s": med(lambda s: s.get("cache_store_s", 0.0)),
        "cache.bytes": first.get("cache_bytes", 0),
        "cache.warm_pass_s": med(lambda s: s.get("warm_pass_s", 0.0)),
        "parallel.efficiency": med(lambda s: _ratio(
            unit_sum(s), s["jobs"] * s["wall_raw_s"])),
        "parallel.idle_s": med(lambda s: s["jobs"] * s["wall_raw_s"]
                               - unit_sum(s)),
        "parallel.critical_unit_s": med(lambda s: max(s["unit_walls"],
                                                      default=0.0)),
        "supervisor.retries": max(s["supervisor"]["retries"]
                                  for s in samples),
        "supervisor.requeues": max(s["supervisor"]["requeues"]
                                   for s in samples),
        "supervisor.respawns": max(s["supervisor"]["respawns"]
                                   for s in samples),
        "experiments.decompose_s": med(lambda s: s["decompose_s"]),
        "experiments.check_s": spans.get("check", (0, 0.0))[1],
        "experiments.unit_wall_s.p50": med(lambda s: s["unit_wall_p50"]),
        "host.speed": med(lambda s: s["speed"]),
        "trace.overhead_ratio": _ratio(traced["wall_s"],
                                       med(lambda s: s["wall_raw_s"])),
        "trace.unattributed_frac": 1.0 - _ratio(profiled, traced["wall_s"]),
    }
    for b in BUCKETS:
        values[f"self_s.{b}"] = self_s.get(b, 0.0)
    for m in workloads.PROFILED_MODULES:
        values[f"self_s.{m}"] = self_s.get(m, 0.0)
    return values


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def header(seed: int, argv: Sequence[str]) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"schema": "vbench/2", "nproc": nproc(),
            "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg()), "git_sha": sha,
            "seed": seed, "argv": list(argv),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S")}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_metrics(name: str, entry: dict) -> None:
    """One workload's entry of a report, metric by metric with units."""
    print(f"== {name}")
    for metric, d in entry["end_to_end"].items():
        unit = workloads.END_TO_END[metric][0]
        print(f"  {metric:28s} {d['median']:12.4f} {unit:5s} "
              f"(median of {d['n']}; min {d['min']:.4f}; "
              f"IQR {d['iqr']:.4f})")
    for metric, value in entry.get("per_layer", {}).items():
        print(f"  {metric:28s} {value:12.4f} {workloads.PER_LAYER[metric]}")
    for msg in entry["problems"]:
        print(f"  PROBLEM: {msg}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure(names: Sequence[str], seed: int, reps: int, seconds: float,
            trace: bool, argv: Sequence[str]) -> Tuple[dict, dict]:
    """Timed repetitions, then one traced pass per workload.

    Returns ``(report, final_line)``.
    """
    reference = load_reference()
    report = {"header": header(seed, argv), "workloads": {}}
    for name in names:  # warm the page cache; not measured
        run_child(name, seed, ["--setup-only"])
    samples = schedule(names, reps, seconds,
                       lambda n: run_child(n, seed))
    final_metrics: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        rows = samples[name]
        setups = [run_child(name, seed, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES - len(rows))]
        e2e = end_to_end(rows, reference, setups)
        found = problems_of(rows, reference)
        entry = {"experiments": list(workloads.get(name).experiments),
                 "jobs": workloads.get(name).jobs,
                 "end_to_end": e2e, "samples": list(rows),
                 "raw": raw_times(rows, setups)}
        layers = None
        if trace:
            trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            traced = run_child(name, seed, ["--trace-out", trace_path])
            found += problems_of([traced], reference)
            layers = per_layer(rows, traced)
            entry["per_layer"] = layers
            entry["traced"] = {
                "wall_s": traced["wall_s"], "trace_file": trace_path,
                "self_s": traced["self_s"],
                "span_totals": traced["span_totals"],
                "span_self_s": traced["span_self_s"]}
        entry["problems"] = found
        report["workloads"][name] = entry
        correct = correct and not found
        attempted += sum(s["units"] + s.get("warm_units", 0) for s in rows)
        failed += sum(s["failed_units"] + s.get("warm_failed_units", 0)
                      for s in rows)
        prefix = "" if len(names) == 1 else f"{name}."
        if trace:
            for metric, value in layers.items():
                final_metrics[prefix + metric] = {
                    "value": value, "unit": workloads.PER_LAYER[metric]}
        else:
            for metric, d in e2e.items():
                final_metrics[prefix + metric] = {
                    "value": d["median"],
                    "unit": workloads.END_TO_END[metric][0]}
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": final_metrics}
    return report, final


def aa(names: Sequence[str], seed: int, reps: int, seconds: float,
       argv: Sequence[str]) -> dict:
    """Two interleaved sets of AA_RUNS runs each, of the same code.

    A run is what ``--workload NAME --seed N --trace 0`` does; its values
    are medians over its repetitions.  Every run has its own seed: set A
    takes ``seed`` to ``seed + AA_RUNS - 1``, set B the next AA_RUNS
    seeds.  A metric's spread in a set is the IQR of the set's run values
    over their median.  :func:`derive_bounds` turns the spreads into
    bounds.
    """
    started = time.monotonic()
    out = {"header": header(seed, argv), "runs_per_set": AA_RUNS,
           "workloads": {}, "run_lengths_s": {}}
    reference = load_reference()
    values = {(s, n): {m: [] for m in workloads.END_TO_END}
              for s in "AB" for n in names}
    raw = {(s, n): {m: [] for m in RAW_TIMES} for s in "AB" for n in names}
    samples: Dict[str, List[dict]] = {n: [] for n in names}
    for i in range(AA_RUNS):
        for s in ("AB" if i % 2 == 0 else "BA"):
            run_seed = seed + i + (AA_RUNS if s == "B" else 0)
            for name in (names if i % 2 == 0 else names[::-1]):
                run_started = time.monotonic()
                report, final = measure([name], run_seed, reps, seconds,
                                        False, argv)
                took = time.monotonic() - run_started
                out["run_lengths_s"].setdefault(name, []).append(took)
                samples[name] += report["workloads"][name]["samples"]
                for metric, v in final["metrics"].items():
                    values[(s, name)][metric].append(v["value"])
                for metric, v in report["workloads"][name]["raw"].items():
                    raw[(s, name)][metric].append(v)
                print(f"run {i + 1}/{AA_RUNS} set {s} seed {run_seed} "
                      f"{name} ({took:.1f} s): " + ", ".join(
                          f"{m} {v['value']:.4f}"
                          for m, v in final["metrics"].items()), flush=True)
    for name in names:
        rows = {}
        print(f"== {name}")
        for metric in workloads.END_TO_END:
            rows[metric] = _compare(metric, values[("A", name)][metric],
                                    values[("B", name)][metric])
            if metric in RAW_TIMES:
                # The same, as measured: what the normalisation removes.
                rows[metric]["raw"] = _compare(
                    "  raw", raw[("A", name)][metric],
                    raw[("B", name)][metric])
        # Across every repetition of both sets: tables, checks and exact
        # counters.
        found = problems_of(samples[name], reference)
        for msg in found:
            print(f"  PROBLEM: {msg}")
        out["workloads"][name] = {"end_to_end": rows, "problems": found}
    out["elapsed_s"] = time.monotonic() - started
    out["bounds"] = derive_bounds(out["workloads"])
    print("bounds: " + ", ".join(f"{m} {b:.2f}"
                                 for m, b in out["bounds"].items()))
    return out


def _compare(label: str, a_values: List[float], b_values: List[float]
             ) -> dict:
    """One metric's row of an A/A report: both sets, their spreads and the
    difference of their medians; printed as well."""
    a, b = describe(a_values), describe(b_values)
    ma, mb = a["median"], b["median"]
    row = {"a": a, "b": b, "diff_frac": _ratio(mb - ma, ma),
           "iqr_frac_a": _ratio(a["iqr"], ma),
           "iqr_frac_b": _ratio(b["iqr"], mb)}
    print(f"  {label:14s} A {ma:10.4f}  B {mb:10.4f}  "
          f"diff {100 * row['diff_frac']:+6.2f}%  "
          f"IQR A {100 * row['iqr_frac_a']:5.2f}%  "
          f"IQR B {100 * row['iqr_frac_b']:5.2f}%")
    return row


def derive_bounds(rows: Dict[str, dict]) -> Dict[str, float]:
    """End-to-end bounds from an A/A report's per-workload rows.

    A metric's bound is SPREAD_MARGIN times its largest spread or median
    difference on any workload, rounded up to a multiple of BOUND_STEP and
    kept within [BOUND_STEP, MAX_BOUND].  ``setup_s`` gets the largest
    bound of all, so that work moved into set-up shows.
    """
    bounds = {}
    for metric in workloads.END_TO_END:
        worst = max(max(r["iqr_frac_a"], r["iqr_frac_b"], abs(r["diff_frac"]))
                    for r in (w["end_to_end"][metric] for w in rows.values()))
        steps = math.ceil(round(SPREAD_MARGIN * worst / BOUND_STEP, 6))
        bounds[metric] = round(min(MAX_BOUND, max(1, steps) * BOUND_STEP), 2)
    bounds["setup_s"] = max(bounds.values())
    return bounds


def write_reference(names: Sequence[str]) -> int:
    """Regenerate the digests of ``names``' tables in reference.json, from
    one repetition of each workload.  Other tables keep their digests."""
    fresh: Dict[str, str] = {}
    for name in names:
        s = run_child(name, 0)
        if s["check_errors"] or s["failed_units"]:
            print(f"{name}: refusing to write a reference: "
                  f"checks {s['check_errors']}, failed units "
                  f"{s['failed_units']}", file=sys.stderr)
            return 1
        for exp_id, digest in s["digests"].items():
            if fresh.setdefault(exp_id, digest) != digest:
                print(f"{exp_id}: differs between workloads",
                      file=sys.stderr)
                return 1
        if s["snap_forks"]:
            cold = run_child(name, 0, env={"VSCHED_REPRO_SNAPSHOT": "0"})
            if cold["digests"] != s["digests"]:
                print(f"{name}: tables differ with snapshots off",
                      file=sys.stderr)
                return 1
    tables = load_reference() if os.path.isfile(REFERENCE) else {}
    tables.update(fresh)
    write_json(REFERENCE, {"tables": dict(sorted(tables.items()))})
    print(f"wrote {REFERENCE}: {len(fresh)} of {len(tables)} tables "
          f"regenerated")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        description="Benchmark the vSched simulator end to end and per "
                    "layer.")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable; default: all of "
                             + ", ".join(workloads.WORKLOADS) + ")")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes experiment submission order")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding repetitions until this long")
    parser.add_argument("--reps", type=int, default=None,
                        help="minimum repetitions per workload (default: "
                             "3, or 1 with --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run a traced pass and report "
                             "per-layer metrics")
    parser.add_argument("--aa", action="store_true",
                        help="A/A: two interleaved sets of runs of the same "
                             "code; derives the end-to-end bounds")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.seconds else 3

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"vbench: no simulator source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    try:
        for name in names:
            jobs = workloads.get(name).jobs
            if jobs > nproc():
                print(f"vbench: {name} needs {jobs} workers but only "
                      f"{nproc()} CPUs are available", file=sys.stderr)
                return 2
    except KeyError as exc:
        print(f"vbench: {exc.args[0]}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)

    try:
        if args.write_reference:
            return write_reference(names)
        if args.aa:
            report = aa(names, args.seed, args.reps, args.seconds, argv)
            write_json(os.path.join(HERE, "aa_baseline.json"), report)
            return int(any(w["problems"]
                           for w in report["workloads"].values()))
        report, final = measure(names, args.seed, args.reps, args.seconds,
                                bool(args.trace), argv)
    except HarnessError as exc:
        print(f"vbench: {exc}", file=sys.stderr)
        return 1
    for name, entry in report["workloads"].items():
        print_metrics(name, entry)
    suffix = names[0] if len(names) == 1 else "all"
    write_json(os.path.join(
        OUT, f"report-{suffix}-seed{args.seed}-trace{args.trace}.json"),
        report)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
