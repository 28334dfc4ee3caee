"""Self-tests of the benchmark harness.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q vbench/test_harness.py
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import (BUCKETS, Tracer, chrome_trace, classify,  # noqa: E402
                    fold_self_time, span_self_times)

GUEST = ("/w/src/repro/guest/balance.py", 10, "load_balance")
ENGINE = ("/w/src/repro/sim/engine.py", 5, "run")
COPY = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
LEN = ("~", 0, "<built-in method builtins.len>")
DUMP = ("~", 0, "<method 'dump' of '_pickle.Pickler' objects>")
ID = ("~", 0, "<built-in method builtins.id>")
EXEC = ("~", 0, "<built-in method builtins.exec>")
LOOP_A = ("~", 0, "<built-in method a>")
LOOP_B = ("~", 0, "<built-in method b>")


def _row(tt, callers=None):
    """One pstats entry: (cc, nc, tt, ct, callers)."""
    return (1, 1, tt, tt, callers or {})


def _call(tt):
    return (1, 1, tt, tt)


def test_classify_names_layer_and_module():
    assert classify(GUEST[0]) == ("guest", "balance")
    assert classify("/w/src/repro/experiments/fig14_bvs.py") == \
        ("experiments", "fig14_bvs")
    assert classify(COPY[0]) == ("outside.copy", None)
    assert classify("/usr/lib/python3.11/pickle.py") == \
        ("outside.pickle", None)
    assert classify("/usr/lib/python3.11/heapq.py") == \
        ("outside.other", None)
    assert classify("~") is None


def test_fold_charges_builtins_to_their_callers():
    stats = {
        GUEST: _row(2.0),
        ENGINE: _row(1.0),
        COPY: _row(0.5),
        # len: 0.2 s called from the guest, 0.1 s from the engine.
        LEN: _row(0.3, {GUEST: _call(0.2), ENGINE: _call(0.1)}),
        # The C pickler is outside.pickle whoever calls it.
        DUMP: _row(0.4, {ENGINE: _call(0.4)}),
        # A builtin called from copy.py is copying.
        ID: _row(0.1, {COPY: _call(0.1)}),
        # No caller at all: outside.other.
        EXEC: _row(0.05),
        # Builtins calling each other in a cycle, entered from the guest.
        LOOP_A: _row(0.2, {GUEST: _call(0.1), LOOP_B: _call(0.1)}),
        LOOP_B: _row(0.1, {LOOP_A: _call(0.1)}),
    }
    folded = fold_self_time(stats)
    assert folded["guest"] == pytest.approx(2.0 + 0.2 + 0.2 + 0.1)
    assert folded["guest.balance"] == pytest.approx(folded["guest"])
    assert folded["sim"] == pytest.approx(1.1)
    assert folded["sim.engine"] == pytest.approx(1.1)
    assert folded["outside.copy"] == pytest.approx(0.6)
    assert folded["outside.pickle"] == pytest.approx(0.4)
    assert folded["outside.other"] == pytest.approx(0.05)
    total = sum(entry[2] for entry in stats.values())
    assert sum(folded.get(b, 0.0) for b in BUCKETS) == pytest.approx(total)


def test_span_self_time_is_duration_minus_child_coverage():
    spans = [("outer", 0.0, 10.0, -1),
             ("child", 1.0, 4.0, 0),
             ("child", 3.0, 6.0, 0),   # overlaps its sibling
             ("leaf", 2.0, 3.0, 1)]
    self_s = span_self_times(spans)
    assert self_s["outer"] == pytest.approx(10.0 - 5.0)
    assert self_s["child"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert self_s["leaf"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_exports_chrome_trace():
    ticks = itertools.count()
    tracer = Tracer("w/seed0", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert list(tracer.wrap_iter("step", iter([outer()]))) == ["xx"]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names[:3] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert span_self_times(tracer.spans)["outer"] == pytest.approx(3.0)
    trace = chrome_trace(tracer.spans, tracer.workload)
    assert {e["ph"] for e in trace["traceEvents"]} == {"X"}
    assert trace["traceEvents"][1]["args"]["parent"] == 0


def test_normalise_removes_probe_time_and_scales_by_mean_speed():
    # Probes of 1 ms and 2 ms: the mean speed is 0.75 of the reference.
    samples = [speed.REFERENCE_PROBE_S, 2 * speed.REFERENCE_PROBE_S]
    assert speed.factor(samples) == pytest.approx(0.75)
    assert speed.normalise(10.0, 1.0, samples) == pytest.approx(9.0 * 0.75)
    # Without probes (the traced pass) a time stays as measured.
    assert speed.normalise(10.0, 0.0, []) == 10.0


def _burn(cpu_s):
    end = time.process_time() + cpu_s
    while time.process_time() < end:
        pass


def test_sampler_probes_this_process_and_its_forked_children(tmp_path):
    sampler = speed.Sampler(str(tmp_path))
    sampler.start()
    try:
        _burn(0.2)
        pid = os.fork()
        if pid == 0:
            _burn(0.2)
            os._exit(0)
        os.waitpid(pid, 0)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent_s == pytest.approx(sum(sampler.samples))
    assert len(sampler.spilled()) >= 3


def test_spilled_skips_an_unterminated_last_line(tmp_path):
    # What a worker killed in the middle of a write leaves behind.
    (tmp_path / "7").write_text("0.001\n0.002\n0.00")
    assert speed.Sampler(str(tmp_path)).spilled() == [0.001, 0.002]


def test_metric_and_workload_names_match_the_name_rule():
    names = (list(workloads.END_TO_END) + list(workloads.PER_LAYER)
             + list(workloads.WORKLOADS))
    for name in names:
        assert workloads.NAME_RE.fullmatch(name), name
        assert len(name) <= 64 and name[0].isalnum(), name
    assert len(names) == len(set(names))
    assert not workloads.NAME_RE.fullmatch("self_s/guest")


def test_benchmark_json_declares_exactly_what_the_harness_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128


def test_benchmark_json_bounds_are_derived_from_the_aa_baseline():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "aa_baseline.json")) as fh:
        baseline = json.load(fh)
    derived = run.derive_bounds(baseline["workloads"])
    assert derived == baseline["bounds"]
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == derived
    assert derived["setup_s"] == max(derived.values())


def test_derive_bounds_takes_three_times_the_worst_spread():
    def row(iqr, diff=0.0):
        return {"iqr_frac_a": iqr, "iqr_frac_b": iqr / 2, "diff_frac": diff}

    def workload(**spreads):
        rows = {m: row(0.0) for m in workloads.END_TO_END}
        rows.update(spreads)
        return {"end_to_end": rows}

    bounds = run.derive_bounds({
        "w1": workload(wall_s=row(0.02), peak_rss_mb=row(0.001, -0.02)),
        "w2": workload(wall_s=row(0.04), cpu_s=row(0.2)),
    })
    assert bounds["wall_s"] == 0.15          # 3 x 4%, rounded up
    assert bounds["peak_rss_mb"] == 0.10     # 3 x |-2%|
    assert bounds["cpu_s"] == 0.25           # capped
    assert bounds["output_ok"] == 0.05       # floor
    assert bounds["setup_s"] == 0.25         # the largest


def test_write_reference_keeps_other_workloads_tables(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"tables": {"fig2": "old2",
                                           "fig14": "old14"}}))
    calls = []

    def fake_child(name, seed, args=(), env=None):
        calls.append((name, env))
        return {"check_errors": {}, "failed_units": 0, "snap_forks": 18,
                "digests": {"fig14": "new14", "fig10b": "new10b"}}

    monkeypatch.setattr(run, "REFERENCE", str(path))
    monkeypatch.setattr(run, "run_child", fake_child)
    assert run.write_reference(["fork-sweep"]) == 0
    assert json.loads(path.read_text())["tables"] == {
        "fig2": "old2", "fig14": "new14", "fig10b": "new10b"}
    # The forking workload is cross-checked with snapshots off.
    assert calls == [("fork-sweep", None),
                     ("fork-sweep", {"VSCHED_REPRO_SNAPSHOT": "0"})]


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "vbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_smoke_workload_emits_every_end_to_end_metric():
    proc, lines = _run(["--workload", "smoke", "--reps", "1", "--trace",
                        "0"])
    assert proc.returncode == 0, proc.stderr
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 2
    assert set(final["metrics"]) == set(workloads.END_TO_END)
    assert final["metrics"]["output_ok"]["value"] == 1
    assert all(m["value"] > 0 for m in final["metrics"].values())


def test_smoke_traced_pass_emits_every_per_layer_metric():
    proc, lines = _run(["--workload", "smoke", "--reps", "1", "--trace",
                        "1"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == set(workloads.PER_LAYER)
    # The layers' self time accounts for the traced wall time.
    assert abs(metrics["trace.unattributed_frac"]["value"]) < 0.05
    assert metrics["sim.events_fired"]["value"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "vbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run(["--workload", "smoke", "--seed", "1", "--seconds",
                        "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
