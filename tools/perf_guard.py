#!/usr/bin/env python3
"""Perf guard: fail CI when the event budget regresses.

Runs a small pinned set of fast experiments (in-process, through
``run_units``) and compares their engine counters — ``events_fired``,
``pushes`` and ``cancels`` — against the checked-in baseline
(``tools/perf_baseline.json``).  The simulator is
deterministic — the counts are exact and platform-independent — so a
count above baseline means a real regression in the engine or the
simulated kernels, not noise.  Pushes and cancels are budgeted beside
fired events because arm/cancel churn (say, a completion event that is
re-armed at an unchanged instant instead of reused) leaves the fired
count flat.  The tolerance absorbs small intentional drifts; bigger
deliberate changes should refresh the baseline with ``--write`` in the
same commit.

Four prefix-migrated experiments (``SNAP_PINNED``) are additionally
measured with warm-start forking on *and* off (INTERNALS §15).  Both
modes carry their own budgets — the fork budget guards the prefix
sharing itself (a regression here means units stopped forking and went
back to rebuilding), and ``fork < cold`` is asserted outright since the
whole point of forking is to not re-fire shared-prefix events.

Usage::

    PYTHONPATH=src python tools/perf_guard.py          # check (CI)
    PYTHONPATH=src python tools/perf_guard.py --write  # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments.parallel import run_units

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "perf_baseline.json")
#: Allowed growth of any budgeted counter over baseline before the guard
#: fails.
TOLERANCE_PCT = 10.0
#: Budgeted counters (baseline fields).
COUNTERS = ("events_fired", "pushes", "cancels")
#: Pinned fast experiments: one host-churn-bound, one spin-bound.
PINNED = ("fig2", "fig4")
#: Prefix-migrated experiments measured under snapshot fork AND cold mode.
#: fig14 shares 2 warm-up prefixes across 20 units, fig21 and fig20
#: 2 across 12 each, and fig13 2 across 6, so cold mode re-fires each
#: prefix 10x (fig14), 6x (fig21, fig20) or 3x (fig13) and the fork
#: budgets sit below the cold ones.
SNAP_PINNED = ("fig14", "fig21", "fig20", "fig13")
SNAP_MODES = ("fork", "cold")


def measure(exp_id: str, snapshot: bool = True) -> dict:
    # In-process; a pooled run counts the same (INTERNALS §10).  The
    # process store keeps what earlier measurements built, and fig19,
    # whose fast hpvm worlds fig20 forks, is not run here, so fig20's
    # fork budget includes building them.
    res, = run_units([exp_id], fast=True, check=False, jobs=1,
                     snapshot=snapshot)
    return {"events_fired": res.events_fired,
            "pushes": res.counters["pushes"],
            "cancels": res.counters["cancels"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Guard the deterministic event budget of pinned fast "
                    "experiments against the checked-in baseline.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the baseline from a fresh run")
    args = parser.parse_args(argv)

    measured = {exp_id: measure(exp_id) for exp_id in PINNED}
    snap_measured = {exp_id: {mode: measure(exp_id, mode == "fork")
                              for mode in SNAP_MODES}
                     for exp_id in SNAP_PINNED}

    # Structural snapshot invariant, independent of any baseline (so it
    # applies to --write too): forking must fire strictly fewer events
    # than cold prefix rebuilds, or the units silently stopped sharing
    # their warm-up.
    failures = []
    for exp_id, per_mode in snap_measured.items():
        fork = per_mode["fork"]["events_fired"]
        cold = per_mode["cold"]["events_fired"]
        if fork >= cold:
            print(f"{exp_id:8s} fork fired={fork:,d} >= cold "
                  f"fired={cold:,d} (prefix sharing is not engaging)")
            failures.append(f"{exp_id}:fork>=cold")
    if failures:
        print(f"budget invariants violated: {failures}")
        return 1

    if args.write:
        payload = {"tolerance_pct": TOLERANCE_PCT, "fast": True,
                   "experiments": measured,
                   "snapshot_experiments": snap_measured}
        with open(BASELINE_PATH, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    tolerance = baseline.get("tolerance_pct", TOLERANCE_PCT)

    def judge(exp_id: str, label: str, row: dict, base_row: dict) -> None:
        for field in COUNTERS:
            value, base = row[field], base_row[field]
            delta = 100.0 * (value - base) / base
            verdict = "ok"
            if delta > tolerance:
                verdict = f"REGRESSED (> +{tolerance:.0f}%)"
                failures.append(f"{exp_id}:{label}:{field}" if label
                                else f"{exp_id}:{field}")
            elif delta < -tolerance:
                verdict = "improved (consider --write)"
            print(f"{exp_id:8s} {label:5s} {field:>12s}={value:>12,d} "
                  f"baseline={base:>12,d} {delta:+6.2f}%  [{verdict}]")

    for exp_id, row in measured.items():
        judge(exp_id, "", row, baseline["experiments"][exp_id])
    for exp_id, per_mode in snap_measured.items():
        for mode in SNAP_MODES:
            judge(exp_id, mode, per_mode[mode],
                  baseline["snapshot_experiments"][exp_id][mode])
    if failures:
        print(f"event budget regressed: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
