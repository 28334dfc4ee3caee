#!/usr/bin/env python3
"""A/B determinism harness: tickless elision × snapshot forking.

Runs each experiment once per combination of two axes in one process and
asserts every result table is **byte-identical** to the reference
combination (elision on, forking on):

* ``VSCHED_REPRO_TICKLESS`` on/off — elision is a pure event-count
  optimisation: skipped guest ticks are replayed arithmetically and
  suppressed host timers fire logically at the same instants.
* ``VSCHED_REPRO_SNAPSHOT`` on/off (``--snapshot-modes``) — warm-start
  prefix forking (INTERNALS §15) must render the same bytes as cold
  rebuilds of every prefix through the same builder code.

Any table divergence on any axis is a correctness bug, not noise.

Also reports the event-reduction ratio per experiment (off/on fired
events) and the elided count, which is where the speedup claim in
BENCH_*.json comes from.

Usage::

    PYTHONPATH=src python tools/abdiff.py --fast
    PYTHONPATH=src python tools/abdiff.py --fast --experiments fig2,fig4
    PYTHONPATH=src python tools/abdiff.py --fast --snapshot-modes
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ is None or __package__ == "":
    # Allow running without PYTHONPATH=src from the repo root.
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.experiments.cli import ALL_ORDER
from repro.experiments.common import run_experiment
from repro.sim.engine import Engine


def table_bytes(table) -> str:
    """Canonical byte-comparable form of a result table.

    ``repr`` keeps full float precision — two runs that differ in any
    bit of any cell produce different blobs even when the rendered
    (rounded) table would look the same.
    """
    return repr(table.columns) + "\n" + "\n".join(
        repr(row) for row in table.rows)


def run_once(exp_id: str, fast: bool, tickless: bool,
             snapshot: bool = True):
    os.environ["VSCHED_REPRO_TICKLESS"] = "1" if tickless else "0"
    os.environ["VSCHED_REPRO_SNAPSHOT"] = "1" if snapshot else "0"
    fired0 = Engine.total_events_fired
    elided0 = Engine.total_events_elided
    table = run_experiment(exp_id, fast=fast)
    return (table_bytes(table),
            Engine.total_events_fired - fired0,
            Engine.total_events_elided - elided0)


def _diff_blobs(label: str, ref: str, got: str) -> None:
    for a, b in zip(ref.splitlines(), got.splitlines()):
        if a != b:
            print(f"  ref          : {a}")
            print(f"  {label:13s}: {b}")


def _label(combo, snapshot_modes: bool) -> str:
    tickless, snap = combo
    label = "on" if tickless else "off"
    if snapshot_modes:
        label += f"/{'fork' if snap else 'cold'}"
    return label


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert experiments are byte-identical across timer "
                    "elision on/off (and snapshot forking on/off), and "
                    "report the event savings.")
    parser.add_argument("--fast", action="store_true",
                        help="shrunken workloads (recommended)")
    parser.add_argument("--experiments", default=None, metavar="IDS",
                        help="comma-separated experiment ids "
                             "(default: the full catalogue)")
    parser.add_argument("--snapshot-modes", action="store_true",
                        help="add the warm-start axis: run every combo "
                             "with prefix forking on AND off (off rebuilds "
                             "every prefix cold)")
    args = parser.parse_args(argv)

    ids = (args.experiments.split(",") if args.experiments else ALL_ORDER)
    ids = [i.strip() for i in ids if i.strip()]
    snap_modes = (True, False) if args.snapshot_modes else (True,)
    combos = [(t, s) for t in (True, False) for s in snap_modes]

    saved_tickless = os.environ.get("VSCHED_REPRO_TICKLESS")
    saved_snapshot = os.environ.get("VSCHED_REPRO_SNAPSHOT")
    diverged = []
    totals = {c: 0 for c in combos}
    try:
        for exp_id in ids:
            results = {}
            for combo in combos:
                tickless, snap = combo
                results[combo] = run_once(exp_id, args.fast, tickless, snap)
                totals[combo] += results[combo][1]
            ref_combo = combos[0]
            ref_blob, ref_on_fired, _ = results[ref_combo]
            off_fired = results[(False, snap_modes[0])][1]
            ratio = (off_fired / ref_on_fired if ref_on_fired
                     else float("inf"))
            for combo in combos:
                label = _label(combo, args.snapshot_modes)
                blob, fired, elided = results[combo]
                if combo == ref_combo:
                    status = "reference"
                elif blob == ref_blob:
                    status = "identical"
                else:
                    status = "DIVERGED(table)"
                print(f"{exp_id:8s} {label:14s} fired={fired:>12,d} "
                      f"elided={elided:>11,d}  [{status}]", flush=True)
                if blob != ref_blob:
                    diverged.append(f"{exp_id}:{label}")
                    _diff_blobs(label, ref_blob, blob)
            print(f"{exp_id:8s} elision savings x{ratio:5.2f} "
                  f"(off/on fired)", flush=True)
    finally:
        for var, saved in (("VSCHED_REPRO_TICKLESS", saved_tickless),
                           ("VSCHED_REPRO_SNAPSHOT", saved_snapshot)):
            if saved is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = saved

    for combo in combos:
        label = _label(combo, args.snapshot_modes)
        print(f"total    {label:14s} fired={totals[combo]:>12,d}")
    if diverged:
        print(f"DIVERGED: {diverged}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
