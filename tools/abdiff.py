#!/usr/bin/env python3
"""A/B determinism harness: snapshot forking on vs off.

Runs each experiment twice in one process, with warm-start prefix forking
on (``run_units(..., snapshot=True)``, the reference) and off (every
prefix rebuilt cold through the same builder code, INTERNALS §15), and
asserts the two result tables are **byte-identical**.  Any divergence is
a correctness bug, not noise.  Both runs go through ``run_units``, and
the comparison reads the full-precision ``CampaignResult.table``.

Also reports the events fired per mode, so the share of work that forking
saves is visible next to the identity verdict.  Experiments run in the
order given, in one process, so an experiment that forks another's
prefixes (tab3 forks fig14's, fig20 fig19's) reuses them when listed
after it.

Usage::

    PYTHONPATH=src python tools/abdiff.py --fast
    # the experiments that declare prefixes (CI's snapshot-identity job):
    PYTHONPATH=src python tools/abdiff.py --fast \
        --experiments fig13,fig14,tab3,fig15,tab4,fig18,fig19,fig20,fig21
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
from repro.experiments.parallel import run_units

#: Snapshot modes in run order; the first is the reference.
MODES = (("fork", True), ("cold", False))


def table_bytes(table) -> str:
    """Canonical byte-comparable form of a result table.

    ``repr`` keeps full float precision — two runs that differ in any
    bit of any cell produce different blobs even when the rendered
    (rounded) table would look the same.
    """
    return repr(table.columns) + "\n" + "\n".join(
        repr(row) for row in table.rows)


def run_once(exp_id: str, fast: bool, snapshot: bool):
    # In-process, so both modes use this process's snapshot store.
    res, = run_units([exp_id], fast=fast, check=False, jobs=1,
                     snapshot=snapshot)
    return table_bytes(res.table), res.events_fired


def _diff_blobs(label: str, ref: str, got: str) -> None:
    for a, b in zip(ref.splitlines(), got.splitlines()):
        if a != b:
            print(f"  ref          : {a}")
            print(f"  {label:13s}: {b}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert experiments are byte-identical with snapshot "
                    "forking on and off.")
    parser.add_argument("--fast", action="store_true",
                        help="shrunken workloads (recommended)")
    parser.add_argument("--experiments", default=None, metavar="IDS",
                        help="comma-separated experiment ids "
                             "(default: the full catalogue)")
    args = parser.parse_args(argv)

    ids = (args.experiments.split(",") if args.experiments else ALL_ORDER)
    ids = [i.strip() for i in ids if i.strip()]

    diverged = []
    totals = {label: 0 for label, _ in MODES}
    for exp_id in ids:
        ref_blob = None
        for label, snapshot in MODES:
            blob, fired = run_once(exp_id, args.fast, snapshot)
            totals[label] += fired
            if ref_blob is None:
                ref_blob = blob
                status = "reference"
            elif blob == ref_blob:
                status = "identical"
            else:
                status = "DIVERGED(table)"
                diverged.append(f"{exp_id}:{label}")
            print(f"{exp_id:8s} {label:5s} fired={fired:>12,d}  "
                  f"[{status}]", flush=True)
            if blob != ref_blob:
                _diff_blobs(label, ref_blob, blob)

    for label, _ in MODES:
        print(f"total    {label:5s} fired={totals[label]:>12,d}")
    if diverged:
        print(f"DIVERGED: {diverged}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
