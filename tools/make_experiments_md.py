#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs every experiment through ``run_units`` (fast mode by default; --full
for the paper-scale campaign; ``--jobs N`` workers, default one),
records the rendered tables and whether the qualitative shape assertions
held, and writes the comparison document.  The output depends on the
simulation only, so two runs write identical bytes at any worker count.

Usage:  python tools/make_experiments_md.py [--full] [--jobs N]
                                            [--only fig2,fig3]
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.cli import ALL_ORDER
from repro.experiments.parallel import run_units

#: What the paper reports, per artifact, for the side-by-side summary.
PAPER_CLAIMS = {
    "fig2": "p95 tail latency grows up to 20x as vCPU latency goes "
            "2 ms -> 16 ms, with and without best-effort tasks",
    "fig3": "the default scheduler leaves the thread stalled ~50% of the "
            "time; circular self-migration doubles vCPU utilization",
    "fig4": "non-work-conserving placement wins: up to 43% (straggler), "
            "up to 30% (stacking), up to 6.7x (priority inversion)",
    "fig10a": "EMA capacity tracks real capacity changes while smoothing "
              "out short spikes",
    "fig10b": "distinct latency classes: ~6 ns SMT, ~48 ns intra-socket, "
              "~112 ns cross-socket, infinity for the stacked pair",
    "tab2": "probing is sub-second: rcvm 547/388 ms (full/validate), hpvm "
            "665/160 ms; validation cheaper, rcvm's dominated by stacking "
            "confirmation",
    "fig11": "asymmetric: fast-vCPU residency 44% -> 81% and +32% "
             "throughput with vcap; symmetric: 74% fewer migrations, +4%",
    "fig12": "underloaded: 11-12 -> 15-16 active cores with vtop; mixed: "
             "Matmul +18%, Nginx +5%, Fio unchanged",
    "fig13": "vtop: +26% throughput and +14.5% IPC on average, up to 99% "
             "fewer IPIs",
    "fig14": "bvs cuts p95 tail latency 42% on average across Tailbench, "
             "with and without best-effort tasks",
    "tab3": "bvs cuts Masstree queue time 44-70%; dropping the vCPU state "
            "check forfeits part of the gain under best-effort tasks",
    "fig15": "ivh: up to 82% higher throughput with few threads, ~17% "
             "average even at 16 threads",
    "tab4": "activity-aware migration beats the activity-unaware variant "
            "at every thread count (e.g. 348 s vs 408 s at 1 thread)",
    "fig16": "vSched matches CFS when dedicated, sustains throughput when "
             "overcommitted/asymmetric, and recovers quickly when "
             "constrained",
    "fig17": "vSched: +15% (intermittent), +24% (consistent), ~equal "
             "(transient); co-located VMs degrade only 1-2%",
    "fig18": "rcvm: enhanced CFS 1.4x lower latency / +59% throughput; "
             "vSched 1.6x / +69% vs CFS",
    "fig19": "hpvm: enhanced CFS 1.5x lower latency / +13% throughput; "
             "vSched 2.3x / +18% vs CFS",
    "fig20": "throughput workloads: +5.5% cycles for +38% CPS under "
             "vSched; latency workloads: +50.5% cycles from an 8.4x lower "
             "CPS baseline",
    "fig21": "0.7% average degradation on a dedicated VM; latency "
             "workloads can even improve (probing keeps cores warm)",
    "figA1": "not a paper figure: this repository's robustness extension. "
             "Its check asserts that at the top intensity the hardened "
             "probers' combined capacity+activity error is strictly below "
             "the naive probers' under every antagonist class, that "
             "hardening costs at most 1.0 error point with no antagonist, "
             "and that the hardened path rejected samples under "
             "probe_poisoner",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the vSched paper (EuroSys '25), regenerated on
this repository's simulated substrate, plus one robustness extension of
this repository's own (figA1).  Absolute numbers are **not** expected to
match the paper (its testbed is an HPE DL580 running patched Linux; ours
is a discrete-event simulator) — the comparison below is about *shape*:
who wins, by roughly what factor, and where the crossovers are.  Each
experiment carries programmatic shape assertions (`check_*` in
`src/repro/experiments/`), run by
`python -m repro.experiments run all --fast`, which CI runs on every push.

Regenerate this file:

```bash
python tools/make_experiments_md.py          # fast mode
python tools/make_experiments_md.py --full   # paper-scale campaign
```

Known, deliberate deviations of this substrate (details in DESIGN.md):

* vtop probing times land at roughly 30-600 ms against the paper's
  160-665 ms, and the relations hold: validation beats full probing,
  stacking confirmation dominates rcvm's validation, and hpvm's full
  probe is the most expensive.
* rwc's straggler trigger is recalibrated from "10x below average" to "3x
  below median": host wake-up credit lets even a heavily hogged vCPU burst
  briefly, compressing the measured capacity range.
* In the multi-tenant experiment (fig17) vSched's nginx gains fall short
  of the paper's and its neighbour impact exceeds it.  The fast table
  shows nginx +5.87% (intermittent) and +11.15% (consistent) against the
  paper's +15% and +24%.  Against the paper's 1-2% neighbour impact,
  the consistent-phase neighbours degrade by 5.21% (vmC, swaptions) and
  11.88% (vmD, raytrace); in the intermittent phase facesim (vmA)
  degrades by 25.75% and ferret (vmB) gains 8.54%.  On this substrate
  the cycles vSched reclaims for its fair share directly stretch the
  neighbours' barrier phases.  No full-mode fig17 number is recorded.
* Mode = {mode}.

---

"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1: in-process)")
    parser.add_argument("--only", default=None)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    fast = not args.full
    ids = args.only.split(",") if args.only else ALL_ORDER

    sections = []
    for res in run_units(ids, fast=fast, check=True, jobs=args.jobs):
        verdict = ("shape checks PASSED" if res.check_error is None
                   else f"shape checks FAILED: {res.check_error}")
        sections.append(
            f"## {res.exp_id}\n\n"
            f"**Paper:** {PAPER_CLAIMS[res.exp_id]}\n\n"
            f"**Measured:**\n\n"
            f"```\n{res.rendered}\n```\n\n"
            f"**Verdict:** {verdict}\n\n---\n"
        )
        print(f"{res.exp_id}: {verdict}", flush=True)

    mode = "full (paper-scale)" if args.full else "fast (shrunken workloads)"
    with open(args.out, "w") as fh:
        fh.write(HEADER.format(mode=mode))
        fh.write("\n".join(sections))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
