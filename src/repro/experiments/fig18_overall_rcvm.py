"""Figure 18 — overall improvement on the resource-constrained VM (rcvm).

All catalogued workloads run under CFS, enhanced CFS (vProbers + rwc) and
full vSched on rcvm (§5.6).  The paper reports, on average vs CFS:
enhanced CFS 1.4× lower latency / +59% throughput; vSched 1.6× lower
latency / +69% throughput.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import Table
from repro.experiments.overall import (
    check_overall,
    geometric_means,
    overall_assemble,
    overall_scenarios,
)
from repro.experiments.units import WorkUnit, execute_serial

TITLE = "rcvm: normalized performance vs CFS (higher is better)"


def scenarios(fast: bool) -> List[WorkUnit]:
    return overall_scenarios("fig18", vm="rcvm", threads=12, fast=fast)


def assemble(fast: bool, results: List[float]) -> Table:
    table = overall_assemble("fig18", TITLE, fast, results)
    means = geometric_means(table)
    table.notes.append(
        "geomean throughput: enhanced %.0f%%, vSched %.0f%% (paper: +59%%/+69%%)"
        % (means["throughput"]["enhanced"], means["throughput"]["vsched"]))
    table.notes.append(
        "geomean latency perf: enhanced %.0f%%, vSched %.0f%% (paper: 1.4x/1.6x)"
        % (means["latency"]["enhanced"], means["latency"]["vsched"]))
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    check_overall(table, min_enhanced=115.0, min_vsched=120.0,
                  latency_min_vsched=115.0)
