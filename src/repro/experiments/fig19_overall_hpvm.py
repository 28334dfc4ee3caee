"""Figure 19 — overall improvement on the high-performance VM (hpvm).

Same protocol as Figure 18 on the 32-vCPU, 4-socket hpvm.  The paper
reports enhanced CFS 1.5× lower latency / +13% throughput and vSched 2.3×
lower latency / +18% throughput vs CFS; gains are smaller than rcvm on the
throughput side (no stragglers or stacking to hide) and larger on the
latency side (bvs can exploit the dedicated vCPU group).
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

TITLE = "hpvm: normalized performance vs CFS (higher is better)"


def scenarios(fast: bool) -> List[WorkUnit]:
    return overall_scenarios("fig19", vm="hpvm", threads=32, fast=fast)


def assemble(fast: bool, results: List[float]) -> Table:
    table = overall_assemble("fig19", TITLE, fast, results)
    means = geometric_means(table)
    table.notes.append(
        "geomean throughput: enhanced %.0f%%, vSched %.0f%% (paper: +13%%/+18%%)"
        % (means["throughput"]["enhanced"], means["throughput"]["vsched"]))
    table.notes.append(
        "geomean latency perf: enhanced %.0f%%, vSched %.0f%% (paper: 1.5x/2.3x)"
        % (means["latency"]["enhanced"], means["latency"]["vsched"]))
    return table


def run(fast: bool = False) -> Table:
    return assemble(fast, execute_serial(scenarios(fast), fast))


def check(table: Table) -> None:
    check_overall(table, min_enhanced=102.0, min_vsched=105.0,
                  latency_min_vsched=115.0)
