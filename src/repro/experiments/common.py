"""Experiment framework: result tables, registry, rendering.

Every paper artifact (table or figure) has one module exposing
``scenarios(fast)``, ``assemble(fast, results)`` and ``check(table)``
(:mod:`repro.experiments.units`), and
:func:`repro.experiments.parallel.run_units` runs them.  ``fast`` mode
shrinks workload sizes and durations so the whole suite fits in a test
run; the qualitative shape assertions in ``check`` hold in both modes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Table:
    """One regenerated paper artifact."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: What the paper reports for this artifact, for EXPERIMENTS.md.
    paper_expectation: str = ""

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != {len(self.columns)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> List:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def cell(self, row_key, column: str):
        """Value at (first row whose first cell == row_key, column)."""
        cidx = self.columns.index(column)
        for r in self.rows:
            if r[0] == row_key:
                return r[cidx]
        raise KeyError(row_key)

    # ------------------------------------------------------------------
    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.2f}"
            return str(v)

        str_rows = [[fmt(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.exp_id}: {self.title} =="]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        return "\n".join(lines)


#: experiment id -> module path, in paper order (``run all``'s order)
EXPERIMENTS: Dict[str, str] = {
    "fig2": "repro.experiments.fig02_vcpu_latency",
    "fig3": "repro.experiments.fig03_stalled_task",
    "fig4": "repro.experiments.fig04_work_conservation",
    "fig10a": "repro.experiments.fig10a_vcap",
    "fig10b": "repro.experiments.fig10b_vtop",
    "tab2": "repro.experiments.tab02_vtop_time",
    "fig11": "repro.experiments.fig11_vcap_effect",
    "fig12": "repro.experiments.fig12_smt_aware",
    "fig13": "repro.experiments.fig13_llc_aware",
    "fig14": "repro.experiments.fig14_bvs",
    "tab3": "repro.experiments.tab03_masstree_breakdown",
    "fig15": "repro.experiments.fig15_ivh",
    "tab4": "repro.experiments.tab04_ivh_activity",
    "fig16": "repro.experiments.fig16_adaptability",
    "fig17": "repro.experiments.fig17_multitenant",
    "fig18": "repro.experiments.fig18_overall_rcvm",
    "fig19": "repro.experiments.fig19_overall_hpvm",
    "fig20": "repro.experiments.fig20_cost",
    "fig21": "repro.experiments.fig21_overhead",
    "figA1": "repro.experiments.figA1_antagonists",
}


def load_experiment(exp_id: str):
    """Return the module implementing ``exp_id``."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}")
    return importlib.import_module(EXPERIMENTS[exp_id])


def check_experiment(exp_id: str, table: Table) -> None:
    load_experiment(exp_id).check(table)
