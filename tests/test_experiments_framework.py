"""Tests for the experiment framework and CLI plumbing (no heavy runs)."""

import pytest

from repro.experiments.cli import main
from repro.experiments.common import (
    EXPERIMENTS,
    Table,
    check_experiment,
    load_experiment,
)
from repro.experiments.parallel import run_units


class TestTable:
    def test_add_and_column(self):
        t = Table("x", "title", ["a", "b"])
        t.add("r1", 1.5)
        t.add("r2", 2.5)
        assert t.column("b") == [1.5, 2.5]
        assert t.cell("r2", "b") == 2.5

    def test_row_width_enforced(self):
        t = Table("x", "t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add("only-one")

    def test_missing_row_key(self):
        t = Table("x", "t", ["a", "b"])
        t.add("r", 1)
        with pytest.raises(KeyError):
            t.cell("nope", "b")

    def test_render_contains_everything(self):
        t = Table("fig0", "demo", ["name", "value"],
                  paper_expectation="should be big")
        t.add("alpha", 12.345)
        t.notes.append("a note")
        out = t.render()
        assert "fig0" in out and "demo" in out
        assert "alpha" in out and "12.35" in out
        assert "note: a note" in out
        assert "paper: should be big" in out


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert list(EXPERIMENTS) == [
            "fig2", "fig3", "fig4", "fig10a", "fig10b", "tab2", "fig11",
            "fig12", "fig13", "fig14", "tab3", "fig15", "tab4", "fig16",
            "fig17", "fig18", "fig19", "fig20", "fig21", "figA1"]

    def test_every_module_has_exactly_the_unit_protocol(self):
        for exp_id in EXPERIMENTS:
            mod = load_experiment(exp_id)
            for name in ("scenarios", "assemble", "check"):
                assert callable(getattr(mod, name, None)), (exp_id, name)
            for name in ("run", f"run_{exp_id}", f"check_{exp_id}",
                         f"scenarios_{exp_id}", f"assemble_{exp_id}"):
                assert not hasattr(mod, name), (exp_id, name)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            load_experiment("fig99")

    def test_cli_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out and "tab4" in out


class TestSmallestExperimentEndToEnd:
    def test_fig3_runs_and_checks(self):
        res, = run_units(["fig3"], fast=True, jobs=1)
        assert res.ok and res.n_units == 2
        check_experiment("fig3", res.table)
        assert res.table.cell("migration", "vcpu_utilization_pct") > 90.0
