"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.common import (
    EXPERIMENTS,
    Table,
    check_experiment,
    load_experiment,
)

__all__ = ["Table", "EXPERIMENTS", "check_experiment", "load_experiment"]
