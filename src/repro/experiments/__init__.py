"""Experiment harness and per-figure registry."""

from .registry import (EXPERIMENTS, Experiment, FIGURE_MACHINES,
                       all_experiments, get_experiment)
from .runner import (BASELINE, Comparison, ComboStats, STANDARD_COMBOS,
                     compare, make_governor, make_policy, run_experiment)

__all__ = [
    "EXPERIMENTS", "Experiment", "FIGURE_MACHINES",
    "all_experiments", "get_experiment",
    "BASELINE", "STANDARD_COMBOS", "Comparison", "ComboStats",
    "compare", "make_governor", "make_policy", "run_experiment",
]
