"""Experiment harness, key-factor sweeps, and per-table builders."""
from .harness import METHODS, RunResult, prepare, run_er
from .sweeps import optimal_factors, sweep_config

__all__ = [
    "METHODS", "RunResult", "optimal_factors", "prepare", "run_er",
    "sweep_config",
]
