"""Benchmark: rebuild every paper table in ``repro.experiments.tables.TABLES``.

Each case runs one table builder end-to-end (workload generation,
blocking, simulated-LLM resolution, baselines, metric computation) at
``REPRO_BENCH_SCALE`` (default 1.0 = paper-size datasets) and seed
``REPRO_BENCH_SEED`` (default 0), prints the paper-vs-measured frame,
and writes ``benchmarks/results/<table>.csv`` for EXPERIMENTS.md.

All cases share one ``Runs``, so a run that several tables show is
computed once, by the first case that needs it: each case's time
counts only the runs its table adds to those of the cases before it.

Run with ``pytest benchmarks/ --benchmark-only``; one table alone with
``pytest "benchmarks/bench_tables.py::test_table[table4]" --benchmark-only``.
"""
import os
from pathlib import Path

import pandas as pd
import pytest

from repro.experiments.tables import TABLES, Runs

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
RESULTS = Path(__file__).parent / "results"
RUNS = Runs(SCALE, SEED)


@pytest.mark.parametrize("name", list(TABLES))
def test_table(benchmark, name):
    """Benchmark one table builder (single round) and publish its output."""
    _, build = TABLES[name]
    df = benchmark.pedantic(build, args=(RUNS,), rounds=1, iterations=1)
    RESULTS.mkdir(exist_ok=True)
    df.round(4).to_csv(RESULTS / f"{name}.csv", index=False)
    pd.set_option("display.width", 220)
    pd.set_option("display.max_columns", 40)
    print(f"\n== {name} (scale={SCALE}) ==")
    print(df.round(3).to_string(index=False))
