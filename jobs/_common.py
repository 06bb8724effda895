"""Shared plumbing for the job entrypoints.

``make_parser`` gives every job its ``--scale``/``--seed`` options;
``spark_session`` builds the local SparkSession that
``run_pipeline.py`` runs on; ``write_table`` is the one CSV writer of a
table frame, used by ``build_experiments_md.py`` and
``run_table.py --out``; ``emit`` prints the paper-vs-measured frame
``run_table.py`` builds.
"""
from __future__ import annotations

import argparse
import os

import pandas as pd


def make_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (1.0 = paper-size datasets)",
    )
    p.add_argument("--seed", type=int, default=0)
    return p


def spark_session():
    """A SparkSession configured like the test fixture."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def write_table(df: pd.DataFrame, path: str | os.PathLike) -> None:
    """Write a table frame as CSV, every float rounded to 4 places."""
    df.round(4).to_csv(path, index=False)


def emit(df: pd.DataFrame, title: str) -> None:
    pd.set_option("display.width", 200)
    pd.set_option("display.max_columns", 40)
    print(f"\n== {title} ==")
    print(df.round(3).to_string(index=False))
