"""Shared plumbing for the spark-submit job entrypoints.

``make_parser`` gives every job its ``--scale``/``--seed``/``--out``
options; ``spark_session`` builds the local SparkSession that
``run_pipeline.py`` runs on; ``emit`` prints the paper-vs-measured
frame ``run_table.py`` builds and optionally writes it to CSV.
"""
from __future__ import annotations

import argparse
import os
import sys

import pandas as pd


def make_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (1.0 = paper-size datasets)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", type=str, default="",
        help="optional CSV path for the table",
    )
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


def emit(df: pd.DataFrame, title: str, out: str = "") -> None:
    pd.set_option("display.width", 200)
    pd.set_option("display.max_columns", 40)
    print(f"\n== {title} ==")
    print(df.round(3).to_string(index=False))
    if out:
        df.to_csv(out, index=False)
        print(f"written: {out}", file=sys.stderr)
