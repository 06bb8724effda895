"""FP-measure as one Spark SQL query: the distributed cross-check.

Given a DataFrame with columns ``record_id``, ``pred``, ``truth``,
:func:`fp_measure_spark` computes the FP-measure (Eq. 4–7) with groupBy
aggregations over one contingency table and collects one row — no
per-pair materialisation. ``jobs/run_pipeline.py`` checks it against
the driver's :func:`repro.core.metrics.fp_measure`.

The unit tests cross-check it against the pure-Python implementation
and the contingency table against DuckDB SQL via
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def contingency_df(assign: DataFrame) -> DataFrame:
    """(pred, truth) → count contingency table."""
    return assign.groupBy("pred", "truth").agg(
        F.count("*").alias("cnt")
    )


def fp_measure_spark(assign: DataFrame) -> float:
    """Eq. 7: harmonic mean of purity (Eq. 4) and inverse purity (Eq. 5).

    The contingency table is built once. n is Σ cnt over it; each
    purity's numerator is Σ of the largest cell per cluster, from
    grouping the table by that side. Each aggregation yields one row,
    so the cross joins only put them side by side, and Spark reuses the
    table's shuffle for all three.
    """
    table = contingency_df(assign)
    cnt = F.col("cnt")

    def best(key: str) -> DataFrame:
        return (
            table.groupBy(key).agg(F.max(cnt).alias("best"))
            .agg(F.sum("best").alias(f"best_{key}"))
        )

    row = (
        table.agg(F.sum(cnt).alias("n"))
        .crossJoin(best("pred"))
        .crossJoin(best("truth"))
        .collect()[0]
    )
    p, ip = row["best_pred"] / row["n"], row["best_truth"] / row["n"]
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)
