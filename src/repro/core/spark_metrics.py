"""Clustering metrics as Spark SQL aggregations.

Given a DataFrame with columns ``record_id``, ``pred``, ``truth``,
purity / inverse-purity / FP-measure and the pair-confusion counts
(TP/FP/FN/TN) are computed with groupBy aggregations — no per-pair
materialisation: the pair counts come from cluster-size combinatorics
(Σ C(n,2) over pred, truth, and pred×truth groups). Each of them runs a
single query over one contingency table and collects one row.

The unit tests cross-check these against both the pure-Python
implementations in :mod:`repro.core.metrics` and DuckDB SQL via
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _comb2(col):  # n*(n-1)/2 as a Spark column expression
    return (col * (col - F.lit(1)) / F.lit(2)).cast("long")


def contingency_df(assign: DataFrame) -> DataFrame:
    """(pred, truth) → count contingency table."""
    return assign.groupBy("pred", "truth").agg(
        F.count("*").alias("cnt")
    )


def _table_sums(assign: DataFrame) -> dict[str, int]:
    """Every sum the purities and pair counts need, as one collected row.

    The contingency table is built once; n is Σ cnt over it, and each
    side's marginal (cluster size, largest cell) comes from grouping the
    table by that side. Each of the three aggregations yields one row,
    so the cross joins only put them side by side, and Spark reuses the
    table's shuffle for all three.
    """
    table = contingency_df(assign)
    cnt = F.col("cnt")

    def side(key: str) -> DataFrame:
        return (
            table.groupBy(key)
            .agg(F.sum(cnt).alias("size"), F.max(cnt).alias("best"))
            .agg(F.sum(_comb2(F.col("size"))).alias(f"same_{key}"),
                 F.sum("best").alias(f"best_{key}"))
        )

    row = (
        table.agg(F.sum(cnt).alias("n"),
                  F.sum(_comb2(cnt)).alias("same_both"))
        .crossJoin(side("pred"))
        .crossJoin(side("truth"))
        .collect()[0]
    )
    return {k: int(v or 0) for k, v in row.asDict().items()}


def _purities(assign: DataFrame) -> tuple[float, float]:
    s = _table_sums(assign)
    return s["best_pred"] / s["n"], s["best_truth"] / s["n"]


def purity_spark(assign: DataFrame) -> float:
    """Eq. 4: Σ max-truth-overlap over predicted clusters / |R|."""
    return _purities(assign)[0]


def inverse_purity_spark(assign: DataFrame) -> float:
    """Eq. 5: the same with pred/truth swapped."""
    return _purities(assign)[1]


def fp_measure_spark(assign: DataFrame) -> float:
    """Eq. 7: harmonic mean of the two purities."""
    p, ip = _purities(assign)
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)


def pair_confusion_spark(assign: DataFrame) -> dict[str, int]:
    """TP/FP/FN/TN over record pairs via cluster-size combinatorics."""
    s = _table_sums(assign)
    tp, same_pred, same_truth = s["same_both"], s["same_pred"], s["same_truth"]
    return {
        "tp": tp,
        "fp": same_pred - tp,
        "fn": same_truth - tp,
        "tn": s["n"] * (s["n"] - 1) // 2 - same_pred - same_truth + tp,
    }


def cluster_size_histogram(assign: DataFrame) -> DataFrame:
    """size → #predicted clusters of that size (oracle-checked in tests)."""
    return (
        assign.groupBy("pred")
        .agg(F.count("*").alias("size"))
        .groupBy("size")
        .agg(F.count("*").alias("n_clusters"))
    )
