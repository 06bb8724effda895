"""FP-measure as one Spark SQL query: the distributed cross-check.

Given a DataFrame with columns ``record_id``, ``pred``, ``truth``,
:func:`fp_measure_spark` computes the FP-measure (Eq. 4–7) in one
query and collects one row, with no per-pair materialisation: the
contingency table (one hash exchange on ``pred, truth``), one
grouping-sets aggregation of it by ``pred`` and by ``truth`` (one hash
exchange on the cluster and its side), and one global sum per side (a
single-partition exchange). There is no join.
``jobs/run_pipeline.py`` checks it against the driver's
:func:`repro.core.metrics.fp_measure`.

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

    One aggregation over the contingency table: grouping sets
    ``(pred)`` and ``(truth)`` give each cluster of either side its
    largest cell and its size, and one global aggregate sums them per
    side. n is Σ size over the pred side; each purity's numerator is
    Σ best over its side. The sums are the integers the driver's
    :class:`repro.core.metrics.Contingency` sums, so the FP is the same
    float. An empty frame raises ``ValueError("empty clustering")``, as
    the driver's ``contingency`` does.
    """
    cnt = F.col("cnt")
    per_cluster = (
        contingency_df(assign)
        .groupingSets([["pred"], ["truth"]], "pred", "truth")
        .agg(
            F.grouping("pred").alias("side"),  # 0: a pred cluster
            F.max(cnt).alias("best"),
            F.sum(cnt).alias("size"),
        )
    )

    def on(side: int, col: str):
        return F.sum(F.when(F.col("side") == side, F.col(col)))

    row = per_cluster.agg(
        on(0, "size").alias("n"),
        on(0, "best").alias("best_pred"),
        on(1, "best").alias("best_truth"),
    ).collect()[0]
    if row["n"] is None:
        raise ValueError("empty clustering")
    p, ip = row["best_pred"] / row["n"], row["best_truth"] / row["n"]
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)
