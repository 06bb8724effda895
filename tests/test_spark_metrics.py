"""Spark-SQL metrics vs pure-Python metrics vs DuckDB oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.metrics import (
    fp_measure, inverse_purity, pair_confusion, purity,
)
from repro.core.spark_metrics import (
    cluster_size_histogram, contingency_df, fp_measure_spark,
    inverse_purity_spark, pair_confusion_spark, purity_spark,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def assign_df(spark):
    """A messy 60-record clustering with both splits and merges."""
    g = np.random.default_rng(7)
    rows = [
        (int(i), int(g.integers(0, 9)), int(g.integers(0, 7)))
        for i in range(60)
    ]
    df = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
    pred = {r: p for r, p, _ in rows}
    truth = {r: t for r, _, t in rows}
    return df, pred, truth


class TestAgainstPython:
    def test_purity(self, assign_df):
        df, pred, truth = assign_df
        assert purity_spark(df) == pytest.approx(purity(pred, truth))

    def test_inverse_purity(self, assign_df):
        df, pred, truth = assign_df
        assert inverse_purity_spark(df) == pytest.approx(
            inverse_purity(pred, truth)
        )

    def test_fp_measure(self, assign_df):
        df, pred, truth = assign_df
        assert fp_measure_spark(df) == pytest.approx(fp_measure(pred, truth))

    def test_pair_confusion(self, assign_df):
        df, pred, truth = assign_df
        assert pair_confusion_spark(df) == pair_confusion(pred, truth)


class TestDegenerate:
    def test_single_record(self, spark):
        df = spark.createDataFrame([(0, 3, 4)], ["record_id", "pred", "truth"])
        assert pair_confusion_spark(df) == {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        assert fp_measure_spark(df) == 1.0

    def test_one_cluster_against_singletons(self, spark):
        rows = [(i, 0, i) for i in range(5)]
        df = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
        pred = {r: p for r, p, _ in rows}
        truth = {r: t for r, _, t in rows}
        assert pair_confusion_spark(df) == pair_confusion(pred, truth)
        assert purity_spark(df) == purity(pred, truth) == 1 / 5
        assert inverse_purity_spark(df) == 1.0


class TestAgainstDuckDB:
    def test_contingency_oracle(self, assign_df):
        df, _, _ = assign_df
        out = contingency_df(df).withColumnRenamed("cnt", "cnt")
        assert_equivalent(
            out,
            "SELECT pred, truth, COUNT(*) AS cnt FROM assign "
            "GROUP BY pred, truth",
            assign=df,
        )

    def test_histogram_oracle(self, assign_df):
        df, _, _ = assign_df
        out = cluster_size_histogram(df)
        assert_equivalent(
            out,
            "SELECT size, COUNT(*) AS n_clusters FROM ("
            "  SELECT pred, COUNT(*) AS size FROM assign GROUP BY pred"
            ") GROUP BY size",
            assign=df,
        )

    def test_pair_tp_oracle(self, assign_df, spark):
        """TP pair count via Spark combinatorics == DuckDB join count."""
        df, pred, truth = assign_df
        tp_spark = pair_confusion_spark(df)["tp"]
        import duckdb

        con = duckdb.connect()
        try:
            con.register("assign", df.toPandas())
            tp_sql = con.execute(
                "SELECT COUNT(*) FROM assign a JOIN assign b "
                "ON a.record_id < b.record_id "
                "AND a.pred = b.pred AND a.truth = b.truth"
            ).fetchone()[0]
        finally:
            con.close()
        assert tp_spark == tp_sql


class TestOracle:
    def test_groupby_aggregation(self, assign_df):
        df, _, _ = assign_df
        out = df.groupBy("pred").agg(
            F.count("*").alias("cnt"),
            F.round(F.avg("truth"), 2).alias("mean_truth"),
        )
        assert_equivalent(
            out,
            "SELECT pred, COUNT(*) AS cnt, "
            "ROUND(AVG(truth), 2) AS mean_truth "
            "FROM assign GROUP BY pred",
            assign=df,
        )

    def test_catches_wrong_result(self, assign_df):
        df, _, _ = assign_df
        wrong = df.groupBy("pred").agg((F.count("*") + 1).alias("cnt"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT pred, COUNT(*) AS cnt FROM assign GROUP BY pred",
                assign=df,
            )


class TestEndToEndMetricPath:
    def test_pipeline_result_metrics_agree(self, spark, cora_small):
        """Run LLM-CER on a small dataset, compare Spark FP vs Python FP."""
        from repro.experiments.harness import run_er

        sp, _, recs, truth = cora_small
        r = run_er(sp, "llm_cer", seed=0, prepared=(recs, truth))
        rows = [
            (int(rid), int(lab), int(truth[rid]))
            for rid, lab in r.assignment.items()
        ]
        df = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
        assert fp_measure_spark(df) == pytest.approx(r.fp, abs=1e-9)
