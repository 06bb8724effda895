"""Spark-SQL FP-measure vs pure-Python metrics vs DuckDB oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.metrics import fp_measure
from repro.core.spark_metrics import contingency_df, fp_measure_spark
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
    def test_fp_measure(self, assign_df):
        df, pred, truth = assign_df
        assert fp_measure_spark(df) == pytest.approx(fp_measure(pred, truth))


class TestDegenerate:
    def test_single_record(self, spark):
        df = spark.createDataFrame([(0, 3, 4)], ["record_id", "pred", "truth"])
        assert fp_measure_spark(df) == 1.0

    def test_one_cluster_against_singletons(self, spark):
        rows = [(i, 0, i) for i in range(5)]
        df = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
        pred = {r: p for r, p, _ in rows}
        truth = {r: t for r, _, t in rows}
        # purity 1/5, inverse purity 1: FP = 2 / (5 + 1)
        assert fp_measure_spark(df) == fp_measure(pred, truth)
        assert fp_measure_spark(df) == pytest.approx(1 / 3)


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
