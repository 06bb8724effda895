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


class TestAgainstPythonFuzz:
    @pytest.fixture(scope="class")
    def clusterings(self):
        """Seeded random clusterings plus the edge shapes: one cluster,
        all singletons, and pred equal to truth."""
        g = np.random.default_rng(20)
        out = []
        for _ in range(17):
            n = int(g.integers(1, 80))
            truth = g.integers(0, int(g.integers(1, n + 1)), n)
            pred = g.integers(0, int(g.integers(1, n + 1)), n)
            out.append((pred, truth))
        n = 40
        truth = g.integers(0, 6, n)
        out += [
            (np.zeros(n, int), truth),
            (np.arange(n), truth),
            (truth.copy(), truth),
        ]
        return [
            ({i: int(p) for i, p in enumerate(pred)},
             {i: int(t) for i, t in enumerate(truth)})
            for pred, truth in out
        ]

    def test_fp_measure_exact(self, spark, clusterings):
        for pred, truth in clusterings:
            rows = [(r, pred[r], truth[r]) for r in pred]
            df = spark.createDataFrame(
                rows, "record_id long, pred long, truth long"
            )
            assert fp_measure_spark(df) == fp_measure(pred, truth), rows


class TestPlan:
    def test_no_cross_join(self, spark, assign_df, monkeypatch):
        """One aggregation: the final executed plan (under AQE) joins
        nothing."""
        df, _, _ = assign_df
        frame_cls = type(df)
        plans = []
        collect = frame_cls.collect

        def recording_collect(self):
            rows = collect(self)
            plan = self._jdf.queryExecution().executedPlan()
            if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
                plan = plan.executedPlan()
            plans.append(plan.toString())
            return rows

        monkeypatch.setattr(frame_cls, "collect", recording_collect)
        fp_measure_spark(df)
        assert len(plans) == 1
        assert "HashAggregate" in plans[0], plans[0]
        for join in ("CartesianProduct", "BroadcastNestedLoopJoin", "Join"):
            assert join not in plans[0], plans[0]


class TestDegenerate:
    def test_empty_frame_raises_as_driver(self, spark):
        """The driver's ``contingency`` raises on an empty clustering."""
        df = spark.createDataFrame([], "record_id long, pred long, truth long")
        with pytest.raises(ValueError, match="empty clustering"):
            fp_measure({}, {})
        with pytest.raises(ValueError, match="empty clustering"):
            fp_measure_spark(df)

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
