"""Integration tests for the distributed Spark pipeline."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.metrics import all_metrics
from repro.core.spark_pipeline import (
    assignment_from_result, ledger_totals, lsh_assign_blocks, records_df,
    resolve_blocks_distributed,
)
from repro.datasets.generator import generate
from repro.datasets.registry import spec as get_spec


@pytest.fixture(scope="module")
def spark_world(spark):
    sp = get_spec("cora", 0.08)
    pdf = generate(sp)
    df = records_df(spark, pdf, sp)
    truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
    return sp, pdf, df, truth


class TestRecordsDf:
    def test_schema(self, spark_world):
        _, _, df, _ = spark_world
        assert {"record_id", "entity_id", "text", "vec"} <= set(df.columns)

    def test_row_count(self, spark_world):
        _, pdf, df, _ = spark_world
        assert df.count() == len(pdf)

    def test_vectors_match_local_embedder(self, spark_world):
        """Every row's vector is exactly ``build_records``' for its rid."""
        from repro.core.records import build_records

        sp, pdf, df, _ = spark_world
        recs, _ = build_records(pdf, sp)
        want = {r.rid: r.vec for r in recs}
        rows = df.select("record_id", "vec").collect()
        assert len(rows) == len(want)
        for row in rows:
            got = np.asarray(row["vec"], dtype=np.float32)
            assert np.array_equal(got, want[int(row["record_id"])])


class TestLshAssignBlocks:
    def test_columns(self, spark_world):
        """The collected rows with their block; the vectors stay behind."""
        _, _, df, _ = spark_world
        assert lsh_assign_blocks(df).columns == [
            "record_id", "entity_id", "text", "block_id"
        ]

    def test_every_record_blocked(self, spark_world):
        _, pdf, df, _ = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        assert blocked.count() == len(pdf)
        assert blocked.select("record_id").distinct().count() == len(pdf)

    def test_block_ids_are_lsh_blocks_positions(self, spark_world):
        from repro.blocking.lsh import lsh_blocks
        from repro.core.records import build_records

        sp, pdf, df, _ = spark_world
        recs, _ = build_records(pdf, sp)
        blocks = lsh_blocks(recs)
        want = {r.rid: bi for bi, blk in enumerate(blocks) for r in blk}
        rows = lsh_assign_blocks(df).select("record_id", "block_id").collect()
        assert {int(r["record_id"]): int(r["block_id"]) for r in rows} == want

    def test_blocking_records_block_as_full_records(self, cora_small):
        """The token-free records ``lsh_assign_blocks`` blocks give the
        blocks of ``make_records``' full records."""
        from repro.blocking.lsh import lsh_blocks
        from repro.core.records import make_records
        from repro.core.spark_pipeline import _blocking_records

        _, _, recs, _ = cora_small
        rids, vecs = [r.rid for r in recs], [r.vec for r in recs]
        light = _blocking_records(rids, vecs)
        assert not any(r.tokens for r in light)
        full = make_records(rids, [r.text for r in recs], vecs)
        for seed in (0, 1):
            got, want = (
                [[r.rid for r in b] for b in lsh_blocks(rs, seed=seed)]
                for rs in (light, full)
            )
            assert got == want

    def test_blocks_group_duplicates(self, spark_world):
        _, _, df, truth = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        rows = blocked.select("record_id", "block_id").collect()
        bid = {int(r["record_id"]): int(r["block_id"]) for r in rows}
        import itertools

        by_ent = {}
        for rid, e in truth.items():
            by_ent.setdefault(e, []).append(rid)
        hit = pos = 0
        for ids in by_ent.values():
            for a, b in itertools.combinations(ids, 2):
                pos += 1
                hit += bid[a] == bid[b]
        assert hit / max(1, pos) > 0.5


class TestDistributedResolution:
    @pytest.fixture(scope="class")
    def blocked(self, spark_world):
        _, _, df, _ = spark_world
        return lsh_assign_blocks(df, seed=0)

    @pytest.fixture(scope="class")
    def result(self, blocked):
        return resolve_blocks_distributed(blocked, seed=0).cache()

    def test_one_row_per_block(self, blocked, result):
        assert result.count() == blocked.select("block_id").distinct().count()

    def test_record_ids_hold_each_blocked_record_once(self, blocked, result):
        rows = result.select("record_ids", "labels").collect()
        rids = [rid for r in rows for rid in r["record_ids"]]
        assert sorted(rids) == sorted(
            int(r["record_id"]) for r in blocked.select("record_id").collect()
        )
        assert all(len(r["record_ids"]) == len(r["labels"]) for r in rows)

    def test_ledger_totals_exact_under_repartitioning(self, result):
        """Integer sums: the order of the blocks is moot."""
        one = ledger_totals(result.repartition(1))
        five = ledger_totals(result.repartition(5))
        assert one == five

    def test_assignment_covers_all(self, spark_world, result):
        _, pdf, _, _ = spark_world
        assign = assignment_from_result(result)
        assert set(assign) == set(pdf.record_id.astype(int))

    def test_quality(self, spark_world, result):
        _, _, _, truth = spark_world
        assign = assignment_from_result(result)
        m = all_metrics(assign, truth)
        assert m["acc"] > 0.6 and m["fp"] > 0.7

    def test_ledger_totals(self, result):
        led = ledger_totals(result)
        assert led["n_calls"] > 0
        assert led["in_tokens"] > led["out_tokens"] > 0
        assert led["sim_time_s"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_driver_path_exactly(self, spark_world, monkeypatch, seed):
        """Same records through ``run_er``: the same assignment, metrics
        and ledger, compared exactly."""
        _, _, df, _ = spark_world
        result = resolve_blocks_distributed(lsh_assign_blocks(df), seed=seed)
        _assert_driver_result(spark_world, monkeypatch, result, seed)

    def test_cached_inputs_give_same_result(self, spark_world, monkeypatch):
        """Caching the inputs changes the physical plan, not the output."""
        _, _, df, _ = spark_world
        df = df.cache()
        df.count()
        blocked = lsh_assign_blocks(df).cache()
        blocked.count()
        try:
            result = resolve_blocks_distributed(blocked, seed=0)
            _assert_driver_result(spark_world, monkeypatch, result, 0)
        finally:
            blocked.unpersist()
            df.unpersist()


def _final_plan(frame) -> str:
    """The executed physical plan; under AQE, its final plan only."""
    plan = frame._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.executedPlan()
    return plan.toString()


class TestResolvePlan:
    """One task per core, whatever the caller does with the result."""

    def test_one_partition_per_core_cached_or_not(self, spark, spark_world):
        _, _, df, _ = spark_world
        n = spark.sparkContext.defaultParallelism
        result = resolve_blocks_distributed(lsh_assign_blocks(df))
        assert result.rdd.getNumPartitions() == n
        cached = resolve_blocks_distributed(lsh_assign_blocks(df)).cache()
        try:
            cached.count()
            assert cached.rdd.getNumPartitions() == n
        finally:
            cached.unpersist()

    def test_one_hash_exchange_and_no_join(self, spark_world):
        import re

        _, _, df, _ = spark_world
        result = resolve_blocks_distributed(lsh_assign_blocks(df))
        result.collect()
        plan = _final_plan(result)
        exchanges = re.findall(r"^[\s+\-:]*Exchange (.*)$", plan, re.M)
        assert len(exchanges) == 1, plan
        assert re.match(r"hashpartitioning\(block_id#\d+L?, ", exchanges[0])
        for join in ("SortMergeJoin", "BroadcastHashJoin", "ShuffledHashJoin"):
            assert join not in plan, plan

    def test_blocks_resolved_in_more_than_one_task(self, spark, spark_world):
        """Uncached, AQE would coalesce groupBy's own small shuffle into
        one partition: one Python worker resolving every block."""
        _, _, df, _ = spark_world
        n = spark.sparkContext.defaultParallelism
        blocked = lsh_assign_blocks(df)
        n_blocks = blocked.select("block_id").distinct().count()
        if n < 2 or n_blocks < n:
            pytest.skip(f"{n_blocks} blocks on defaultParallelism={n}")
        rows = (
            resolve_blocks_distributed(blocked)
            .select(F.spark_partition_id().alias("pid"))
            .collect()
        )
        assert len({r["pid"] for r in rows}) > 1


def _assert_driver_result(spark_world, monkeypatch, result, seed):
    from repro.core.records import build_records
    from repro.experiments import harness
    from repro.llm.simulated import SimulatedLLM

    sp, pdf, _, truth = spark_world
    llms = []

    def capture(*args, **kwargs):
        llms.append(SimulatedLLM(*args, **kwargs))
        return llms[-1]

    monkeypatch.setattr(harness, "SimulatedLLM", capture)
    r = harness.run_er(
        sp, "llm_cer", seed=seed, prepared=build_records(pdf, sp)
    )
    assign = assignment_from_result(result)
    assert list(assign.items()) == list(r.assignment.items())
    assert all_metrics(assign, truth) == all_metrics(r.assignment, truth)
    want = llms[-1].ledger.snapshot()
    led = ledger_totals(result)
    assert led == {k: want[k] for k in led}
    assert list(led) == ["n_calls", "in_tokens", "out_tokens", "sim_time_s"]
    assert led["n_calls"] > 0


class TestDegenerateInputs:
    def _run(self, spark, pdf, sp):
        df = records_df(spark, pdf, sp)
        result = resolve_blocks_distributed(lsh_assign_blocks(df))
        return assignment_from_result(result), ledger_totals(result)

    def test_empty_dataset(self, spark, spark_world):
        sp, pdf, _, _ = spark_world
        assign, led = self._run(spark, pdf.iloc[:0], sp)
        assert assign == {}
        assert led == {
            "n_calls": 0, "in_tokens": 0, "out_tokens": 0, "sim_time_s": 0.0
        }

    def test_single_record(self, spark, spark_world):
        sp, pdf, _, _ = spark_world
        assign, led = self._run(spark, pdf.iloc[:1], sp)
        assert assign == {int(pdf.record_id.iloc[0]): 0}
        assert led["n_calls"] == 0


class TestRunPipelineJob:
    """``jobs/run_pipeline.py`` end to end, on the test session."""

    @pytest.fixture()
    def job(self, spark, monkeypatch):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "jobs"
        spec = importlib.util.spec_from_file_location(
            "run_pipeline", path / "run_pipeline.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        class _KeepOpen:  # the job stops its session; the tests share it
            def __getattr__(self, name):
                return getattr(spark, name)

            def stop(self):
                pass

        monkeypatch.setattr(mod, "spark_session", _KeepOpen)
        monkeypatch.setattr(
            "sys.argv",
            ["run_pipeline.py", "--dataset", "cora", "--scale", "0.05"],
        )
        return mod

    def test_prints_quality_and_ledger(self, job, capsys):
        job.main()
        out = capsys.readouterr().out
        assert "quality: acc=" in out and "fp_spark=" in out
        assert "ledger: calls=" in out

    def test_fp_cross_check_mismatch_exits_non_zero(self, job, monkeypatch):
        from repro.core import spark_metrics

        monkeypatch.setattr(spark_metrics, "fp_measure_spark", lambda df: -1.0)
        with pytest.raises(SystemExit) as exc:
            job.main()
        assert exc.value.code not in (0, None)
        assert "fp_spark=-1.0" in str(exc.value.code)
