"""Integration tests for the distributed Spark pipeline."""
import numpy as np
import pytest

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
    def result(self, spark_world):
        _, _, df, _ = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        return resolve_blocks_distributed(blocked, seed=0).cache()

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
        """Same records through ``run_er``: the same partition and ledger."""
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


def _canonical(assign: dict[int, int]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for rid, lab in assign.items():
        groups.setdefault(lab, []).append(rid)
    return sorted(sorted(g) for g in groups.values())


def _assert_driver_result(spark_world, monkeypatch, result, seed):
    from repro.core.records import build_records
    from repro.experiments import harness
    from repro.llm.simulated import SimulatedLLM

    sp, pdf, _, _ = spark_world
    llms = []

    def capture(*args, **kwargs):
        llms.append(SimulatedLLM(*args, **kwargs))
        return llms[-1]

    monkeypatch.setattr(harness, "SimulatedLLM", capture)
    r = harness.run_er(
        sp, "llm_cer", seed=seed, prepared=build_records(pdf, sp)
    )
    led = ledger_totals(result)
    want = llms[-1].ledger
    assert _canonical(assignment_from_result(result)) == _canonical(
        r.assignment
    )
    assert (led["n_calls"], led["in_tokens"], led["out_tokens"]) == (
        want.n_calls, want.in_tokens, want.out_tokens
    )
    assert led["n_calls"] > 0
    assert led["sim_time_s"] == pytest.approx(want.sim_time_s, rel=1e-9)


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
