"""Smoke tests for the table builders (tiny scale; full runs live in
benchmarks/)."""
import importlib.util
from pathlib import Path

import pytest

from repro.experiments import tables

ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_built_tables_are_published_tables(self):
        """Every registered table has an EXPERIMENTS.md section and a
        committed results CSV, and nothing is published unbuilt."""
        path = ROOT / "jobs" / "build_experiments_md.py"
        spec = importlib.util.spec_from_file_location("experiments_md", path)
        md = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(md)
        sections = [name for name, _, _ in md.SECTIONS]
        csvs = {p.stem for p in (ROOT / "benchmarks" / "results").glob("*.csv")}
        assert list(tables.TABLES) == sections
        assert set(sections) == csvs

    def test_table1_entry_ignores_seed(self):
        _, build = tables.TABLES["table1"]
        assert build(0.05, 7).equals(tables.table1(scale=0.05))


class TestTable1:
    def test_columns_and_rows(self):
        df = tables.table1(scale=0.05)
        assert len(df) == 9
        assert {"dataset", "records", "entities", "paper_records"} <= set(
            df.columns
        )

    def test_full_scale_matches_paper_exactly(self):
        df = tables.table1(scale=1.0)
        assert (df["records"] == df["paper_records"]).all()
        assert (df["entities"] == df["paper_entities"]).all()
        assert (df["attrs"] == df["paper_attrs"]).all()


class TestTable2:
    def test_structure(self):
        df = tables.table2(scale=0.05)
        assert len(df) == 6  # 3 datasets x 2 methods
        assert {"acc", "fp", "api_calls", "paper_acc"} <= set(df.columns)

    def test_clustering_beats_pairwise_on_calls(self):
        df = tables.table2(scale=0.05)
        for ds in df["dataset"].unique():
            sub = df[df["dataset"] == ds].set_index("method")
            assert (
                sub.loc["llm_cer", "api_calls"]
                < sub.loc["pairwise", "api_calls"]
            )


class TestTable3:
    def test_levels_decreasing(self):
        df = tables.table3(scale=0.05)
        lv = [c for c in df.columns if c.startswith("level")]
        assert lv
        first = [c for c in lv if not c.startswith("paper")][0]
        assert (df[first] > 0).all()


class TestTable8:
    def test_mdg_rows(self):
        df = tables.table8(scale=0.05)
        assert set(df["mdg"]) == {"w_mdg", "wo_mdg"}
        assert {"nmi", "ari", "paper_nmi"} <= set(df.columns)


class TestTable16:
    def test_ft_ladder(self):
        df = tables.table16(scale=0.05, datasets=("cora",))
        assert "ours" in set(df["method"])
        ditto = df[(df["method"] == "ditto")]
        assert set(ditto["ft"]) == {"0%", "20%", "80%"}

    def test_cost_scales_with_ft(self):
        df = tables.table16(scale=0.05, datasets=("cora",))
        ditto = df[df["method"] == "ditto"].set_index("ft")
        assert ditto.loc["80%", "cost_usd"] > ditto.loc["20%", "cost_usd"]


class TestTable19:
    def test_batching_reduces_calls(self):
        df = tables.table19(scale=0.05)
        for ds in df["dataset"].unique():
            sub = df[df["dataset"] == ds].set_index("batching")
            # batching never costs more calls; on the larger dataset
            # (bigger blocks, real batches) it must strictly save
            assert (
                sub.loc["batch", "api_calls"]
                <= sub.loc["no_batch", "api_calls"]
            )
        cs = df[df["dataset"] == "Citeseer"].set_index("batching")
        assert cs.loc["batch", "api_calls"] < cs.loc["no_batch", "api_calls"]
