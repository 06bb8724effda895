"""Tests for the table builders at scale 0.05 (the full rebuild is
``jobs/build_experiments_md.py``): one shared ``Runs`` rebuilds every
table once, its frames match pinned hashes, a run's result does not
depend on the other runs a ``Runs`` holds, and EXPERIMENTS.md is the
render of the committed CSVs."""
import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.datasets.registry import spec
from repro.experiments import tables
from repro.llm.profiles import GPT_4O_MINI

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each table's ``to_csv(index=False)`` at scale 0.05, seed 0
GOLDEN = {
    "table1": "c7b740f6b42cf0facc0f964ae6f1a8da63389188ca82d7ce9096781e46a1384d",
    "table2": "3aa02c72beb140d945878475e495a74fc2fbb6f11de8b3cb635e1b8eb5a714f1",
    "table3": "e506841b4de9e8e29e810f9739972455bb8ab79c23676bacdce9e5e100d7921c",
    "table4": "77193dfa8eb4b617c4ab79f768cd88c780a9f9bb3c9b7d5fe0aea0197eef4d65",
    "table5": "ebc83aa5bdf4f2655358874e9b0d0a82fafe8a71913f4b9a38fef88f3e70b241",
    "table6": "1fe995e5491d30ae0ea7ed4862be0b0fa9f4b287e3da47d3b3fda58b3708a82a",
    "table7": "bd36a62f2bf5d9885dadccbf9070c483d397355af02fd3a5d7285ee4e488ea9d",
    "table8": "4ecc60067f7a05f46b71689187ddd86002f0b8029d028c08258d627f03494162",
    "table9": "0bcba031063369dddb8ea941a0a210544b61392ee8c73cfae993c30980cb46e7",
    "table10": "68d79909face22451b37697684191d5f01119a36b4a57b7fa454abe608f0794c",
    "table11_12_13": (
        "a10017e8402a06317eb6e1dccb312a4fdccdc547664fc031c9fd70a241aacf5f"
    ),
    "table14": "f2976b3e4f57a01eacd44d87baa7a4db39825f9e936e023c4de72c22e6f2036d",
    "table16": "42ad752eae54f06cb79ade1291041d2d4c1bde53d2a688109038b899b8d93292",
    "table17": "a68f526dc4c9b645dce5f678b21ae11321f8fdf638bd685706832962bfcea96f",
    "table18": "b6a1f01ffc28cbc2a8c51f042934caeb3a3f1b79934c728826a123cef111cd68",
    "table19": "0bd07559975a4ca03491e78c9cfce1a44dd7fc0757f84000840d9b8a6eccac5b",
}


@pytest.fixture(scope="module")
def rebuild():
    """A ``Runs(0.05)`` that has built every table once, and how many
    times that rebuild called ``prepare``, ``run_er`` and
    ``optimal_factors``."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    runs = tables.Runs(0.05)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("prepare", "run_er", "optimal_factors"):
            mp.setattr(tables, name, counted(name, getattr(tables, name)))
        for _, build in tables.TABLES.values():
            build(runs)
    return runs, calls


@pytest.fixture(scope="module")
def runs(rebuild):
    return rebuild[0]


@pytest.fixture(scope="module")
def md():
    """The ``jobs/build_experiments_md.py`` module."""
    path = ROOT / "jobs" / "build_experiments_md.py"
    mod_spec = importlib.util.spec_from_file_location("experiments_md", path)
    module = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(module)
    return module


class TestRegistry:
    def test_built_tables_are_published_tables(self, md):
        """Every registered table has an EXPERIMENTS.md section and a
        committed results CSV, and nothing is published unbuilt."""
        sections = [name for name, _, _ in md.SECTIONS]
        csvs = {p.stem for p in md.RESULTS.glob("*.csv")}
        assert list(tables.TABLES) == sections
        assert set(sections) == csvs

    def test_experiments_md_is_render_of_committed_csvs(self, md):
        """EXPERIMENTS.md is, byte for byte, what ``render()`` makes of
        the committed CSVs and the current commentary."""
        assert (ROOT / "EXPERIMENTS.md").read_text() == md.render()

    def test_publish_writes_one_csv_per_table(self, md, runs, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(md, "RESULTS", tmp_path)
        md.publish(runs)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.csv" for name in tables.TABLES
        )

    def test_table1_entry_ignores_seed(self, runs):
        _, build = tables.TABLES["table1"]
        assert build(tables.Runs(0.05, 7)).equals(tables.table1(runs))


@pytest.mark.parametrize("name", list(tables.TABLES))
def test_golden_table(runs, name):
    """Each table's full-precision CSV at scale 0.05, seed 0 is the
    pinned one."""
    csv = tables.TABLES[name][1](runs).to_csv(index=False)
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN[name]


class TestRuns:
    def test_each_distinct_call_made_once(self, rebuild):
        """A shared rebuild prepares 25 dataset variants, makes 110
        distinct runs and 15 factor sweeps, each once: a run named with
        a default option spelled out (Table 8's ``use_mdg=True``, Table
        10's GPT profile) is the run named without it."""
        _, calls = rebuild
        assert calls == {"prepare": 25, "run_er": 110, "optimal_factors": 15}

    def test_repeated_key_same_object(self, runs):
        cora = runs.spec("cora")
        assert runs.prepared(cora) is runs.prepared(cora)
        assert runs(cora) is runs(cora, "llm_cer", use_mdg=True, seed=0)
        assert runs(cora, use_mdg=False) is not runs(cora)
        assert runs.factors(cora, GPT_4O_MINI) is runs.factors(
            cora, GPT_4O_MINI
        )

    def test_result_independent_of_order(self):
        """Two ``Runs`` asked for the same runs in opposite orders give
        equal assignments and ledger columns."""
        cora, cite = spec("cora", 0.05), spec("citeseer", 0.05)
        requests = [
            (cora, "llm_cer", {}),
            (cite, "llm_cer", {"batch_size": 4}),
            (cora, "llm_cer", {"use_mdg": False}),
            (cite, "crowder", {}),
            (cora, "llm_cer", {"merge_strategy": "random", "seed": 1}),
        ]
        a, b = tables.Runs(0.05), tables.Runs(0.05)
        got_a = [a(sp, method, **kw) for sp, method, kw in requests]
        got_b = [b(sp, method, **kw) for sp, method, kw in requests[::-1]]
        assert got_a == got_b[::-1]
        assert all(r.assignment and r.n_calls > 0 for r in got_a)


class TestTable1:
    def test_columns_and_rows(self, runs):
        df = tables.table1(runs)
        assert len(df) == 9
        assert {"dataset", "records", "entities", "paper_records"} <= set(
            df.columns
        )

    def test_full_scale_matches_paper_exactly(self):
        df = tables.table1(tables.Runs(1.0))
        assert (df["records"] == df["paper_records"]).all()
        assert (df["entities"] == df["paper_entities"]).all()
        assert (df["attrs"] == df["paper_attrs"]).all()


class TestTable2:
    def test_structure(self, runs):
        df = tables.table2(runs)
        assert len(df) == 6  # 3 datasets x 2 methods
        assert {"acc", "fp", "api_calls", "paper_acc"} <= set(df.columns)

    def test_clustering_beats_pairwise_on_calls(self, runs):
        df = tables.table2(runs)
        for ds in df["dataset"].unique():
            sub = df[df["dataset"] == ds].set_index("method")
            assert (
                sub.loc["llm_cer", "api_calls"]
                < sub.loc["pairwise", "api_calls"]
            )


class TestTable3:
    def test_levels_decreasing(self, runs):
        df = tables.table3(runs)
        lv = [c for c in df.columns if c.startswith("level")]
        assert lv
        first = [c for c in lv if not c.startswith("paper")][0]
        assert (df[first] > 0).all()


class TestTable8:
    def test_mdg_rows(self, runs):
        df = tables.table8(runs)
        assert set(df["mdg"]) == {"w_mdg", "wo_mdg"}
        assert {"nmi", "ari", "paper_nmi"} <= set(df.columns)


class TestTable16:
    def test_ft_ladder(self, runs):
        df = tables.table16(runs)
        assert "ours" in set(df["method"])
        ditto = df[(df["method"] == "ditto")]
        assert set(ditto["ft"]) == {"0%", "20%", "80%"}

    def test_cost_scales_with_ft(self, runs):
        df = tables.table16(runs)
        cora = df[df["dataset"] == "Cora"]
        ditto = cora[cora["method"] == "ditto"].set_index("ft")
        assert ditto.loc["80%", "cost_usd"] > ditto.loc["20%", "cost_usd"]


class TestTable19:
    def test_batching_reduces_calls(self, runs):
        df = tables.table19(runs)
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
