"""Tests for the experiment harness over small datasets."""
import hashlib
import json

import pytest

from repro.core.metrics import pair_confusion
from repro.datasets.registry import SPECS, spec
from repro.experiments import harness
from repro.experiments.harness import METHODS, RunResult, prepare, run_er


@pytest.fixture(scope="module")
def prepared_cora(cora_small):
    sp, _, recs, truth = cora_small
    return sp, (recs, truth)


class TestRunEr:
    @pytest.mark.parametrize(
        "method", ["llm_cer", "pairwise", "bq", "booster", "crowder"]
    )
    def test_llm_methods(self, method, prepared_cora):
        sp, prepared = prepared_cora
        r = run_er(sp, method, seed=0, prepared=prepared)
        assert isinstance(r, RunResult)
        assert 0.0 <= r.acc <= 1.0 and 0.0 <= r.fp <= 1.0
        assert r.n_calls > 0
        assert r.cost_usd >= 0 and r.tokens_m > 0
        assert set(r.assignment) == set(prepared[1])

    @pytest.mark.parametrize("method", ["ditto", "deepmatcher"])
    def test_plm_methods_no_llm_calls(self, method, prepared_cora):
        sp, prepared = prepared_cora
        r = run_er(sp, method, ft_frac=0.2, seed=0, prepared=prepared)
        assert r.n_calls == 0
        # GPU fine-tuning dominates even at 10% dataset scale
        assert r.cost_usd > 0.1

    def test_unknown_method(self, prepared_cora):
        sp, prepared = prepared_cora
        with pytest.raises(ValueError):
            run_er(sp, "nope", prepared=prepared)

    def test_level_counts_only_for_llm_cer(self, prepared_cora):
        sp, prepared = prepared_cora
        cer = run_er(sp, "llm_cer", seed=0, prepared=prepared)
        pw = run_er(sp, "pairwise", seed=0, prepared=prepared)
        assert cer.level_counts and not pw.level_counts

    def test_clustering_cheaper_than_pairwise(self, prepared_cora):
        """The Table 2 headline shape at test scale."""
        sp, prepared = prepared_cora
        cer = run_er(sp, "llm_cer", seed=0, prepared=prepared)
        pw = run_er(sp, "pairwise", seed=0, prepared=prepared)
        assert cer.n_calls < pw.n_calls
        assert cer.tokens_m < pw.tokens_m
        assert cer.time_min < pw.time_min

    def test_bq_most_token_hungry(self, prepared_cora):
        sp, prepared = prepared_cora
        cer = run_er(sp, "llm_cer", seed=0, prepared=prepared)
        bq = run_er(sp, "bq", seed=0, prepared=prepared)
        assert bq.tokens_m > cer.tokens_m
        assert bq.cost_usd > cer.cost_usd

    def test_mdg_ablation_changes_calls(self, prepared_cora):
        sp, prepared = prepared_cora
        with_mdg = run_er(sp, "llm_cer", use_mdg=True, seed=0, prepared=prepared)
        without = run_er(sp, "llm_cer", use_mdg=False, seed=0, prepared=prepared)
        assert with_mdg.n_calls >= without.n_calls

    def test_pair_confusion_totals(self, prepared_cora):
        sp, prepared = prepared_cora
        r = run_er(sp, "llm_cer", seed=0, prepared=prepared)
        pc = pair_confusion(r.assignment, prepared[1])
        n = len(prepared[1])
        assert sum(pc.values()) == n * (n - 1) // 2

    def test_prepare_scales(self):
        pdf, recs, truth = prepare(spec("as", 0.05))
        assert len(recs) == len(pdf)
        assert len(recs) < SPECS["as"].n_records


def _partition_hash(assignment: dict[int, int]) -> str:
    """SHA-256 of each record's smallest cluster-mate, sorted by record."""
    root: dict[int, int] = {}
    for rid, lab in assignment.items():
        root[lab] = min(root.get(lab, rid), rid)
    part = sorted((rid, root[lab]) for rid, lab in assignment.items())
    return hashlib.sha256(json.dumps(part).encode()).hexdigest()


@pytest.mark.parametrize(
    "name,scale,use_mdg,want",
    [
        ("citeseer", 0.05, True, (
            "d68ad94f4dd759d0dd79e212683bb8b98b8c66f8a3e167505949130c356b91a2",
            97, 21779, 1939)),
        ("citeseer", 0.05, False, (
            "5548ac6eb2b8e5e5490c736aecf896378833089e59b06a98d14cffa74ab69303",
            85, 19213, 1713)),
        ("wa", 0.1, True, (
            "c17d6db91c13c6623cb09fd77b0eb1164dd25e02d23842b809e480a94edef0f7",
            25, 19735, 2504)),
        ("wa", 0.1, False, (
            "24e8bfa7c8b13db19c95a28bc4545be9a8459d3f7eb9f08e259dd116a4246367",
            24, 18470, 2307)),
    ],
    ids=["citeseer-mdg", "citeseer-nomdg", "wa-mdg", "wa-nomdg"],
)
def test_batched_run_golden(name, scale, use_mdg, want, monkeypatch):
    """Batched clustering (Appendix A.10, Table 19's datasets) at seed 0
    reproduces its pinned partition hash, n_calls, in_tokens and
    out_tokens exactly, with and without MDG."""
    make = harness.SimulatedLLM
    llms = []

    def capture(*args, **kwargs):
        llms.append(make(*args, **kwargs))
        return llms[-1]

    monkeypatch.setattr(harness, "SimulatedLLM", capture)
    sp = spec(name, scale)
    r = run_er(
        sp, "llm_cer", batch_size=4, use_mdg=use_mdg, prepared=prepare(sp)[1:]
    )
    led = llms[-1].ledger
    got = (_partition_hash(r.assignment), led.n_calls, led.in_tokens,
           led.out_tokens)
    assert got == want
