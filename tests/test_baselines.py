"""Tests for the competing ER methods (pairwise, BQ, Booster, CrowdER, PLM)."""
import itertools

import pytest

from repro.baselines.booster import _threshold_partition, booster_er_block
from repro.baselines.bq import annotation_cost, bq_er_block
from repro.baselines.crowder import build_hits, crowder_er_block, uncertain_pairs
from repro.baselines.pairwise import TransitiveState, pairwise_er_block
from repro.baselines.plm import (
    DEEPMATCHER, DITTO, plm_cost_usd, plm_er_block, plm_match_prob,
)
from repro.core.metrics import all_metrics
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM
import numpy as np


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


@pytest.fixture(scope="module")
def easy_block():
    stems = [
        "apple orchard cider harvest",
        "neutron star gravity collapse",
        "violin concerto orchestra strings",
    ]
    recs, truth = [], {}
    rid = 0
    for e, stem in enumerate(stems):
        for k in range(4):
            recs.append(_rec(rid, f"{stem} rec{k}"))
            truth[rid] = e
            rid += 1
    return recs, truth


def _is_partition(assign, recs):
    return set(assign) == {r.rid for r in recs}


class TestTransitiveState:
    def test_transitivity(self):
        s = TransitiveState(3)
        s.record_same(0, 1)
        s.record_same(1, 2)
        assert s.inferred(0, 2) is True

    def test_anti_transitivity(self):
        s = TransitiveState(3)
        s.record_same(0, 1)
        s.record_different(1, 2)
        assert s.inferred(0, 2) is False

    def test_unknown(self):
        s = TransitiveState(3)
        assert s.inferred(0, 2) is None

    def test_anti_survives_union(self):
        s = TransitiveState(4)
        s.record_different(0, 3)
        s.record_same(0, 1)
        s.record_same(1, 2)
        assert s.inferred(2, 3) is False

    def test_contradiction_raises(self):
        s = TransitiveState(2)
        s.record_same(0, 1)
        with pytest.raises(ValueError):
            s.record_different(0, 1)

    def test_assignment_labels(self, easy_block):
        recs, _ = easy_block
        s = TransitiveState(len(recs))
        s.record_same(0, 1)
        a = s.assignment(recs)
        assert a[recs[0].rid] == a[recs[1].rid]
        assert len(set(a.values())) == len(recs) - 1


class TestPairwise:
    def test_partition_and_quality(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        assign = pairwise_er_block(recs, llm)
        assert _is_partition(assign, recs)
        assert all_metrics(assign, truth)["acc"] > 0.7

    def test_transitivity_saves_calls(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        pairwise_er_block(recs, llm)
        n_pairs = len(recs) * (len(recs) - 1) // 2
        assert llm.ledger.n_calls < n_pairs

    def test_single_record(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        assert pairwise_er_block(recs[:1], llm) == {recs[0].rid: 0}


class TestBQ:
    def test_partition(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        assert _is_partition(bq_er_block(recs, llm), recs)

    def test_batching_reduces_calls_vs_pairwise(self, easy_block):
        recs, truth = easy_block
        llm_bq = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        bq_er_block(recs, llm_bq)
        llm_pw = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        pairwise_er_block(recs, llm_pw, use_guardrail=False)
        # each BQ call carries 5 questions, so calls per answer are lower
        per_answer_bq = llm_bq.ledger.n_calls / max(1, llm_bq.ledger.out_tokens)
        per_answer_pw = llm_pw.ledger.n_calls / max(1, llm_pw.ledger.out_tokens)
        assert per_answer_bq <= per_answer_pw

    def test_demo_tokens_make_bq_expensive(self, easy_block):
        recs, truth = easy_block
        llm_bq = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        bq_er_block(recs, llm_bq)
        llm_pw = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        pairwise_er_block(recs, llm_pw, use_guardrail=False)
        assert llm_bq.ledger.in_tokens > llm_pw.ledger.in_tokens

    def test_annotation_cost(self):
        assert annotation_cost() == pytest.approx(0.64)


class TestBooster:
    def test_partition(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        assert _is_partition(booster_er_block(recs, llm), recs)

    def test_threshold_partition_components(self):
        sims = np.array(
            [[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]]
        )
        part = _threshold_partition(sims, 0.5)
        assert part[0] == part[1] != part[2]

    def test_uses_short_prompts(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        booster_er_block(recs, llm)
        if llm.ledger.n_calls:
            assert llm.ledger.in_tokens / llm.ledger.n_calls < 300


class TestCrowdER:
    def test_partition(self, easy_block):
        recs, truth = easy_block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        assert _is_partition(crowder_er_block(recs, llm), recs)

    def test_hits_cover_all_uncertain_pairs(self, easy_block):
        recs, _ = easy_block
        pairs = uncertain_pairs(recs, threshold=0.25)
        hits = build_hits(pairs, s_s=5)
        covered = set()
        for hit in hits:
            for a, b in itertools.combinations(sorted(hit), 2):
                covered.add((a, b))
        assert set(pairs) <= covered

    def test_hits_respect_set_size(self, easy_block):
        recs, _ = easy_block
        pairs = uncertain_pairs(recs, threshold=0.25)
        assert all(len(h) <= 4 for h in build_hits(pairs, s_s=4))

    def test_overlap_allowed(self, easy_block):
        recs, _ = easy_block
        pairs = uncertain_pairs(recs, threshold=0.2)
        hits = build_hits(pairs, s_s=3)
        flat = [i for h in hits for i in h]
        assert len(flat) >= len(set(flat))  # duplicates possible


class TestPLM:
    @pytest.mark.parametrize("model", [DITTO, DEEPMATCHER])
    def test_partition(self, model, easy_block):
        recs, truth = easy_block
        assert _is_partition(plm_er_block(recs, model, 0.8), recs)

    def test_fine_tuning_improves_quality(self, easy_block):
        recs, truth = easy_block
        q0 = all_metrics(plm_er_block(recs, DITTO, 0.0, seed=1), truth)
        q8 = all_metrics(plm_er_block(recs, DITTO, 0.8, seed=1), truth)
        assert q8["fp"] >= q0["fp"]

    def test_match_prob_monotone_in_similarity(self):
        near = (_rec(0, "alpha beta gamma"), _rec(1, "alpha beta gamma"))
        far = (_rec(2, "alpha beta gamma"), _rec(3, "zz yy xx"))
        assert plm_match_prob(*near, DITTO, 0.8) > plm_match_prob(
            *far, DITTO, 0.8
        )

    def test_cost_model_matches_paper_alaska(self):
        # paper Table 16: Alaska 20% FT ≈ $66, 80% ≈ $260
        assert plm_cost_usd(12_000, 0.2) == pytest.approx(66, rel=0.15)
        assert plm_cost_usd(12_000, 0.8) == pytest.approx(260, rel=0.15)

    def test_inference_only_cost_small(self):
        assert plm_cost_usd(12_000, 0.0) < 1.0
