"""Tests for the per-block end-to-end pipeline (Algorithm 4)."""
import pytest

from repro.core import pipeline
from repro.core.metrics import all_metrics
from repro.core.pipeline import resolve_block
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


_STEMS = [
    "apple orchard cider harvest autumn",
    "neutron star gravity collapse dense",
    "database index shard partition query",
    "violin concerto orchestra strings bow",
    "glacier moraine ice erosion valley",
]


def _block(sizes):
    """Entity ``e`` gets ``sizes[e]`` records of its own vocabulary."""
    recs, truth = [], {}
    for e, (stem, size) in enumerate(zip(_STEMS, sizes)):
        for k in range(size):
            truth[len(recs)] = e
            recs.append(_rec(len(recs), f"{stem} rec{k}"))
    return recs, truth


@pytest.fixture(scope="module")
def block():
    """27 records / 5 entities with distinctive vocabularies."""
    return _block([6, 6, 5, 5, 5])


class TestResolveBlock:
    def test_assignment_is_partition(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        assert set(res.assignment) == set(truth)

    def test_easy_block_high_quality(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        m = all_metrics(res.assignment, truth)
        assert m["acc"] > 0.72 and m["fp"] > 0.8

    def test_deterministic(self, block):
        recs, truth = block

        def run():
            llm = SimulatedLLM(truth, GPT_4O_MINI, seed=3)
            return resolve_block(recs, llm, seed=3).assignment

        assert run() == run()

    def test_level_counts_recorded(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        assert res.level_set_counts[0] == -(-len(recs) // 9) or res.level_set_counts[0] >= 3
        assert all(c >= 0 for c in res.level_set_counts)

    def test_levels_bounded(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        # every level's set count is bounded by what one round over all
        # current items could possibly need (pairs of items at worst)
        assert all(c <= len(recs) for c in res.level_set_counts)

    def test_empty_block(self, block):
        _, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        assert resolve_block([], llm).assignment == {}

    def test_single_record_block_no_calls(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        res = resolve_block(recs[:1], llm)
        assert res.assignment == {recs[0].rid: 0}
        assert llm.ledger.n_calls == 0

    def test_no_mdg_mode_runs(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
        res = resolve_block(recs, llm, use_mdg=False, seed=1)
        assert set(res.assignment) == set(truth)

    def test_mdg_uses_no_fewer_calls(self, block):
        recs, truth = block
        llm_a = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
        resolve_block(recs, llm_a, use_mdg=False, seed=1)
        llm_b = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
        resolve_block(recs, llm_b, use_mdg=True, seed=1)
        assert llm_b.ledger.n_calls >= llm_a.ledger.n_calls

    def test_random_merge_mode_runs(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=2)
        res = resolve_block(recs, llm, merge_strategy="random", seed=2)
        assert set(res.assignment) == set(truth)

    def test_batched_mode_fewer_calls(self, block):
        recs, truth = block
        llm_plain = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        resolve_block(recs, llm_plain, seed=0)
        llm_batch = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        resolve_block(recs, llm_batch, batch_size=4, seed=0)
        assert llm_batch.ledger.n_calls < llm_plain.ledger.n_calls

    def test_custom_set_size(self, block):
        recs, truth = block
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, s_s=6, s_d=3, seed=0)
        assert res.level_set_counts[0] >= -(-len(recs) // 6) - 1

    def test_max_rounds_cap(self, monkeypatch):
        recs, truth = _block([16] * 5)
        # unpatched, this block takes two CMR rounds at seed 0
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        assert len(resolve_block(recs, llm, seed=0).level_set_counts) >= 3
        monkeypatch.setattr(pipeline, "_MAX_ROUNDS", 1)
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        assert sorted(res.assignment) == sorted(truth)
        assert len(res.level_set_counts) == 1 + pipeline._MAX_ROUNDS

    @pytest.mark.parametrize(
        "n_sets, n_merges, last",
        [(9, 0, True), (10, 1, False), (25, 2, True), (25, 3, False),
         (30, 3, False), (31, 3, True)],
    )
    def test_exit_rule_one_merge_in_ten_sets(
        self, block, monkeypatch, n_sets, n_merges, last
    ):
        """A round whose merges number fewer than one in ten of its record
        sets is the last one; a round at or above that is followed by
        another (here until ``_MAX_ROUNDS``)."""
        recs, truth = block
        rounds = []

        def build(items, s_s, **kwargs):
            return [items[:2]] * n_sets

        def apply(items, round_sets, rep_clusterings, next_iid):
            rounds.append(len(round_sets))
            return items, n_merges, next_iid

        monkeypatch.setattr(pipeline, "build_round_sets", build)
        monkeypatch.setattr(pipeline, "apply_merge_result", apply)
        monkeypatch.setattr(pipeline, "_MAX_ROUNDS", 3)
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        res = resolve_block(recs, llm, seed=0)
        assert rounds == [n_sets] * (1 if last else pipeline._MAX_ROUNDS)
        assert res.level_set_counts[1:] == rounds
