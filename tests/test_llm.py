"""Unit tests for the simulated LLM oracle, its profiles and accounting."""
import numpy as np
import pytest

from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens
from repro.llm.accounting import Ledger
from repro.llm.profiles import GPT_4O_MINI, LLAMA_3_2_1B
from repro.llm.simulated import SimulatedLLM, pair_ambiguity


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


@pytest.fixture()
def easy_world():
    """Three well-separated entities with 3 near-identical records each."""
    recs, truth = [], {}
    rid = 0
    for e, stem in enumerate(
        ["apple banana cherry fruit salad", "quantum physics flux theory",
         "database entity resolution clustering"]
    ):
        for k in range(3):
            recs.append(_rec(rid, f"{stem} v{k}"))
            truth[rid] = e
            rid += 1
    return recs, truth


class TestProfiles:
    def test_capacity_ordering(self):
        # the stronger model handles bigger sets (appendix Table 9)
        assert GPT_4O_MINI.capacity > LLAMA_3_2_1B.capacity
        assert GPT_4O_MINI.diversity_opt > LLAMA_3_2_1B.diversity_opt

    def test_error_ordering(self):
        assert GPT_4O_MINI.base_error < LLAMA_3_2_1B.base_error

    def test_llama_is_free(self):
        assert LLAMA_3_2_1B.input_price_per_m == 0.0


class TestLedger:
    def test_add_call(self):
        led = Ledger(GPT_4O_MINI)
        led.add_call(100, 10)
        assert led.n_calls == 1 and led.tokens == 110
        assert led.sim_time_s > 0

    def test_cost_formula(self):
        led = Ledger(GPT_4O_MINI)
        led.add_call(1_000_000, 0)
        assert led.cost_usd == pytest.approx(GPT_4O_MINI.input_price_per_m)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            Ledger(GPT_4O_MINI).add_call(-1, 0)

    def test_snapshot_keys(self):
        snap = Ledger(GPT_4O_MINI).snapshot()
        assert set(snap) == {
            "n_calls", "in_tokens", "out_tokens", "tokens", "cost_usd",
            "sim_time_s",
        }

    @pytest.mark.parametrize("profile", [GPT_4O_MINI, LLAMA_3_2_1B])
    def test_ledgers_add_field_by_field(self, profile):
        """A ledger fed calls A then B is the integer sum of a ledger fed
        A and one fed B, cost and time included, bit for bit: blocks
        resolved apart can be summed in any order."""
        g = np.random.default_rng(0)
        calls = g.integers(0, 5000, size=(300, 2)).tolist()
        a, b, ab = Ledger(profile), Ledger(profile), Ledger(profile)
        for i, call in enumerate(calls):
            (a if i < 137 else b).add_call(*call)
            ab.add_call(*call)
        summed = Ledger(
            profile,
            a.n_calls + b.n_calls,
            a.in_tokens + b.in_tokens,
            a.out_tokens + b.out_tokens,
        )
        assert ab.snapshot() == summed.snapshot()
        assert ab.sim_time_s == summed.sim_time_s
        assert ab.cost_usd == summed.cost_usd
        assert ab.sim_time_s == (
            ab.n_calls * profile.latency_base_s
            + ab.in_tokens * profile.latency_per_in_tok_s
            + ab.out_tokens * profile.latency_per_out_tok_s
        )


class TestPairAmbiguity:
    def test_identical_duplicates_unambiguous(self):
        a, b = _rec(0, "x y z"), _rec(1, "x y z")
        assert pair_ambiguity(a, b, same=True) == 0.0

    def test_disjoint_nonduplicates_unambiguous(self):
        a, b = _rec(0, "x y"), _rec(1, "p q")
        assert pair_ambiguity(a, b, same=False) == 0.0

    def test_hard_negative(self):
        a, b = _rec(0, "x y z"), _rec(1, "x y z")
        assert pair_ambiguity(a, b, same=False) == 1.0


class TestClusterRecords:
    def test_partitions_easy_set(self, easy_world):
        recs, truth = recs_truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=3)
        clusters = llm.cluster_records(recs)
        out_ids = [r.rid for c in clusters for r in c]
        # at temperature 0 on trivially-separable data, either a clean
        # partition or a detectable hallucination — never silent junk
        assert len(out_ids) in (len(recs) - 1, len(recs), len(recs) + 1)

    def test_deterministic_at_temp0(self, easy_world):
        recs, truth = easy_world

        def run():
            llm = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
            return [
                sorted(r.rid for r in c) for c in llm.cluster_records(recs)
            ]

        assert run() == run()

    def test_salt_changes_draw_possible(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
        # different salts must not raise and must stay structurally sane
        for salt in range(5):
            clusters = llm.cluster_records(recs, salt=salt)
            assert clusters

    def test_accounting(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=1)
        llm.cluster_records(recs)
        assert llm.ledger.n_calls == 1
        assert llm.ledger.in_tokens > sum(r.n_tokens_llm for r in recs)

    def test_duplicate_input_rejected(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        with pytest.raises(ValueError):
            llm.cluster_records([recs[0], recs[0]])

    def test_empty_input(self, easy_world):
        _, truth = easy_world
        assert SimulatedLLM(truth, GPT_4O_MINI).cluster_records([]) == []


class TestErrorModel:
    def _mean_error_rate(self, truth, recs, n_trials=60, **kw):
        """Fraction of same/diff pair judgments wrong over salted calls."""
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=11)
        wrong = total = 0
        for salt in range(n_trials):
            clusters = llm.cluster_records(recs, salt=salt)
            out_ids = {r.rid for c in clusters for r in c}
            if out_ids != {r.rid for r in recs}:
                continue  # hallucinated call: structural, not pairwise
            lab = {r.rid: i for i, c in enumerate(clusters) for r in c}
            for i in range(len(recs)):
                for k in range(i + 1, len(recs)):
                    a, b = recs[i], recs[k]
                    total += 1
                    if (lab[a.rid] == lab[b.rid]) != (
                        truth[a.rid] == truth[b.rid]
                    ):
                        wrong += 1
        return wrong / max(1, total)

    def test_scattered_order_worse_than_sequential(self):
        # moderate cross-entity overlap so per-pair errors sit in the
        # responsive mid-range rather than at the clip ceiling
        recs, truth = [], {}
        stems = [
            "aurora filament kernel shared alpha",
            "breeze lantern cobalt shared alpha",
            "cascade marble drift shared alpha",
        ]
        for e, stem in enumerate(stems):
            for k in range(3):
                rid = e * 3 + k
                recs.append(_rec(rid, f"{stem} copy{k}"))
                truth[rid] = e
        seq = sorted(recs, key=lambda r: truth[r.rid])
        scattered = [recs[i] for i in (0, 3, 6, 1, 4, 7, 2, 5, 8)]
        assert self._mean_error_rate(truth, scattered) >= self._mean_error_rate(
            truth, seq
        )

    def test_oversized_set_worse(self):
        recs, truth = [], {}
        rid = 0
        for e in range(6):
            stem = f"distinct{e} topic words here alpha"
            for k in range(2):
                recs.append(_rec(rid, f"{stem} var{k} noiseword{rid}"))
                truth[rid] = e
                rid += 1
        small = recs[:8]
        big = recs  # 12 records: beyond GPT capacity
        assert self._mean_error_rate(truth, big) >= self._mean_error_rate(
            truth, small
        ) - 0.02

    def test_effective_capacity_bounds(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        assert 4 <= llm.effective_capacity(recs) <= 13

    def test_capacity_drops_with_noisy_duplicates(self):
        truth = {0: 0, 1: 0, 2: 1, 3: 1}
        clean = [
            _rec(0, "aa bb cc dd ee ff gg hh"), _rec(1, "aa bb cc dd ee ff gg xx"),
            _rec(2, "pp qq rr ss tt uu vv ww"), _rec(3, "pp qq rr ss tt uu vv yy"),
        ]
        noisy = [
            _rec(0, "aa bb cc dd ee ff gg hh"), _rec(1, "zz yy xx wv ut sr qp on"),
            _rec(2, "pp qq rr ss tt uu vv ww"), _rec(3, "m1 m2 m3 m4 m5 m6 m7 m8"),
        ]
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        assert llm.effective_capacity(noisy) < llm.effective_capacity(clean)


class TestMatchPair:
    def test_easy_pair_correct(self):
        truth = {0: 0, 1: 0, 2: 1}
        a = _rec(0, "alpha beta gamma delta")
        b = _rec(1, "alpha beta gamma delta epsilon")
        c = _rec(2, "totally different words here")
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=2)
        assert llm.match_pair(a, b) is True
        assert llm.match_pair(a, c) is False

    def test_accounting(self):
        truth = {0: 0, 1: 0}
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        llm.match_pair(_rec(0, "x"), _rec(1, "x"))
        assert llm.ledger.n_calls == 1 and llm.ledger.out_tokens == 8

    def test_deterministic(self):
        truth = {0: 0, 1: 1}
        a, b = _rec(0, "some words ab"), _rec(1, "some words ac")
        r1 = SimulatedLLM(truth, GPT_4O_MINI, seed=5).match_pair(a, b)
        r2 = SimulatedLLM(truth, GPT_4O_MINI, seed=5).match_pair(a, b)
        assert r1 == r2


class TestBatchedCalls:
    def test_match_pairs_batched_counts(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        pairs = [(recs[i], recs[i + 1]) for i in range(0, 8)]
        answers = llm.match_pairs_batched(pairs, pairs_per_call=5)
        assert len(answers) == len(pairs)
        assert llm.ledger.n_calls == 2  # ceil(8/5)

    def test_demo_tokens_dominate(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        llm.match_pairs_batched([(recs[0], recs[1])], demos=8)
        assert llm.ledger.in_tokens > 8 * 100

    def test_invalid_pairs_per_call(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        with pytest.raises(ValueError):
            llm.match_pairs_batched([(recs[0], recs[1])], pairs_per_call=0)

    def test_cluster_batch_single_call(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        outs = llm.cluster_batch([recs[:4], recs[4:8]])
        assert len(outs) == 2
        assert llm.ledger.n_calls == 1

    def test_cluster_batch_duplicate_input_rejected(self, easy_world):
        recs, truth = easy_world
        llm = SimulatedLLM(truth, GPT_4O_MINI)
        with pytest.raises(ValueError, match="duplicate records"):
            llm.cluster_batch([recs[:3], [recs[4], recs[5], recs[4]]])
        assert llm.ledger.n_calls == 0

    def test_cluster_batch_empty(self, easy_world):
        _, truth = easy_world
        assert SimulatedLLM(truth, GPT_4O_MINI).cluster_batch([]) == []


class TestFewShot:
    def test_factor_improves_then_saturates(self, easy_world):
        _, truth = easy_world
        f0 = SimulatedLLM(truth, few_shot=0)._few_shot_factor()
        f4 = SimulatedLLM(truth, few_shot=4)._few_shot_factor()
        f10 = SimulatedLLM(truth, few_shot=10)._few_shot_factor()
        assert f0 == 1.0
        assert f4 < f0
        assert f10 > SimulatedLLM(truth, few_shot=6)._few_shot_factor()

    def test_few_shot_token_cost(self, easy_world):
        recs, truth = easy_world
        a = SimulatedLLM(truth, GPT_4O_MINI, few_shot=0)
        b = SimulatedLLM(truth, GPT_4O_MINI, few_shot=4)
        a.cluster_records(recs[:4])
        b.cluster_records(recs[:4])
        assert b.ledger.in_tokens > a.ledger.in_tokens
