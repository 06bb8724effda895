"""Tests for the §4.2 key-factor sweep machinery."""
import numpy as np
import pytest

from repro.core.factors import set_variation
from repro.experiments.sweeps import (
    S_D_GRID, S_S_GRID, _allocate_sizes, controlled_record_set,
    optimal_factors, records_by_entity, sweep_config,
)
from repro.llm.profiles import GPT_4O_MINI


class TestAllocateSizes:
    @pytest.mark.parametrize(
        "s_s,s_d",
        [(9, 4), (9, 3), (8, 2), (6, 3)],
        ids=["9-4-balanced", "9-3-balanced", "8-2-balanced", "6-3-balanced"],
    )
    def test_sums_to_set_size(self, s_s, s_d):
        assert sum(_allocate_sizes(s_s, s_d)) == s_s

    def test_balanced_low_cv(self):
        assert set_variation(_allocate_sizes(9, 3)) < 0.3

    def test_diversity_exceeding_size_rejected(self):
        with pytest.raises(ValueError):
            _allocate_sizes(3, 5)


class TestControlledRecordSet:
    def test_structure(self, cora_small):
        _, _, recs, truth = cora_small
        by_ent = records_by_entity(recs, truth)
        rng = np.random.default_rng(0)
        rset = controlled_record_set(by_ent, 9, 4, rng)
        assert rset is not None
        assert len(rset) == 9
        assert len({truth[r.rid] for r in rset}) == 4

    def test_sequential_ordering_contiguous(self, cora_small):
        _, _, recs, truth = cora_small
        by_ent = records_by_entity(recs, truth)
        rng = np.random.default_rng(1)
        rset = controlled_record_set(by_ent, 9, 3, rng)
        labels = [truth[r.rid] for r in rset]
        switches = sum(
            1 for i in range(len(labels) - 1) if labels[i] != labels[i + 1]
        )
        assert switches == len(set(labels)) - 1

    def test_impossible_request_returns_none(self):
        by_ent = {0: [], 1: []}
        rng = np.random.default_rng(0)
        assert (
            controlled_record_set(by_ent, 9, 4, rng)
            is None
        )


class TestSweepConfig:
    def test_outputs(self, cora_small):
        _, _, recs, truth = cora_small
        m = sweep_config(
            recs, truth, GPT_4O_MINI, s_s=6, s_d=3, n_questions=20, seed=0
        )
        assert 0.0 <= m["acc"] <= 1.0 and 0.0 <= m["fp"] <= 1.0
        assert m["n"] > 0

    def test_no_accounting_leak(self, cora_small):
        """Sweeps must not affect any shared ledger (they use their own)."""
        _, _, recs, truth = cora_small
        m = sweep_config(
            recs, truth, GPT_4O_MINI, s_s=4, s_d=2, n_questions=5, seed=0
        )
        assert m["n"] == 5


class TestOptimalFactors:
    def test_returns_valid_config(self, cora_small):
        _, _, recs, truth = cora_small
        ss, sd = optimal_factors(recs, truth, GPT_4O_MINI, seed=0)
        assert ss in S_S_GRID
        assert sd in S_D_GRID and sd <= ss
