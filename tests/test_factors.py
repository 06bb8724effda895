"""Unit tests for key-factor computations (§4.1, Eq. 1)."""
import numpy as np
import pytest

from repro.core.factors import order_sequentially, sequentiality, set_variation
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


class TestSetVariation:
    def test_paper_example3_balanced(self):
        # Figure 3: three clusters of size 3 → variation 0
        assert set_variation([3, 3, 3]) == 0.0

    def test_unbalanced(self):
        # e.g. [7, 1, 1]: sigma/mu = 2.83/3 ≈ 0.94
        assert set_variation([7, 1, 1]) == pytest.approx(0.9428, abs=1e-3)

    def test_empty(self):
        assert set_variation([]) == 0.0

    def test_single_cluster(self):
        assert set_variation([9]) == 0.0

    def test_matches_numpy(self):
        sizes = [4, 2, 2, 1]
        a = np.asarray(sizes, float)
        assert set_variation(sizes) == pytest.approx(a.std() / a.mean())


class TestSequentiality:
    def test_fully_sequential(self):
        assert sequentiality([0, 0, 1, 1, 2, 2]) == 1.0

    def test_fully_scattered(self):
        assert sequentiality([0, 1, 0, 1]) == 0.0

    def test_all_singletons_trivially_sequential(self):
        assert sequentiality([0, 1, 2, 3]) == 1.0

    def test_partial(self):
        # clusters {0:3, 1:1}; achievable 2; achieved 1
        assert sequentiality([0, 0, 1, 0]) == 0.5


class TestOrderSequentially:
    def test_groups_similar_records(self):
        recs = [
            _rec(0, "apple pie recipe dessert"),
            _rec(1, "quantum flux physics paper"),
            _rec(2, "apple pie recipe homemade"),
            _rec(3, "quantum flux physics journal"),
        ]
        ordered = order_sequentially(recs)
        texts = [r.text.split()[0] for r in ordered]
        # the two topic groups must be contiguous
        assert texts in (
            ["apple", "apple", "quantum", "quantum"],
            ["quantum", "quantum", "apple", "apple"],
        )

    def test_preserves_membership(self):
        recs = [_rec(i, f"word{i} text") for i in range(6)]
        assert {r.rid for r in order_sequentially(recs)} == set(range(6))

    def test_small_inputs_passthrough(self):
        recs = [_rec(0, "a b"), _rec(1, "c d")]
        assert order_sequentially(recs) == recs
        assert order_sequentially([]) == []
