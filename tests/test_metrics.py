"""Unit tests for the paper's clustering metrics (Eq. 2–11)."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.core.metrics import (
    acc, all_metrics, ari, clusters_to_assignment, contingency, fp_measure,
    inverse_purity, nmi, pair_confusion, purity,
)

from . import reference_metrics


def _assign(labels):
    return {i: lab for i, lab in enumerate(labels)}


PERFECT = (_assign([0, 0, 1, 1, 2]), _assign([5, 5, 7, 7, 9]))
ALL_SINGLE = (_assign(range(6)), _assign([0, 0, 0, 1, 1, 1]))
ALL_MERGED = (_assign([0] * 6), _assign([0, 0, 0, 1, 1, 1]))


class TestAcc:
    def test_perfect(self):
        assert acc(*PERFECT) == 1.0

    def test_all_singletons(self):
        # one singleton per GT cluster can match -> 2 of 6 correct
        assert acc(*ALL_SINGLE) == pytest.approx(2 / 6)

    def test_all_merged(self):
        # the single predicted cluster matches one GT cluster (3 of 6)
        assert acc(*ALL_MERGED) == pytest.approx(3 / 6)

    def test_label_names_irrelevant(self):
        assert acc(_assign([9, 9, 4]), _assign([1, 1, 0])) == 1.0

    def test_partial(self):
        pred = _assign([0, 0, 0, 1])
        truth = _assign([0, 0, 1, 1])
        # cluster0->gt0 (2 correct), cluster1->gt1 (1 correct)
        assert acc(pred, truth) == pytest.approx(3 / 4)

    def test_mismatched_ids_raise(self):
        with pytest.raises(ValueError):
            acc({0: 0}, {1: 0})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            acc({}, {})


class TestPurity:
    def test_perfect(self):
        assert purity(*PERFECT) == 1.0

    def test_singletons_pure(self):
        assert purity(*ALL_SINGLE) == 1.0

    def test_merged_inverse_pure(self):
        assert inverse_purity(*ALL_MERGED) == 1.0

    def test_merged_purity(self):
        assert purity(*ALL_MERGED) == pytest.approx(3 / 6)

    def test_purity_inverse_duality(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert inverse_purity(pred, truth) == purity(truth, pred)


class TestFPMeasure:
    def test_perfect(self):
        assert fp_measure(*PERFECT) == 1.0

    def test_harmonic_of_purities(self):
        pred, truth = ALL_MERGED
        p, ip = purity(pred, truth), inverse_purity(pred, truth)
        expected = 2 / (1 / p + 1 / ip)
        assert fp_measure(pred, truth) == pytest.approx(expected)

    def test_between_min_and_max_purity(self):
        pred = _assign([0, 0, 1, 2, 2, 1])
        truth = _assign([0, 1, 1, 2, 0, 2])
        p, ip = purity(pred, truth), inverse_purity(pred, truth)
        fp = fp_measure(pred, truth)
        assert min(p, ip) - 1e-9 <= fp <= max(p, ip) + 1e-9


class TestNMI:
    def test_perfect(self):
        assert nmi(*PERFECT) == pytest.approx(1.0)

    def test_independent_labels_low(self):
        pred = _assign([0, 1, 0, 1, 0, 1, 0, 1])
        truth = _assign([0, 0, 1, 1, 0, 0, 1, 1])
        assert nmi(pred, truth) < 0.2

    def test_symmetric(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert nmi(pred, truth) == pytest.approx(nmi(truth, pred))

    def test_trivial_both_single_cluster(self):
        assert nmi(_assign([0, 0]), _assign([1, 1])) == 1.0


class TestARI:
    def test_perfect(self):
        assert ari(*PERFECT) == pytest.approx(1.0)

    def test_random_near_zero(self):
        pred = _assign([0, 1, 0, 1, 0, 1, 0, 1])
        truth = _assign([0, 0, 1, 1, 0, 0, 1, 1])
        assert abs(ari(pred, truth)) < 0.5

    def test_symmetric(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert ari(pred, truth) == pytest.approx(ari(truth, pred))

    def test_known_value(self):
        # sklearn-verified example: ARI([0,0,1,1],[0,0,1,2]) == 0.57...
        pred = _assign([0, 0, 1, 2])
        truth = _assign([0, 0, 1, 1])
        assert ari(pred, truth) == pytest.approx(0.5714285, abs=1e-5)


class TestPairConfusion:
    def test_perfect(self):
        pc = pair_confusion(*PERFECT)
        assert pc["fp"] == 0 and pc["fn"] == 0
        assert pc["tp"] == 2  # (0,1) and (2,3)

    def test_totals(self):
        pred, truth = ALL_MERGED
        pc = pair_confusion(pred, truth)
        n = len(pred)
        assert sum(pc.values()) == n * (n - 1) // 2

    def test_all_merged_counts(self):
        pc = pair_confusion(*ALL_MERGED)
        assert pc["tp"] == 6 and pc["fp"] == 9 and pc["fn"] == 0


class TestClustersToAssignment:
    def test_round_trip(self):
        clusters = [[1, 2], [3], [4, 5]]
        a = clusters_to_assignment(clusters)
        assert a[1] == a[2] != a[3]

    def test_duplicate_record_raises(self):
        with pytest.raises(ValueError):
            clusters_to_assignment([[1, 2], [2]])


@st.composite
def labelings(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pred = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    truth = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return _assign(pred), _assign(truth)


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_ranges(self, pt):
        pred, truth = pt
        m = all_metrics(pred, truth)
        assert 0.0 <= m["acc"] <= 1.0
        assert 0.0 <= m["fp"] <= 1.0
        assert -1e-9 <= m["nmi"] <= 1.0 + 1e-9
        assert -1.0 - 1e-9 <= m["ari"] <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_label_permutation_invariance(self, pt):
        pred, truth = pt
        remap = {lab: lab + 100 for lab in set(pred.values())}
        pred2 = {rid: remap[lab] for rid, lab in pred.items()}
        assert all_metrics(pred, truth) == all_metrics(pred2, truth)

    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_self_clustering_is_perfect(self, pt):
        pred, _ = pt
        m = all_metrics(pred, pred)
        assert m["acc"] == 1.0 and m["fp"] == 1.0
        assert math.isclose(m["nmi"], 1.0)
        assert math.isclose(m["ari"], 1.0)


# Labels that stress the contingency numbering: negative, zero and
# beyond 32 bits, in an order that is not sorted.
ODD_LABELS = [2**40, -(2**33), 7, 0, -1, 2**32 + 1, 3]
odd_label = st.sampled_from(ODD_LABELS) | st.integers(-(2**62), 2**62)


@st.composite
def random_labelings(draw):
    """Few labels over few records, so equal intersections are common;
    truth's insertion order is a shuffle of pred's."""
    rids = draw(st.lists(odd_label, min_size=1, max_size=40, unique=True))
    pred_pool = draw(st.lists(odd_label, min_size=1, max_size=5, unique=True))
    truth_pool = draw(st.lists(odd_label, min_size=1, max_size=5, unique=True))
    pred = {r: draw(st.sampled_from(pred_pool)) for r in rids}
    order = draw(st.permutations(rids))
    return pred, {r: draw(st.sampled_from(truth_pool)) for r in order}


@st.composite
def tied_grids(draw):
    """k pred × m truth clusters whose every cell holds c records: every
    intersection ties, so only the tie-break decides ACC."""
    k, m, c = (draw(st.integers(1, 4)) for _ in range(3))
    xs = draw(st.lists(odd_label, min_size=k, max_size=k, unique=True))
    ys = draw(st.lists(odd_label, min_size=m, max_size=m, unique=True))
    cells = [(x, y) for x in xs for y in ys for _ in range(c)]
    order = draw(st.permutations(range(len(cells))))
    rids = draw(st.lists(odd_label, min_size=len(cells),
                         max_size=len(cells), unique=True))
    pred = {rids[i]: cells[i][0] for i in order}
    truth = {rids[i]: cells[i][1] for i in reversed(order)}
    return pred, truth


# pred and truth map the same ids, inserted in reverse sorted-label order
REVERSED = (
    {5: 2**40, 4: 2**40, 3: -(2**33), 2: -(2**33), 1: -5, 0: -5},
    {0: 2**33, 1: 2**33, 2: 2**33, 3: -7, 4: -7, 5: -7},
)


class TestEquivalenceWithReference:
    """The contingency-table metrics equal the set-intersection ones
    kept in ``tests/reference_metrics.py``: exactly, except NMI, whose
    float sums may round differently (tolerance 1e-12)."""

    EXACT = ("acc", "purity", "inverse_purity", "fp_measure", "ari",
             "pair_confusion")

    @settings(max_examples=300, deadline=None)
    @given(pt=random_labelings() | tied_grids())
    @example(pt=REVERSED)
    def test_matches_reference(self, pt):
        pred, truth = pt
        for name in self.EXACT:
            ours = getattr(metrics, name)(pred, truth)
            assert ours == getattr(reference_metrics, name)(pred, truth), name
        ref_nmi = reference_metrics.nmi(pred, truth)
        assert abs(nmi(pred, truth) - ref_nmi) <= 1e-12
        m = all_metrics(pred, truth)
        assert m["acc"] == reference_metrics.acc(pred, truth)
        assert m["fp"] == reference_metrics.fp_measure(pred, truth)
        assert m["ari"] == reference_metrics.ari(pred, truth)
        assert abs(m["nmi"] - ref_nmi) <= 1e-12


class TestAccTieBreak:
    """Two cells of size 2 tie for truth cluster X (label 0): pred
    cluster A (label 9, records 0-1) and B (label 1, records 2-4, one of
    them in truth cluster Y). Clusters are numbered by first appearance,
    so A is matched to X first and B then takes Y: ACC = 3/5. Numbering
    by sorted label would put B first and leave A unmatched: ACC = 2/5."""

    PRED = {0: 9, 1: 9, 2: 1, 3: 1, 4: 1}
    TRUTH = {0: 0, 1: 0, 2: 0, 3: 0, 4: 5}

    def test_first_appearance_wins(self):
        assert acc(self.PRED, self.TRUTH) == 3 / 5

    def test_insertion_order_decides(self):
        # the same partition, inserted so that label 1 comes first
        pred = {r: self.PRED[r] for r in (2, 3, 4, 0, 1)}
        assert acc(pred, self.TRUTH) == 2 / 5

    def test_table_numbering(self):
        t = contingency(self.PRED, self.TRUTH)
        assert t.cells == [(0, 0, 2), (1, 0, 2), (1, 1, 1)]
        assert t.pred_sizes == [2, 3] and t.truth_sizes == [4, 1]


class TestDegenerateInputs:
    def test_single_record(self):
        pred, truth = {42: 7}, {42: -(2**40)}
        assert all_metrics(pred, truth) == {
            "acc": 1.0, "fp": 1.0, "nmi": 1.0, "ari": 1.0,  # C(1, 2) = 0
        }
        assert pair_confusion(pred, truth) == {
            "tp": 0, "fp": 0, "fn": 0, "tn": 0,
        }

    def test_all_singletons_both_sides(self):
        n = 6
        pred, truth = _assign(range(n)), _assign(range(100, 100 + n))
        # ARI: Σ C(a, 2) = Σ C(b, 2) = 0, so max_index == expected
        assert all_metrics(pred, truth) == pytest.approx(
            {"acc": 1.0, "fp": 1.0, "nmi": 1.0, "ari": 1.0}
        )
        assert ari(pred, truth) == 1.0
        assert pair_confusion(pred, truth) == {
            "tp": 0, "fp": 0, "fn": 0, "tn": n * (n - 1) // 2,
        }

    def test_one_cluster_against_singletons(self):
        n = 5
        pred, truth = _assign([3] * n), _assign(range(n))
        m = all_metrics(pred, truth)
        assert all(math.isfinite(v) for v in m.values())
        assert m["nmi"] == 0.0  # H(X) = 0, H(Y) = log n, I = 0
        assert m["ari"] == 0.0
        assert m["acc"] == 1 / n
        assert m["fp"] == pytest.approx(2 / (n + 1))
        assert pair_confusion(pred, truth) == {
            "tp": 0, "fp": n * (n - 1) // 2, "fn": 0, "tn": 0,
        }

    @pytest.mark.parametrize("fn", [
        acc, purity, inverse_purity, fp_measure, nmi, ari, pair_confusion,
        all_metrics, contingency,
    ])
    @pytest.mark.parametrize("pred,truth", [
        ({0: 0}, {1: 0}), ({0: 0, 1: 0}, {0: 0}), ({}, {}),
    ])
    def test_bad_input_raises(self, fn, pred, truth):
        with pytest.raises(ValueError):
            fn(pred, truth)
