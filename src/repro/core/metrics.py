"""Clustering quality metrics exactly as the paper defines them (§6.1).

* ACC — Eq. 2–3: ground-truth clusters are re-ordered (matched) to the
  predicted clusters by intersection size, one GT cluster per predicted
  cluster; ACC is the fraction of records falling in their cluster's
  matched GT cluster.
* FP-measure — Eq. 4–7: harmonic mean of purity and inverse-purity.
* NMI — Eq. 8–10.
* ARI — Eq. 11 (standard adjusted Rand index, in the Hubert & Arabie
  contingency form).

All functions take ``pred`` and ``truth`` as record_id → label maps
over the same record set.

Every metric, and the pair-confusion counts, is a function of the
pred × truth contingency table and its marginals, which
:func:`contingency` builds in one O(n) pass over the records; the
metrics then cost O(k log k) in the k ≤ n nonzero cells. ``all_metrics``
builds the table once for all four metrics.

Clusters are numbered in first-appearance order of their label in the
``pred`` (resp. ``truth``) map. ACC's greedy one-to-one matching visits
cells by (-size, pred index, truth index), so ties between equal-sized
intersections go to the cluster that appears first in the maps — not to
the smaller label. NMI's sums run in that same cluster order.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import count
from math import log
from operator import itemgetter
from typing import NamedTuple


def _check(pred: dict[int, int], truth: dict[int, int]) -> None:
    if pred.keys() != truth.keys():
        missing = pred.keys() ^ truth.keys()
        raise ValueError(f"pred/truth record sets differ on {len(missing)} ids")
    if not pred:
        raise ValueError("empty clustering")


def _pairs(sizes: Iterable[int]) -> int:
    """Σ C(s, 2): the record pairs that share a cluster of each size."""
    return sum(s * (s - 1) for s in sizes) // 2


class Contingency(NamedTuple):
    """The pred × truth contingency table of one clustering.

    ``cells`` holds the nonzero (pred index, truth index, count) cells,
    sorted by (pred index, truth index); ``pred_sizes`` / ``truth_sizes``
    are the marginals, indexed the same way.
    """

    n: int
    cells: list[tuple[int, int, int]]
    pred_sizes: list[int]
    truth_sizes: list[int]

    def acc(self) -> float:
        # cells are in (pred, truth) index order and the sort is stable,
        # so this visits them by (-size, pred index, truth index)
        used_x: set[int] = set()
        used_y: set[int] = set()
        correct = 0
        for xi, yi, size in sorted(self.cells, key=itemgetter(2), reverse=True):
            if xi in used_x or yi in used_y:
                continue
            used_x.add(xi)
            used_y.add(yi)
            correct += size
        return correct / self.n

    def _best_overlap(self, side: int, n_clusters: int) -> int:
        """Σ over the clusters of one side of their largest cell."""
        best = [0] * n_clusters
        for cell in self.cells:
            if cell[2] > best[cell[side]]:
                best[cell[side]] = cell[2]
        return sum(best)

    def purity(self) -> float:
        return self._best_overlap(0, len(self.pred_sizes)) / self.n

    def inverse_purity(self) -> float:
        return self._best_overlap(1, len(self.truth_sizes)) / self.n

    def fp_measure(self) -> float:
        p, ip = self.purity(), self.inverse_purity()
        if p == 0 or ip == 0:
            return 0.0
        return 2.0 / (1.0 / p + 1.0 / ip)

    def nmi(self) -> float:
        n, a, b = self.n, self.pred_sizes, self.truth_sizes

        def h(sizes: list[int]) -> float:
            return -sum((s / n) * log(s / n) for s in sizes)

        hx, hy = h(a), h(b)
        if hx == 0 and hy == 0:
            return 1.0  # both trivial single-cluster partitions: identical
        mi = 0.0
        for xi, yi, nij in self.cells:
            mi += (nij / n) * log((nij * n) / (a[xi] * b[yi]))
        denom = hx + hy
        return (2.0 * mi / denom) if denom > 0 else 0.0

    def _pair_sums(self) -> tuple[int, int, int, int]:
        """Record pairs together in both, in pred, in truth; all pairs."""
        n = self.n
        return (
            _pairs(cell[2] for cell in self.cells),
            _pairs(self.pred_sizes),
            _pairs(self.truth_sizes),
            n * (n - 1) // 2,
        )

    def ari(self) -> float:
        sum_ij, sum_a, sum_b, nc2 = self._pair_sums()
        if nc2 == 0:
            return 1.0
        expected = sum_a * sum_b / nc2
        max_index = 0.5 * (sum_a + sum_b)
        if max_index == expected:
            return 1.0  # degenerate: both partitions all-singletons etc.
        return (sum_ij - expected) / (max_index - expected)

    def pair_confusion(self) -> dict[str, int]:
        tp, same_pred, same_truth, total = self._pair_sums()
        return {
            "tp": tp,
            "fp": same_pred - tp,
            "fn": same_truth - tp,
            "tn": total - same_pred - same_truth + tp,
        }


def contingency(pred: dict[int, int], truth: dict[int, int]) -> Contingency:
    """Build the contingency table in one pass (clusters numbered by
    first appearance of their label in each map)."""
    _check(pred, truth)
    pred_sizes = Counter(pred.values())
    truth_sizes = Counter(truth.values())
    xi = dict(zip(pred_sizes, count()))
    yi = dict(zip(truth_sizes, count()))
    cells = Counter(zip(pred.values(), map(truth.__getitem__, pred)))
    return Contingency(
        len(pred),
        sorted((xi[p], yi[t], c) for (p, t), c in cells.items()),
        list(pred_sizes.values()),
        list(truth_sizes.values()),
    )


def acc(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 2–3: greedy one-to-one matching by intersection size."""
    return contingency(pred, truth).acc()


def purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 4 (with Eq. 6's overlap): Σ max-overlap / |R|."""
    return contingency(pred, truth).purity()


def inverse_purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 5: purity with the roles of pred and truth swapped."""
    return contingency(pred, truth).inverse_purity()


def fp_measure(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 7: harmonic mean of purity and inverse-purity."""
    return contingency(pred, truth).fp_measure()


def nmi(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 8–10: normalised mutual information."""
    return contingency(pred, truth).nmi()


def ari(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 11: adjusted Rand index from the contingency table."""
    return contingency(pred, truth).ari()


def pair_confusion(
    pred: dict[int, int], truth: dict[int, int]
) -> dict[str, int]:
    """TP/FP/FN/TN over record pairs (Appendix A.9 confusion matrices),
    from cluster-size combinatorics: TP = Σ C(nᵢⱼ, 2), FP = Σ C(aᵢ, 2) − TP,
    FN = Σ C(bⱼ, 2) − TP, TN = C(n, 2) − TP − FP − FN."""
    return contingency(pred, truth).pair_confusion()


def all_metrics(pred: dict[int, int], truth: dict[int, int]) -> dict[str, float]:
    """The four headline metrics in one call, from one contingency table."""
    t = contingency(pred, truth)
    return {"acc": t.acc(), "fp": t.fp_measure(), "nmi": t.nmi(), "ari": t.ari()}


def clusters_to_assignment(clusters: list[list[int]]) -> dict[int, int]:
    """Cluster list → record_id → label map (labels are cluster ranks)."""
    out: dict[int, int] = {}
    for lab, c in enumerate(clusters):
        for rid in c:
            if rid in out:
                raise ValueError(f"record {rid} appears in two clusters")
            out[rid] = lab
    return out
