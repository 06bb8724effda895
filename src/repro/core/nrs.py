"""Next Record Set creation — Algorithm 1 (NRS).

Builds one record set from the remaining records of a block, honouring
the optimal key-factor configuration from §4.2: set size ``Ss``,
diversity ``Sd`` (via elbow-method k-means pseudo-clusters), minimal
set variation, and sequential ordering of similar records.

Only embeddings are used — no ground truth. k-means is a small local
NumPy implementation (blocks hold at most a few hundred records, and
sklearn is out of scope for the offline container).
"""
from __future__ import annotations

import numpy as np

from .factors import order_sequentially, set_variation
from .records import Record

#: Lloyd iterations per k-means run (fewer if the labels settle)
KMEANS_ITERS = 20


def kmeans(
    vecs: np.ndarray, k: int, seed: int = 0
) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++-style init → (labels, inertia)."""
    n = vecs.shape[0]
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    g = np.random.default_rng(seed)
    # k-means++ seeding
    centers = [vecs[int(g.integers(0, n))]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((vecs - c) ** 2, axis=1) for c in centers], axis=0
        )
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        centers.append(vecs[int(g.choice(n, p=probs))])
    c = np.stack(centers)
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_ITERS):
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                c[j] = vecs[mask].mean(axis=0)
    inertia = float(((vecs - c[labels]) ** 2).sum())
    return labels, inertia


def elbow_k(vecs: np.ndarray, k_max: int = 8, seed: int = 0) -> int:
    """Elbow method: k with the sharpest inertia-curve bend."""
    n = vecs.shape[0]
    k_max = min(k_max, n)
    if k_max <= 2:
        return max(1, k_max)
    inertias = [kmeans(vecs, k, seed)[1] for k in range(1, k_max + 1)]
    # second difference of the inertia curve; +1 because ks start at 1
    best_k, best_bend = 2, -np.inf
    for i in range(1, k_max - 1):
        bend = inertias[i - 1] - 2 * inertias[i] + inertias[i + 1]
        if bend > best_bend:
            best_bend, best_k = bend, i + 1
    return best_k


def next_record_set(
    remaining: list[Record], s_s: int = 9, s_d: int = 4, seed: int = 0
) -> tuple[list[Record], list[Record]]:
    """Algorithm 1: build the next record set; return (set, new remaining).

    If few records remain they are all taken (chain-ordered). Otherwise
    elbow+k-means estimates the block's diversity, ``Ss/Sd`` records
    are drawn from each sufficiently large pseudo-cluster, the set is
    topped up minimising the Eq. 1 variation, and finally similar
    records are ordered consecutively.
    """
    if s_s < 2 or s_d < 1:
        raise ValueError("need Ss >= 2 and Sd >= 1")
    if not remaining:
        return [], []
    if len(remaining) <= s_s:  # Lines 2–7
        return order_sequentially(remaining), []

    vecs = np.stack([r.vec for r in remaining])
    k = elbow_k(vecs, k_max=min(8, len(remaining)), seed=seed)
    labels, _ = kmeans(vecs, k, seed=seed)
    target = max(1, s_s // s_d)

    chosen: list[Record] = []
    chosen_labels: list[int] = []
    taken = np.zeros(len(remaining), dtype=bool)
    centroids = {
        j: vecs[labels == j].mean(axis=0) for j in range(k) if (labels == j).any()
    }
    for j in sorted(centroids):  # Lines 12–17
        idx = np.where((labels == j) & ~taken)[0]
        if len(chosen) >= s_s or len(idx) < target:
            continue
        room = s_s - len(chosen)
        # records closest to their pseudo-cluster centroid first
        d = np.sum((vecs[idx] - centroids[j]) ** 2, axis=1)
        pick = idx[np.argsort(d)][: min(target, room)]
        for i in pick:
            chosen.append(remaining[i])
            chosen_labels.append(j)
            taken[i] = True

    # Lines 18–21: top up minimising the variation increase
    while len(chosen) < s_s and not taken.all():
        open_idx = np.where(~taken)[0]
        best_i, best_var = None, np.inf
        for i in open_idx:
            trial = chosen_labels + [int(labels[i])]
            counts = np.bincount(np.asarray(trial))
            v = set_variation(counts[counts > 0])
            if v < best_var - 1e-12:
                best_var, best_i = v, int(i)
        assert best_i is not None
        chosen.append(remaining[best_i])
        chosen_labels.append(int(labels[best_i]))
        taken[best_i] = True

    rset = order_sequentially(chosen)  # Line 22
    rest = [r for i, r in enumerate(remaining) if not taken[i]]
    return rset, rest


def record_sets_for_block(
    block: list[Record], s_s: int = 9, s_d: int = 4, seed: int = 0
) -> list[list[Record]]:
    """Partition a block into record sets by repeated NRS calls."""
    sets = []
    remaining = list(block)
    guard = 0
    while remaining:
        rset, remaining = next_record_set(remaining, s_s, s_d, seed + guard)
        if not rset:
            break
        sets.append(rset)
        guard += 1
        if guard > len(block) + 1:  # safety: NRS must always make progress
            raise RuntimeError("NRS failed to shrink the block")
    return sets
