"""Next Record Set creation — Algorithm 1 (NRS).

Builds one record set from the remaining records of a block, honouring
the optimal key-factor configuration from §4.2: set size ``Ss``,
diversity ``Sd`` (via elbow-method k-means pseudo-clusters), minimal
set variation, and sequential ordering of similar records.

Only embeddings are used — no ground truth. k-means is a small local
NumPy implementation (blocks hold at most a few hundred records, and
sklearn is out of scope for the offline container).

k-means++ draws its centres one at a time from one RNG stream, so with
one seed the seeding for k is the first k centres of the seeding for
any larger k. The elbow therefore seeds once for ``k_max`` and runs
Lloyd from each prefix: its run at k equals ``kmeans(vecs, k, seed)``
exactly, and NRS reuses the labels of the k it picks.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .factors import order_sequentially, set_variation
from .records import Record

#: Lloyd iterations per k-means run (fewer if the labels settle)
KMEANS_ITERS = 20


def _seed_centres(vecs: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: ``k`` centres drawn one at a time from one
    RNG stream, each with probability proportional to its squared
    distance to the nearest centre drawn so far."""
    n = vecs.shape[0]
    g = np.random.default_rng(seed)
    idx = [int(g.integers(0, n))]
    d2 = None
    for _ in range(k - 1):
        d = np.sum((vecs - vecs[idx[-1]]) ** 2, axis=1)
        d2 = d if d2 is None else np.minimum(d2, d)
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        idx.append(int(g.choice(n, p=probs)))
    return vecs[idx]


def _lloyd(vecs: np.ndarray, centres: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm from the given centres → (labels, inertia)."""
    c = centres.copy()
    k = c.shape[0]
    labels = np.zeros(vecs.shape[0], dtype=int)
    for it in range(KMEANS_ITERS):
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            m = np.count_nonzero(mask)
            if m:  # the mean, without np.mean's per-call overhead
                c[j] = vecs[mask].sum(axis=0) / m
    inertia = float(((vecs - c[labels]) ** 2).sum())
    return labels, inertia


def kmeans(
    vecs: np.ndarray, k: int, seed: int = 0
) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++-style init → (labels, inertia)."""
    n = vecs.shape[0]
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return _lloyd(vecs, _seed_centres(vecs, k, seed))


def _kmeans_runs(
    vecs: np.ndarray, k_max: int, seed: int
) -> list[tuple[np.ndarray, float]]:
    """``kmeans(vecs, k, seed)`` for k = 1..k_max from one seeding."""
    centres = _seed_centres(vecs, k_max, seed)
    return [_lloyd(vecs, centres[:k]) for k in range(1, k_max + 1)]


def _elbow(vecs: np.ndarray, k_max: int, seed: int) -> tuple[int, np.ndarray]:
    """The k with the sharpest inertia-curve bend (``3 <= k_max <= n``)
    and the labels of that k's run."""
    runs = _kmeans_runs(vecs, k_max, seed)
    # second difference of the inertia curve; +1 because ks start at 1
    best_k, best_bend = 2, -np.inf
    for i in range(1, k_max - 1):
        bend = runs[i - 1][1] - 2 * runs[i][1] + runs[i + 1][1]
        if bend > best_bend:
            best_bend, best_k = bend, i + 1
    return best_k, runs[best_k - 1][0]


def elbow_k(vecs: np.ndarray, k_max: int = 8, seed: int = 0) -> int:
    """Elbow method: k with the sharpest inertia-curve bend."""
    n = vecs.shape[0]
    k_max = min(k_max, n)
    if k_max <= 2:
        return max(1, k_max)
    return _elbow(vecs, k_max, seed)[0]


@lru_cache(maxsize=4096)
def _variation(sizes: tuple[int, ...]) -> float:
    """``set_variation`` memoised: the top-up scores the same few
    pseudo-cluster size tuples over and over."""
    return set_variation(sizes)


def _top_up(
    labels: np.ndarray, taken: np.ndarray, chosen_labels: list[int], room: int
) -> list[int]:
    """Alg. 1 lines 18–21: up to ``room`` open indices, picked one at a
    time, each the open record whose pseudo-label least raises the set
    variation (Eq. 1) of the chosen labels.

    Every open record of one pseudo-cluster gives the same variation,
    so only the first open index of each label is scored; on a tie the
    lowest index wins.
    """
    taken = taken.copy()
    trial_labels = list(chosen_labels)
    picks: list[int] = []
    while len(picks) < room and not taken.all():
        open_idx = np.where(~taken)[0]
        _, first = np.unique(labels[open_idx], return_index=True)
        best_i, best_var = None, np.inf
        for i in open_idx[np.sort(first)]:
            counts = np.bincount(np.asarray(trial_labels + [int(labels[i])]))
            v = _variation(tuple(counts[counts > 0].tolist()))
            if v < best_var - 1e-12:
                best_var, best_i = v, int(i)
        assert best_i is not None
        picks.append(best_i)
        trial_labels.append(int(labels[best_i]))
        taken[best_i] = True
    return picks


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
    k, labels = _elbow(vecs, min(8, len(remaining)), seed)
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
    for i in _top_up(labels, taken, chosen_labels, s_s - len(chosen)):
        chosen.append(remaining[i])
        taken[i] = True

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
