"""Booster baseline [43]: LLM-guided selection among candidate partitions.

Booster does not build clusters itself — it generates several
candidate partitionings with traditional (blocking-style) techniques
and uses the LLM only to answer *discriminative* pairwise questions:
pairs on which the alive partitions disagree most. Each answer scores
the partitions; the highest-scoring partition is returned.

Consequences reproduced from Table 4: token usage is tiny (short
pairwise prompts, no clustering output), but quality is capped by the
best candidate partition — it cannot refine or correct any of them.
"""
from __future__ import annotations

import numpy as np

from ..core.records import Record
from ..core.unionfind import UnionFind
from ..embed.similarity import cosine_matrix
from ..llm.simulated import SimulatedLLM

#: similarity thresholds of the candidate partitionings
_THRESHOLDS = (0.2, 0.3, 0.4, 0.5, 0.6)
#: LLM questions per block record (at least 3 per block)
_BUDGET_PER_RECORD = 0.6

#: Booster's candidate partitionings come from *existing ER tools*
#: [43], which are imperfect; we model that by perturbing the
#: similarity graph each candidate is built from. Without this the
#: threshold-component partitions would be near-oracle on clean
#: datasets, which no blocking-based tool achieves.
_TOOL_NOISE = 0.16


def _threshold_partition(sims: np.ndarray, t: float) -> np.ndarray:
    """Connected components of the similarity graph at threshold t."""
    n = sims.shape[0]
    uf = UnionFind(range(n))
    for i, k in zip(*np.nonzero(np.triu(sims >= t, 1))):
        uf.union(int(i), int(k))
    label = {root: j for j, root in enumerate(uf.groups())}
    return np.array([label[uf.find(i)] for i in range(n)])


def booster_er_block(
    block: list[Record],
    llm: SimulatedLLM,
    *,
    seed: int = 0,
) -> dict[int, int]:
    """Pick the best candidate partition via discriminative pairs.

    Each question samples 64 pairs and asks the first, in sample order,
    on which the partitions disagree most (a pair already asked, or a
    record with itself, counts as no disagreement); it stops when no
    sample disagrees at all. All the samples are drawn in one call:
    a fresh PCG64 ``Generator`` gives ``integers(0, n, size=k)`` the
    same numbers as ``k`` scalar ``integers(0, n)`` calls (checked on
    NumPy 1.26.4, and guarded by a test), so this is the sequence a
    draw of two indices per sample would give.
    """
    n = len(block)
    if n <= 1:
        return {r.rid: i for i, r in enumerate(block)}
    sims = cosine_matrix(np.stack([r.vec for r in block]))
    g_tool = np.random.default_rng(seed * 13 + 5)
    parts = []
    for t in _THRESHOLDS:
        noisy = sims + g_tool.normal(0, _TOOL_NOISE, sims.shape)
        noisy = (noisy + noisy.T) / 2
        parts.append(_threshold_partition(noisy, t))
    # dedupe identical partitions
    uniq: list[np.ndarray] = []
    for p in parts:
        if not any(np.array_equal(p, q) for q in uniq):
            uniq.append(p)
    parts = np.stack(uniq)
    # same[p, i, k]: partition p puts records i and k together
    same = parts[:, :, None] == parts[:, None, :]
    agree = same.sum(axis=0)
    disagree = np.minimum(agree, len(parts) - agree)  # 0 on the diagonal
    scores = np.zeros(len(parts))
    budget = max(3, int(np.ceil(_BUDGET_PER_RECORD * n)))
    ik = np.random.default_rng(seed).integers(0, n, size=(budget, 64, 2))
    lo, hi = ik.min(axis=2), ik.max(axis=2)
    sampled = disagree[lo, hi]
    asked = np.zeros((n, n), dtype=bool)
    for q in range(budget):
        d = np.where(asked[lo[q], hi[q]], 0, sampled[q])
        s = int(np.argmax(d))  # the first of the most disagreed pairs
        if d[s] == 0:
            break
        a, b = int(lo[q, s]), int(hi[q, s])
        asked[a, b] = True
        ans = llm.match_pair(block[a], block[b])
        scores += same[:, a, b] == ans
    best = parts[int(np.argmax(scores))]
    return {r.rid: int(best[i]) for i, r in enumerate(block)}
