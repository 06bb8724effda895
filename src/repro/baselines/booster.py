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
    for i in range(n):
        for k in range(i + 1, n):
            if sims[i, k] >= t:
                uf.union(i, k)
    label = {root: j for j, root in enumerate(uf.groups())}
    return np.array([label[uf.find(i)] for i in range(n)])


def booster_er_block(
    block: list[Record],
    llm: SimulatedLLM,
    *,
    seed: int = 0,
) -> dict[int, int]:
    """Pick the best candidate partition via discriminative pairs."""
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
    parts = uniq
    scores = np.zeros(len(parts))
    budget = max(3, int(np.ceil(_BUDGET_PER_RECORD * n)))
    g = np.random.default_rng(seed)
    asked: set[tuple[int, int]] = set()
    for _ in range(budget):
        # next-question selection: the pair the partitions disagree on most
        best_pair, best_disagree = None, 0
        for _ in range(64):  # sampled search, enough for small blocks
            i, k = int(g.integers(0, n)), int(g.integers(0, n))
            if i == k:
                continue
            pair = (min(i, k), max(i, k))
            if pair in asked:
                continue
            votes = [p[pair[0]] == p[pair[1]] for p in parts]
            disagree = min(sum(votes), len(votes) - sum(votes))
            if disagree > best_disagree:
                best_disagree, best_pair = disagree, pair
        if best_pair is None or best_disagree == 0:
            break
        asked.add(best_pair)
        ans = llm.match_pair(block[best_pair[0]], block[best_pair[1]])
        for pi, p in enumerate(parts):
            if (p[best_pair[0]] == p[best_pair[1]]) == ans:
                scores[pi] += 1
    best = parts[int(np.argmax(scores))]
    return {r.rid: int(best[i]) for i, r in enumerate(block)}
