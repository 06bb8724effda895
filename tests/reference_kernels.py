"""The per-pair kernels as they were before their array rewrites, kept
as a test oracle.

``booster_er_block`` (with its ``_threshold_partition``), ``lsh_blocks``,
CMR's ``build_round_sets`` and CrowdER's ``build_hits`` are copied
here unchanged from the scalar versions: Booster draws its samples one
``integers`` call at a time and keeps the asked pairs in a set, LSH
groups each band in a dict, CMR recomputes every cosine it needs, and
CrowdER recounts every degree for each HIT. The fuzz tests in
``test_reference_kernels.py`` hold the rewritten code to them exactly.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.booster import (
    _BUDGET_PER_RECORD, _THRESHOLDS, _TOOL_NOISE,
)
from repro.blocking.lsh import (
    B_T, MAX_BLOCK_SIZE, N_BANDS, band_signatures, blocks_from_edges,
    purify_block, split_oversized,
)
from repro.core.cmr import MERGE_FLOOR, Item, compatible
from repro.core.records import Record
from repro.core.unionfind import UnionFind
from repro.embed.similarity import cosine, cosine_matrix
from repro.llm.simulated import SimulatedLLM


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


def lsh_blocks(records: list[Record], *, seed: int = 0) -> list[list[Record]]:
    """Full LSH blocking: band buckets → components → purify → split."""
    if not records:
        return []
    vecs = np.stack([r.vec for r in records])
    sigs = band_signatures(vecs, seed=seed)
    edges: list[tuple[int, int]] = []
    for b in range(N_BANDS):
        buckets: dict[int, list[int]] = {}
        for i in range(len(records)):
            buckets.setdefault(int(sigs[i, b]), []).append(i)
        for members in buckets.values():
            if len(members) < 2:
                continue
            # verify candidate pairs against b_t before linking — the
            # stochastic hash co-locates dissimilar records, and
            # unverified links percolate buckets into giant components
            sub = cosine_matrix(vecs[members])
            ii, kk = np.where(np.triu(sub, 1) >= B_T)
            edges.extend(
                (members[int(a)], members[int(c)]) for a, c in zip(ii, kk)
            )
    blocks: list[list[Record]] = []
    for blk in blocks_from_edges(records, edges):
        for part in split_oversized(blk, MAX_BLOCK_SIZE, seed):
            blocks.extend(purify_block(part, B_T))
    return blocks


def build_round_sets(
    items: list[Item],
    s_s: int = 9,
    *,
    strategy: str = "similarity",
    seed: int = 0,
) -> list[list[Item]]:
    """Pack items into the next round's record sets (Alg. 3 heuristic).

    Greedy chains: seed each set with an item that still has a similar
    unknown partner, then extend with the unassigned item most similar
    to the set's last element among those with an unknown relation to
    ≥1 current member. A set is emitted only if it holds ≥2 items.
    Returns [] when no mergeable pair remains — the pipeline's exit
    condition. ``strategy="random"`` (Appendix A.8 ablation) ignores
    similarity entirely, both for packing and for the floor.
    """
    if strategy not in ("similarity", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    g = np.random.default_rng(seed)
    unassigned = sorted(items, key=lambda it: it.iid)
    if strategy == "random":
        order = list(unassigned)
        g.shuffle(order)
        unassigned = order

    def _sim(a: Item, b: Item) -> float:
        return cosine(a.rep.vec, b.rep.vec)

    def _has_partner(it: Item, pool: list[Item]) -> bool:
        return any(
            o.iid != it.iid
            and o.iid not in it.anti
            and (strategy == "random" or _sim(it, o) >= MERGE_FLOOR)
            for o in pool
        )

    sets: list[list[Item]] = []
    while unassigned:
        seed_idx = next(
            (
                i
                for i, it in enumerate(unassigned)
                if _has_partner(it, unassigned)
            ),
            None,
        )
        if seed_idx is None:
            break
        cur_set = [unassigned.pop(seed_idx)]
        while len(cur_set) < s_s:
            cands = [
                (i, it)
                for i, it in enumerate(unassigned)
                if compatible(it, cur_set)
                and (
                    strategy == "random"
                    or max(_sim(it, m) for m in cur_set) >= MERGE_FLOOR
                )
            ]
            if not cands:
                break
            if strategy == "random":
                pick, _ = cands[int(g.integers(0, len(cands)))]
            else:
                last = cur_set[-1]
                pick = max(
                    cands,
                    key=lambda t: (_sim(t[1], last), -t[1].iid),
                )[0]
            cur_set.append(unassigned.pop(pick))
        if len(cur_set) >= 2:
            sets.append(cur_set)
        # a lone incompatible seed is simply dropped from this round
    return sets


def build_hits(
    block: list[Record],
    pairs: list[tuple[int, int]],
    s_s: int = 9,
) -> list[list[int]]:
    """Greedy set-cover HIT generation (CrowdER's cluster-based HITs).

    Repeatedly seed a HIT with the record incident to the most
    uncovered pairs, grow it along uncovered edges up to ``s_s``
    records, and mark every in-HIT pair covered. Records may appear in
    several HITs — the overlap CrowdER relies on for merging.
    """
    uncovered: set[tuple[int, int]] = set(pairs)
    adj: dict[int, set[int]] = {}
    for i, k in pairs:
        adj.setdefault(i, set()).add(k)
        adj.setdefault(k, set()).add(i)
    hits: list[list[int]] = []
    while uncovered:
        deg: dict[int, int] = {}
        for i, k in uncovered:
            deg[i] = deg.get(i, 0) + 1
            deg[k] = deg.get(k, 0) + 1
        seed = max(deg, key=lambda x: (deg[x], -x))
        hit = [seed]
        members = {seed}
        while len(hit) < s_s:
            # neighbour (via an uncovered pair) of any member, max degree
            cands = {
                nb
                for m in members
                for nb in adj.get(m, ())
                if nb not in members
                and any(
                    (min(m2, nb), max(m2, nb)) in uncovered for m2 in members
                )
            }
            if not cands:
                break
            nxt = max(cands, key=lambda x: (deg.get(x, 0), -x))
            hit.append(nxt)
            members.add(nxt)
        for a_i in range(len(hit)):
            for b_i in range(a_i + 1, len(hit)):
                uncovered.discard(
                    (min(hit[a_i], hit[b_i]), max(hit[a_i], hit[b_i]))
                )
        hits.append(hit)
    return hits
