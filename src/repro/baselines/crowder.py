"""CrowdER+LLM baseline [77]: clustering HITs with overlap.

CrowdER generates record sets ("HITs") that together *cover every
uncertain pair* in a block, allowing records to repeat across sets;
cluster merging then happens indirectly through the overlapping
records via transitive closure. We keep that design but replace the
crowd with the same LLM clustering call our method uses (per §6.2.2),
same set size, same blocking.

Reproduced consequences (Table 4 + §2): covering all uncertain pairs
with overlapping sets needs 2–5× more sets (API calls) than our
hierarchical NRS/CMR construction, and the absence of any output
verification lets wrong merges propagate through the closure.
"""
from __future__ import annotations

import numpy as np

from ..core.records import Record
from ..embed.similarity import cosine_matrix
from ..llm.simulated import SimulatedLLM
from .pairwise import TransitiveState

#: cosine similarity above which a pair is uncertain and must be covered
UNCERTAIN_THRESHOLD = 0.25


def uncertain_pairs(
    block: list[Record], threshold: float = UNCERTAIN_THRESHOLD
) -> list[tuple[int, int]]:
    """Pairs a cheap similarity cannot rule out (must be covered)."""
    n = len(block)
    sims = cosine_matrix(np.stack([r.vec for r in block]))
    return [
        (i, k)
        for i in range(n)
        for k in range(i + 1, n)
        if sims[i, k] >= threshold
    ]


def build_hits(pairs: list[tuple[int, int]], s_s: int = 9) -> list[list[int]]:
    """Greedy set-cover HIT generation (CrowdER's cluster-based HITs).

    Repeatedly seed a HIT with the record incident to the most
    uncovered pairs, grow it along uncovered edges up to ``s_s``
    records, and mark every in-HIT pair covered. Records may appear in
    several HITs — the overlap CrowdER relies on for merging.
    """
    # uncov[x]: the records x shares a still-uncovered pair with; a
    # record's degree is the size of its set, which cannot change while
    # a HIT grows (pairs are covered only once the HIT is built)
    uncov: dict[int, set[int]] = {}
    for i, k in pairs:
        uncov.setdefault(i, set()).add(k)
        uncov.setdefault(k, set()).add(i)

    def _rank(x: int) -> tuple[int, int]:
        return len(uncov[x]), -x

    hits: list[list[int]] = []
    while live := [x for x, nbs in uncov.items() if nbs]:
        hit = [max(live, key=_rank)]
        # neighbours of any member via an uncovered pair
        cands = set(uncov[hit[0]])
        while len(hit) < s_s and cands:
            nxt = max(cands, key=_rank)
            hit.append(nxt)
            cands |= uncov[nxt]
            cands.difference_update(hit)
        for x in hit:
            uncov[x].difference_update(hit)
        hits.append(hit)
    return hits


def crowder_er_block(
    block: list[Record],
    llm: SimulatedLLM,
    *,
    s_s: int = 9,
) -> dict[int, int]:
    """CrowdER-style ER of one block with LLM clustering; rid → label."""
    n = len(block)
    if n <= 1:
        return {r.rid: i for i, r in enumerate(block)}
    pairs = uncertain_pairs(block)
    state = TransitiveState(n)
    if pairs:
        pos = {r.rid: i for i, r in enumerate(block)}
        for hit in build_hits(pairs, s_s):
            clusters = llm.cluster_records([block[i] for i in hit])
            for cluster in clusters:
                ids = [pos[r.rid] for r in cluster if r.rid in pos]
                for a_i in range(1, len(ids)):
                    # no verification: every co-clustering is accepted,
                    # and merging happens only via transitive closure
                    state.record_same(ids[0], ids[a_i])
    return state.assignment(block)
