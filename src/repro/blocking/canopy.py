"""Canopy blocking [50] (§5.1).

Two thresholds ``B_S ≥ M_S`` over a *cheap* similarity (token Jaccard
over each record's ``CHEAP_TOKENS`` alphabetically smallest tokens — a
cheap stand-in for the paper's single-attribute inverted index) build
overlapping canopies; inside each canopy a *refined* metric (full
token Jaccard ≥ ``REFINE_THRESHOLD``) links pairs, and matching pairs
merge blocks transitively until convergence.

The cheap metric looks at less evidence than LSH's embeddings, which
is why canopy lands between "no blocking" and LSH in Appendix A.3's
Table 14.
"""
from __future__ import annotations

from ..core.records import Record
from ..embed.similarity import jaccard
from .lsh import MAX_BLOCK_SIZE, blocks_from_edges, split_oversized

#: tight threshold: same block, removed from the canopy pool
B_S = 0.5
#: loose threshold: joins the canopy (B_S >= M_S)
M_S = 0.3
REFINE_THRESHOLD = 0.4
CHEAP_TOKENS = 4


def cheap_tokens(r: Record) -> frozenset[str]:
    """The record's ``CHEAP_TOKENS`` alphabetically smallest tokens, the
    token subset the inexpensive metric compares."""
    return frozenset(sorted(r.tokens)[:CHEAP_TOKENS])


def canopy_blocks(records: list[Record]) -> list[list[Record]]:
    """McCallum-style canopies + refined transitive merging."""
    if not records:
        return []
    cheap = {r.rid: cheap_tokens(r) for r in records}
    unassigned = list(range(len(records)))
    canopies: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    while unassigned:
        center = unassigned[0]
        canopy = [center]
        removed = {center}
        for i in unassigned[1:]:
            s = jaccard(cheap[records[center].rid], cheap[records[i].rid])
            if s > M_S:
                canopy.append(i)
            if s > B_S:
                removed.add(i)
                edges.append((center, i))
        canopies.append(canopy)
        unassigned = [i for i in unassigned if i not in removed]
    # refined metric inside each canopy links blocks transitively
    for canopy in canopies:
        for a in range(len(canopy)):
            for b in range(a + 1, len(canopy)):
                i, k = canopy[a], canopy[b]
                if jaccard(records[i].tokens, records[k].tokens) >= REFINE_THRESHOLD:
                    edges.append((i, k))
    blocks: list[list[Record]] = []
    for blk in blocks_from_edges(records, edges):
        blocks.extend(split_oversized(blk, MAX_BLOCK_SIZE))
    return blocks
