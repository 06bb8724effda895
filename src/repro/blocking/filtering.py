"""Filtering-based block creation (§5.1): prefix-filtered Jaccard join.

A similarity join keeps record pairs with token-Jaccard ≥ ``b_t``.
Naively that is O(n²); prefix filtering [84] orders tokens by global
frequency (rare first) and only probes the inverted index with each
record's prefix — two records can only reach the threshold if they
share a prefix token. Verified matching pairs become edges; connected
components become blocks.

The paper tunes ``b_t`` per dataset on a labelled validation sample;
here it is the fixed constant ``B_T``.
"""
from __future__ import annotations

import math

from ..core.records import Record
from ..embed.similarity import jaccard
from .lsh import MAX_BLOCK_SIZE, blocks_from_edges, split_oversized

#: b_t: token-Jaccard a pair needs to be joined
B_T = 0.3


def prefix_length(n_tokens: int, threshold: float) -> int:
    """Prefix size |t| − ⌈b_t·|t|⌉ + 1 (0 for empty token sets)."""
    if n_tokens == 0:
        return 0
    return max(1, n_tokens - math.ceil(threshold * n_tokens) + 1)


def _ordered_tokens(records: list[Record]) -> dict[int, list[str]]:
    """Each record's tokens sorted by ascending global frequency."""
    freq: dict[str, int] = {}
    for r in records:
        for t in r.tokens:
            freq[t] = freq.get(t, 0) + 1
    return {
        r.rid: sorted(r.tokens, key=lambda t: (freq[t], t)) for r in records
    }


def candidate_pairs(
    records: list[Record], threshold: float
) -> set[tuple[int, int]]:
    """Positional-index pairs sharing a prefix token (by list position)."""
    ordered = _ordered_tokens(records)
    index: dict[str, list[int]] = {}
    cands: set[tuple[int, int]] = set()
    for i, r in enumerate(records):
        toks = ordered[r.rid]
        for t in toks[: prefix_length(len(toks), threshold)]:
            for j in index.get(t, ()):
                cands.add((j, i))
            index.setdefault(t, []).append(i)
    return cands


def filtering_blocks(records: list[Record]) -> list[list[Record]]:
    """Similarity-join blocking: verified Jaccard edges → components."""
    if not records:
        return []
    edges = [
        (i, j)
        for i, j in candidate_pairs(records, B_T)
        if jaccard(records[i].tokens, records[j].tokens) >= B_T
    ]
    blocks: list[list[Record]] = []
    for blk in blocks_from_edges(records, edges):
        blocks.extend(split_oversized(blk, MAX_BLOCK_SIZE))
    return blocks
