"""Locality-Sensitive-Hashing blocking (§5.1, the paper's default).

Random-hyperplane LSH over the hashing embeddings: each record gets
``N_BANDS`` signatures of ``BAND_BITS`` sign bits; records sharing any
band bucket are linked, and connected components become blocks (the
OR-over-bands construction gives high recall for similar pairs). The
stochastic hash can co-locate dissimilar records, so blocks are
*purified*: a member whose best cosine similarity to the rest of its
block is below ``B_T`` is evicted to a singleton block — mirroring the
paper's "retain only pairs with similarity exceeding a threshold b_t".

Blocks larger than ``MAX_BLOCK_SIZE`` (pathological near-duplicate
vocabularies) are split by k-means so downstream per-block work stays
bounded; every blocker shares that cap.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..core.nrs import kmeans
from ..core.records import Record
from ..core.unionfind import UnionFind
from ..embed.similarity import cosine_matrix

N_BANDS = 6
BAND_BITS = 5
#: b_t: cosine similarity a candidate pair needs to be linked, and a
#: block member needs to some peer to stay in its block
B_T = 0.35
MAX_BLOCK_SIZE = 200
#: records per unit of the "w/o blocking" baseline
CHUNK = 250


def band_signatures(
    vecs: np.ndarray,
    n_bands: int = N_BANDS,
    band_bits: int = BAND_BITS,
    seed: int = 0,
) -> np.ndarray:
    """(n, n_bands) integer band signatures from sign-of-projection bits."""
    g = np.random.default_rng(seed)
    n, dim = vecs.shape
    out = np.zeros((n, n_bands), dtype=np.int64)
    for b in range(n_bands):
        planes = g.normal(size=(band_bits, dim))
        bits = (vecs @ planes.T) > 0  # (n, band_bits)
        out[:, b] = bits @ (1 << np.arange(band_bits))
    return out


def blocks_from_edges(
    records: list[Record], edges: Iterable[tuple[int, int]]
) -> list[list[Record]]:
    """Connected components over positional edges → blocks."""
    uf = UnionFind(range(len(records)))
    for a, b in edges:
        uf.union(a, b)
    comps = [[records[i] for i in m] for m in uf.groups().values()]
    return sorted(comps, key=lambda b: min(r.rid for r in b))


def purify_block(
    block: list[Record], threshold: float
) -> list[list[Record]]:
    """Evict members with no sufficiently similar peer (threshold b_t)."""
    if len(block) <= 1:
        return [block]
    sims = cosine_matrix(np.stack([r.vec for r in block]))
    np.fill_diagonal(sims, -1.0)
    keep_mask = sims.max(axis=1) >= threshold
    kept = [r for r, k in zip(block, keep_mask) if k]
    evicted = [[r] for r, k in zip(block, keep_mask) if not k]
    return ([kept] if kept else []) + evicted


def split_oversized(
    block: list[Record], max_size: int, seed: int = 0
) -> list[list[Record]]:
    """k-means split of a block larger than ``max_size``."""
    if len(block) <= max_size:
        return [block]
    k = int(np.ceil(len(block) / (max_size // 2)))
    labels, _ = kmeans(np.stack([r.vec for r in block]), k, seed=seed)
    parts: dict[int, list[Record]] = {}
    for r, lab in zip(block, labels):
        parts.setdefault(int(lab), []).append(r)
    out: list[list[Record]] = []
    for p in parts.values():  # recurse in case a split part is still big
        if len(p) < len(block):
            out.extend(split_oversized(p, max_size, seed + 1))
        else:  # k-means failed to split (identical vectors): hard chop
            out.extend(
                [p[i : i + max_size] for i in range(0, len(p), max_size)]
            )
    return out


def lsh_blocks(records: list[Record], *, seed: int = 0) -> list[list[Record]]:
    """Full LSH blocking: band buckets → components → purify → split."""
    if not records:
        return []
    n = len(records)
    vecs = np.stack([r.vec for r in records])
    sigs = band_signatures(vecs, seed=seed)
    edge_keys: list[np.ndarray] = []  # verified edge (a, b), a < b: a * n + b
    for b in range(N_BANDS):
        # a stable sort keeps each bucket's members in ascending order
        order = np.argsort(sigs[:, b], kind="stable")
        col = sigs[order, b]
        starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        sizes = np.diff(np.r_[starts, n])
        shared = sizes >= 2
        for lo, size in zip(starts[shared].tolist(), sizes[shared].tolist()):
            members = order[lo : lo + size]
            # verify candidate pairs against b_t before linking — the
            # stochastic hash co-locates dissimilar records, and
            # unverified links percolate buckets into giant components
            sub = cosine_matrix(vecs[members])
            ii, kk = np.where(np.triu(sub, 1) >= B_T)
            edge_keys.append(members[ii] * n + members[kk])
    # the edges' order cannot change the blocks: the smaller root
    # survives each union, and blocks are sorted by their smallest rid
    keys = np.unique(np.concatenate(edge_keys or [np.zeros(0, np.int64)]))
    edges = zip((keys // n).tolist(), (keys % n).tolist())
    blocks: list[list[Record]] = []
    for blk in blocks_from_edges(records, edges):
        for part in split_oversized(blk, MAX_BLOCK_SIZE, seed):
            blocks.extend(purify_block(part, B_T))
    return blocks


def single_block(records: list[Record]) -> list[list[Record]]:
    """The "w/o blocking" baseline of Appendix A.3.

    No similarity information is used: records are processed in their
    arbitrary input order. Chunks of ``CHUNK`` records bound the
    per-unit work (NRS's k-means over tens of thousands of records at
    once would be intractable); because the chunking is
    similarity-blind, duplicates scatter across chunks — exactly the
    quality/cost penalty Table 14 attributes to skipping blocking.
    """
    return [
        records[i : i + CHUNK] for i in range(0, len(records), CHUNK)
    ]
