"""Key-factor computations for record sets (§4.1–4.2).

Set size, set diversity, set variation (Eq. 1: coefficient of
variation of cluster sizes), and the sequential-ordering helper. These
are used both by NRS (over *pseudo*-labels from k-means — the pipeline
never sees ground truth) and by the sweep harness (over true labels,
to build controlled record sets like §4.2 does).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..embed.similarity import cosine_matrix
from .records import Record


def set_variation(cluster_sizes: Sequence[int]) -> float:
    """Eq. 1: sigma / mu of the cluster sizes in a set."""
    sizes = np.asarray(list(cluster_sizes), dtype=float)
    if sizes.size == 0 or sizes.mean() == 0:
        return 0.0
    return float(sizes.std() / sizes.mean())


def sequentiality(labels: Sequence[int]) -> float:
    """How sequentially same-cluster records are ordered, in [0, 1].

    1.0 = every cluster's records are contiguous; 0.0 = no two adjacent
    records share a cluster (when contiguity is achievable).
    """
    labels = list(labels)
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    achievable = int(np.sum(counts - 1))
    if achievable == 0:
        return 1.0
    achieved = sum(1 for i in range(len(labels) - 1) if labels[i] == labels[i + 1])
    return achieved / achievable


def order_sequentially(records: Sequence[Record]) -> list[Record]:
    """Greedy nearest-neighbour chain ordering (Alg. 1, lines 3–6).

    Start from the first record; repeatedly append the most similar
    (cosine) remaining record. Groups similar records consecutively,
    which §4.2 shows improves the LLM's in-context clustering.
    """
    recs = list(records)
    if len(recs) <= 2:
        return recs
    sims = cosine_matrix(np.stack([r.vec for r in recs]))
    remaining = set(range(1, len(recs)))
    order = [0]
    cur = 0
    while remaining:
        nxt = max(remaining, key=lambda j: (sims[cur, j], -recs[j].rid))
        order.append(nxt)
        remaining.discard(nxt)
        cur = nxt
    return [recs[i] for i in order]
