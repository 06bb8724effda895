"""Union-find (disjoint sets) over integer keys.

The one closure used across the pipeline: transitivity in pairwise
matching and BQ/CrowdER (§3.1), merging co-clustered representatives in
CMR (Alg. 3), and connected components of verified LSH edges (§5.1).

The smaller root always survives a union, so every component's root is
its minimum key. Callers' output orderings depend on that rule: blocks
sorted by their smallest rid, first-appearance labels, and CMR's
``sorted(groups)``.
"""
from __future__ import annotations

from collections.abc import Iterable


class UnionFind:
    """Disjoint sets over integer keys, with path halving."""

    def __init__(self, keys: Iterable[int]):
        self.parent: dict[int, int] = {k: k for k in keys}

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int | None:
        """Join the sets of ``a`` and ``b``; the smaller root survives.

        Returns the dropped root, or ``None`` if they were already one set.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        keep, drop = min(ra, rb), max(ra, rb)
        self.parent[drop] = keep
        return drop

    def groups(self) -> dict[int, list[int]]:
        """Root → members in key insertion order; a group's position is
        that of its first-inserted member."""
        out: dict[int, list[int]] = {}
        for k in self.parent:
            out.setdefault(self.find(k), []).append(k)
        return out
