"""Hierarchical Cluster Merge — Algorithm 3 (CMR).

After each round of in-context clustering, every output cluster
becomes an :class:`Item` — a "new record" represented by the member
closest to the cluster's mean embedding (Alg. 3, lines 1–3). CMR packs
items into the next round's record sets so that

* items already known to be different entities (anti-transitivity:
  they came out of the same record set un-merged) are not wastefully
  re-packed together,
* each set chains most-similar items consecutively (lines 7–12), and
* set size stays within ``Ss``.

The ``random`` strategy (pack arbitrary compatible items) implements
the Appendix A.8 ablation baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..embed.similarity import cosine
from .records import Record
from .unionfind import UnionFind


@dataclass
class Item:
    """One current cluster, treated as a single record for merging."""

    iid: int
    members: list[Record]
    anti: set[int] = field(default_factory=set)  # known-different item ids
    rep: Record = field(init=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an Item needs at least one member record")
        self.rep = representative(self.members)


def representative(members: list[Record]) -> Record:
    """Member closest to the mean embedding (Alg. 3, line 3)."""
    if len(members) == 1:
        return members[0]
    mean = np.mean(np.stack([r.vec for r in members]), axis=0)
    return min(members, key=lambda r: (float(np.sum((r.vec - mean) ** 2)), r.rid))


def compatible(item: Item, others: list[Item]) -> bool:
    """True iff packing ``item`` with ``others`` can yield new knowledge:
    at least one pairwise relation is still unknown."""
    return any(o.iid not in item.anti for o in others)


#: minimum representative cosine similarity for two items to be worth
#: packing together; CMR packs "most similar clusters", so items with
#: no similar unknown partner are finalised instead of being re-packed
#: round after round (keeps the Table 3 level counts collapsing fast)
MERGE_FLOOR = 0.3


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

    # representatives are records, and a record's vector never changes,
    # so each pair's cosine is computed once per call (``cosine`` is
    # symmetric: its dot product and norm product commute exactly)
    sims: dict[tuple[int, int], float] = {}

    def _sim(a: Item, b: Item) -> float:
        ra, rb = a.rep, b.rep
        key = (ra.rid, rb.rid) if ra.rid < rb.rid else (rb.rid, ra.rid)
        if key not in sims:
            sims[key] = cosine(ra.vec, rb.vec)
        return sims[key]

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


def apply_merge_result(
    items: list[Item],
    round_sets: list[list[Item]],
    rep_clusterings: list[list[list[Record]]],
    next_iid: int,
) -> tuple[list[Item], int, int]:
    """Fold one round's LLM outputs back into items.

    Returns (new item list, number of merges performed, next free iid).
    Items whose representatives were co-clustered merge (transitivity);
    items co-packed but not co-clustered become mutually anti
    (anti-transitivity). Items not packed this round pass through
    (with their anti references remapped).
    """
    survivors = {it.iid: it for it in items}
    # union-find over item ids driven by the rep clusterings
    uf = UnionFind(survivors)
    n_merges = 0
    for rset, clustering in zip(round_sets, rep_clusterings):
        by_rep = {it.rep.rid: it for it in rset}
        cluster_of: dict[int, int] = {}
        for ci, cluster in enumerate(clustering):
            for rec in cluster:
                if rec.rid in by_rep:
                    cluster_of[by_rep[rec.rid].iid] = ci
        ids = [it.iid for it in rset]
        for i in range(len(ids)):
            for k in range(i + 1, len(ids)):
                a, b = ids[i], ids[k]
                if cluster_of.get(a, -1) == cluster_of.get(b, -2):
                    if uf.union(a, b) is not None:
                        n_merges += 1
                else:  # anti-transitivity: co-packed, not merged
                    survivors[a].anti.add(b)
                    survivors[b].anti.add(a)

    # rebuild the item list with merged groups collapsed
    groups = {
        root: [survivors[iid] for iid in iids]
        for root, iids in uf.groups().items()
    }
    old_to_new: dict[int, int] = {}
    new_items: list[Item] = []
    for root in sorted(groups):
        iid_new = next_iid
        next_iid += 1
        for it in groups[root]:
            old_to_new[it.iid] = iid_new
        merged = Item(
            iid=iid_new, members=[r for it in groups[root] for r in it.members]
        )
        merged.anti = {a for it in groups[root] for a in it.anti}
        new_items.append(merged)
    # remap anti references old→new ids; drop references to merged-away ids
    for it in new_items:
        it.anti = {old_to_new.get(a, a) for a in it.anti} - {it.iid}
    return new_items, n_merges, next_iid
