"""Misclustering Detection Guardrail — Algorithm 2 (MDG) + regeneration.

Two layers of defence against LLM hallucination (§5.2):

1. **Structural check** — the output must contain exactly the input
   records, each once (catches dropped/duplicated records).
2. **Similarity check (Alg. 2)** — for every record, its intra-cluster
   similarity (min cosine to its own cluster) must not be lower than
   its inter-cluster similarity (max cosine to any other cluster);
   otherwise the record is flagged as misclustered.

**Record-set regeneration**: each misclustered record is relocated
immediately after the cluster it is most similar to, producing a more
sequentially-ordered prompt, and the set is re-clustered. The best
attempt (fewest violations) wins; if the model never returns a
structurally valid answer, we fall back to all-singletons, which is
safe because hierarchical merging can still unite true duplicates
later. One guard serves both one-set calls (``cluster_with_guardrail``)
and batched calls (``cluster_batch_with_guardrail``, Appendix A.10).
"""
from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ..embed.similarity import cosine_matrix
from .records import Record

if TYPE_CHECKING:  # avoid a core<->llm import cycle at runtime
    from ..llm.simulated import SimulatedLLM


def structurally_valid(
    input_records: list[Record], clusters: list[list[Record]]
) -> bool:
    """True iff the clustering is a partition of exactly the input set."""
    out_ids = [r.rid for c in clusters for r in c]
    return len(out_ids) == len(set(out_ids)) and set(out_ids) == {
        r.rid for r in input_records
    }


#: flag tolerance: on noisy data a correct clustering routinely has a
#: record marginally closer to a confusable foreign record; re-asking
#: for every such tie would blow the ~10% overhead budget of Table 8
DEFAULT_MARGIN = 0.05

#: absolute grounding floor: a record whose similarity to one of its
#: claimed cluster-mates is below this cannot plausibly be a duplicate
#: of it — catches hallucinated merge-everything outputs, which have
#: no "other cluster" for the relative rule to compare against
INTRA_FLOOR = 0.18


def _similarities(clusters: list[list[Record]]) -> np.ndarray:
    """Cosine matrix of the records of ``clusters``, cluster after
    cluster: the one both MDG steps index."""
    vecs = [r.vec for c in clusters for r in c]
    return cosine_matrix(np.stack(vecs)) if vecs else np.zeros((0, 0))


def misclustered(
    clusters: list[list[Record]], sims: np.ndarray | None = None
) -> list[Record]:
    """Alg. 2: records whose intra-cluster sim < inter-cluster sim
    (by more than ``DEFAULT_MARGIN``), plus records whose intra-cluster
    sim falls below the absolute grounding floor. ``sims`` is
    ``_similarities(clusters)``, computed here when not given."""
    flat = [r for c in clusters for r in c]
    if len(flat) < 2:
        return []
    if sims is None:
        sims = _similarities(clusters)
    pos = {r.rid: i for i, r in enumerate(flat)}
    bad: list[Record] = []
    for c in clusters:
        others = [r for oc in clusters if oc is not c for r in oc]
        for r in c:
            i = pos[r.rid]
            mates = [pos[m.rid] for m in c if m.rid != r.rid]
            intra = min(sims[i, j] for j in mates) if mates else None
            if intra is None:
                continue
            if intra < INTRA_FLOOR:
                bad.append(r)
                continue
            if others:
                inter = max(sims[i, pos[o.rid]] for o in others)
                if intra < inter - DEFAULT_MARGIN:
                    bad.append(r)
    return bad


def regenerate_order(
    clusters: list[list[Record]],
    bad: list[Record],
    sims: np.ndarray | None = None,
) -> list[Record]:
    """Record-set regeneration (§5.2): move each misclustered record to
    sit immediately after its most similar *other* cluster. ``sims`` is
    ``_similarities(clusters)``, computed here when not given."""
    flat = [r for c in clusters for r in c]
    if sims is None:
        sims = _similarities(clusters)
    pos = {r.rid: i for i, r in enumerate(flat)}
    bad_ids = {r.rid for r in bad}

    # order = clusters in sequence, misclustered records removed ...
    order: list[list[Record]] = [
        [r for r in c if r.rid not in bad_ids] for c in clusters
    ]
    # ... then each bad record appended to its best-matching cluster
    for r in bad:
        best_ci, best_sim = 0, -np.inf
        for ci, c in enumerate(clusters):
            if any(m.rid == r.rid for m in c):
                continue  # "other clusters" only
            members = [m for m in order[ci] if m.rid != r.rid]
            if not members:
                continue
            s = max(sims[pos[r.rid], pos[m.rid]] for m in members)
            if s > best_sim:
                best_sim, best_ci = s, ci
        order[best_ci].append(r)
    return [r for c in order for r in c]


#: LLM answers MDG asks for per record set: the first answer plus one
#: regenerated (or, after a structural reject, fresh) re-ask
ATTEMPTS = 2


class _Guard:
    """MDG state of one record set across its attempts."""

    def __init__(self, records: list[Record], use_mdg: bool):
        self.records = records
        self.use_mdg = use_mdg
        self.order = list(records)  # the next prompt's record order
        # all singletons stand unless an attempt is structurally valid
        self.best = [[r] for r in records]
        self.best_violations = np.inf
        self.done = False

    def offer(self, clusters: list[list[Record]]) -> None:
        """Judge one answer to ``self.order``.

        Without MDG (ablation mode, Table 8) the first answer is taken
        as-is; a structurally broken one is repaired by dropping
        duplicates / restoring dropped records as singletons, because
        downstream code requires a partition.
        """
        if not structurally_valid(self.records, clusters):
            if not self.use_mdg:
                self.best, self.done = _repair(self.records, clusters), True
            return  # with MDG: a fresh draw next attempt
        if not self.use_mdg:
            self.best, self.done = clusters, True
            return
        # one similarity matrix judges the answer and, if it is
        # rejected, orders the next prompt
        sims = _similarities(clusters)
        bad = misclustered(clusters, sims)
        if len(bad) < self.best_violations:
            self.best, self.best_violations = clusters, len(bad)
        if bad:
            self.order = regenerate_order(clusters, bad, sims)
        else:
            self.done = True


def cluster_with_guardrail(
    llm: "SimulatedLLM", records: list[Record], *, use_mdg: bool = True
) -> list[list[Record]]:
    """In-context clustering of one record set, guarded by MDG."""
    guard = _Guard(records, use_mdg)
    for attempt in range(ATTEMPTS):
        guard.offer(llm.cluster_records(guard.order, salt=attempt))
        if guard.done:
            break
    return guard.best


def cluster_batch_with_guardrail(
    llm: "SimulatedLLM",
    rsets: list[list[Record]],
    *,
    use_mdg: bool,
    batch_size: int,
) -> list[list[list[Record]]]:
    """MDG-guarded clustering of many record sets, ``batch_size`` sets
    per API call (Appendix A.10).

    MDG-rejected sets are re-asked in *batches* as well — the whole
    point of Appendix A.10 is that retries must not fall back to one
    call per set, or the batching saving evaporates.
    """
    guards = [_Guard(rset, use_mdg) for rset in rsets]
    pending = guards
    for attempt in range(ATTEMPTS):
        for b0 in range(0, len(pending), batch_size):
            chunk = pending[b0 : b0 + batch_size]
            answers = llm.cluster_batch(
                [g.order for g in chunk], salt=attempt * 10_000 + b0
            )
            for guard, clusters in zip(chunk, answers):
                guard.offer(clusters)
        pending = [g for g in pending if not g.done]
        if not pending:
            break
    return [g.best for g in guards]


def _repair(
    records: list[Record], clusters: list[list[Record]]
) -> list[list[Record]]:
    """Force a broken answer into a partition (no-MDG mode only)."""
    seen: set[int] = set()
    out: list[list[Record]] = []
    for c in clusters:
        kept = [r for r in c if r.rid not in seen]
        seen.update(r.rid for r in kept)
        if kept:
            out.append(kept)
    for r in records:
        if r.rid not in seen:
            out.append([r])
            seen.add(r.rid)
    return out
