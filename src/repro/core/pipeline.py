"""End-to-end per-block LLM-CER — Algorithm 4.

One block (from :mod:`repro.blocking`) is resolved fully locally:

* **Level 0** — NRS (Alg. 1) partitions the block into record sets;
  each is in-context clustered by the LLM under the MDG guardrail
  (Alg. 2); every output cluster becomes an Item, and clusters born
  from the same record set are marked mutually anti (anti-transitive).
* **Levels 1+** — CMR (Alg. 3) packs items into new record sets, the
  LLM clusters their representative records, merges are applied, and
  un-merged co-packed items gain anti edges. A round is the last one
  when its merges number fewer than one in ten of its record sets
  (``n_merges * 10 < len(round_sets)``; the paper's exit condition: a
  round whose outputs are almost all singletons doubles as the batched
  "final check"). Rounds also end when CMR finds no similar pair of
  items with an unknown relation left to pack, or after ``_MAX_ROUNDS``.

The per-level record-set counts are recorded for Table 3.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cmr import Item, apply_merge_result, build_round_sets
from .mdg import cluster_batch_with_guardrail, cluster_with_guardrail
from .nrs import record_sets_for_block
from .records import Record

if TYPE_CHECKING:  # avoid a core<->llm import cycle at runtime
    from ..llm.simulated import SimulatedLLM

_MAX_ROUNDS = 40


@dataclass
class BlockResult:
    """Outcome of resolving one block."""

    assignment: dict[int, int]  # record_id -> local cluster label
    level_set_counts: list[int] = field(default_factory=list)


def resolve_block(
    block: list[Record],
    llm: "SimulatedLLM",
    *,
    s_s: int = 9,
    s_d: int = 4,
    use_mdg: bool = True,
    merge_strategy: str = "similarity",
    batch_size: int = 0,
    seed: int = 0,
) -> BlockResult:
    """Run Algorithm 4 on one block.

    ``batch_size > 0`` switches level-0 and merge rounds to batched
    clustering (several record sets per API call, Appendix A.10).
    ``use_mdg=False`` is the Table 8 ablation. ``merge_strategy`` may
    be ``"random"`` for the Appendix A.8 ablation.
    """
    if not block:
        return BlockResult(assignment={})
    if len(block) == 1:
        return BlockResult(assignment={block[0].rid: 0}, level_set_counts=[0])

    # ---- Level 0: NRS record sets + guarded in-context clustering
    level_counts: list[int] = []
    rsets = record_sets_for_block(block, s_s, s_d, seed=seed)
    level_counts.append(len(rsets))
    items: list[Item] = []
    next_iid = 0
    clusterings = _cluster_sets(llm, rsets, use_mdg, batch_size)
    for clusters in clusterings:
        born = []
        for c in clusters:
            items.append(Item(iid=next_iid, members=list(c)))
            born.append(next_iid)
            next_iid += 1
        for i in range(len(born)):  # same-set clusters are anti (different)
            for k in range(i + 1, len(born)):
                items[born[i]].anti.add(born[k])
                items[born[k]].anti.add(born[i])

    # ---- Levels 1+: hierarchical merging until knowledge is complete
    for rnd in range(_MAX_ROUNDS):
        round_sets = build_round_sets(
            items, s_s, strategy=merge_strategy, seed=seed + rnd + 1
        )
        if not round_sets:
            break
        level_counts.append(len(round_sets))
        rep_sets = [[it.rep for it in s] for s in round_sets]
        rep_clusterings = _cluster_sets(llm, rep_sets, use_mdg, batch_size)
        items, n_merges, next_iid = apply_merge_result(
            items, round_sets, rep_clusterings, next_iid
        )
        if n_merges * 10 < len(round_sets):
            # Exit condition (§5.4): a round whose outputs are (almost)
            # all singleton clusters doubles as the batched final
            # check, so stop rather than exhausting every remaining
            # unknown pair.
            break

    assignment = {
        r.rid: lab for lab, it in enumerate(items) for r in it.members
    }
    return BlockResult(assignment=assignment, level_set_counts=level_counts)


def number_labels(
    blocks: Iterable[Iterable[tuple[int, int]]],
) -> dict[int, int]:
    """rid → dense global label from each block's ``(rid, local label)``
    pairs, given in block order: each ``(block, local label)`` is
    numbered by its first appearance."""
    numbers: dict[tuple[int, int], int] = {}
    return {
        rid: numbers.setdefault((bi, lab), len(numbers))
        for bi, pairs in enumerate(blocks)
        for rid, lab in pairs
    }


def _cluster_sets(
    llm: "SimulatedLLM",
    rsets: list[list[Record]],
    use_mdg: bool,
    batch_size: int,
) -> list[list[list[Record]]]:
    """Cluster each record set, guarded; optionally batched calls."""
    if batch_size <= 1:
        return [
            cluster_with_guardrail(llm, rset, use_mdg=use_mdg)
            for rset in rsets
        ]
    return cluster_batch_with_guardrail(
        llm, rsets, use_mdg=use_mdg, batch_size=batch_size
    )
