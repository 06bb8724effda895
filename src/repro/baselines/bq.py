"""BQ baseline [26]: batched pairwise questioning with few-shot demos.

Multiple pairwise questions are packed per prompt (``PAIRS_PER_CALL``
= 5 pairs ≈ 10 records, matching the paper's workload comparison
against our 9-record clustering prompts) together with ``N_DEMOS`` = 8
demonstrations, which dominate the token bill. Transitivity /
anti-transitivity pruning is applied between waves, but there is no
verification of answers — a wrong "same" merges two entities
irreversibly, which is why BQ has the weakest quality in Table 4
despite its extra supervision.
"""
from __future__ import annotations

import numpy as np

from ..core.records import Record
from ..llm.simulated import SimulatedLLM
from .pairwise import TransitiveState

#: AMT-style labelling cost per demonstration pair (paper §1: USD 0.08)
ANNOTATION_COST_PER_DEMO = 0.08
N_DEMOS = 8
PAIRS_PER_CALL = 5


def bq_er_block(block: list[Record], llm: SimulatedLLM) -> dict[int, int]:
    """Resolve one block via batched pairwise matching; rid → label."""
    n = len(block)
    if n <= 1:
        return {r.rid: i for i, r in enumerate(block)}
    # BQ performs exhaustive pairwise matching within the block; its
    # batches pack *diverse* questions (per [26]'s demonstration-driven
    # batching), so unlike our pairwise baseline the ask order is not
    # similarity-sorted — fewer pairs become inferable early, which is
    # one reason BQ needs 2–5× more calls (Table 4)
    rng = np.random.default_rng(sum(r.rid for r in block) % (2**31))
    order = [(i, k) for i in range(n) for k in range(i + 1, n)]
    rng.shuffle(order)
    state = TransitiveState(n)
    cursor = 0
    while cursor < len(order):
        wave: list[tuple[int, int]] = []
        while cursor < len(order) and len(wave) < PAIRS_PER_CALL:
            i, k = order[cursor]
            cursor += 1
            if state.inferred(i, k) is None:
                wave.append((i, k))
        if not wave:
            continue
        answers = llm.match_pairs_batched(
            [(block[i], block[k]) for i, k in wave],
            pairs_per_call=PAIRS_PER_CALL,
            demos=N_DEMOS,
        )
        for (i, k), ans in zip(wave, answers):
            # answers within one batch may become contradictory after
            # earlier ones are applied; later ones are then dropped,
            # exactly like transitivity post-processing would
            known = state.inferred(i, k)
            if known is not None:
                continue
            if ans:
                state.record_same(i, k)
            else:
                state.record_different(i, k)
    return state.assignment(block)


def annotation_cost() -> float:
    """One-off labelling cost for the few-shot demonstrations."""
    return N_DEMOS * ANNOTATION_COST_PER_DEMO
