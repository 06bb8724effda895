"""Pairwise LLM matching baseline (Ss = 2) with transitivity and
anti-transitivity, per §3.1 / Table 2.

Within a block, candidate pairs are asked in descending similarity
order (most-likely matches first, maximising the pairs that become
inferable by transitivity). A union-find tracks "same" components; a
component-level anti map tracks known-different components. A pair is
only sent to the LLM when neither rule decides it.

For the fair Table 2 comparison the paper applies a guardrail to
pairwise matching too: an answer contradicting strong similarity
evidence (declared same at a cosine below ``GUARD_LOW``, or declared
different above ``GUARD_HIGH``) is re-asked once.
"""
from __future__ import annotations

import numpy as np

from ..core.records import Record
from ..core.unionfind import UnionFind
from ..embed.similarity import cosine_matrix
from ..llm.simulated import SimulatedLLM

GUARD_LOW = 0.35
GUARD_HIGH = 0.55


class TransitiveState(UnionFind):
    """Union-find + anti-edges over record indices, with inference."""

    def __init__(self, n: int):
        super().__init__(range(n))
        self.anti: dict[int, set[int]] = {}

    def inferred(self, a: int, b: int) -> bool | None:
        """True=same / False=different if decidable, else None."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if rb in self.anti.get(ra, ()):
            return False
        return None

    def record_same(self, a: int, b: int) -> None:
        drop = self.union(a, b)
        if drop is None:
            return
        keep = self.parent[drop]
        merged = self.anti.pop(drop, set()) | self.anti.get(keep, set())
        if merged:
            self.anti[keep] = merged
            for other in merged:  # remap the back-references
                s = self.anti.get(other)
                if s is not None:
                    s.discard(drop)
                    s.add(keep)

    def record_different(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise ValueError("contradiction: same component marked different")
        self.anti.setdefault(ra, set()).add(rb)
        self.anti.setdefault(rb, set()).add(ra)

    def assignment(self, records: list[Record]) -> dict[int, int]:
        roots: dict[int, int] = {}
        out: dict[int, int] = {}
        for i, r in enumerate(records):
            root = self.find(i)
            out[r.rid] = roots.setdefault(root, len(roots))
        return out


def pairwise_er_block(
    block: list[Record],
    llm: SimulatedLLM,
    *,
    use_guardrail: bool = True,
) -> dict[int, int]:
    """Resolve one block by pairwise questioning; returns rid → label."""
    n = len(block)
    if n <= 1:
        return {r.rid: i for i, r in enumerate(block)}
    sims = cosine_matrix(np.stack([r.vec for r in block]))
    # pairs are asked in arbitrary order, as the paper's matching phase
    # does ("concludes when all record pairs are compared explicitly or
    # inferred"): components form late, so transitivity prunes far less
    # than an oracle ordering would — which is exactly why pairwise ER
    # needs 10–100× more calls than clustering in Table 2
    rng = np.random.default_rng(sum(r.rid for r in block) % (2**31))
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    rng.shuffle(pairs)
    state = TransitiveState(n)
    for i, k in pairs:
        if state.inferred(i, k) is not None:
            continue
        ans = llm.match_pair(block[i], block[k])
        if use_guardrail:
            s = sims[i, k]
            if (ans and s < GUARD_LOW) or (not ans and s > GUARD_HIGH):
                ans = llm.match_pair(block[i], block[k], salt=1)
        if ans:
            state.record_same(i, k)
        else:
            state.record_different(i, k)
    return state.assignment(block)
