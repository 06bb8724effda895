"""Simulated LLM oracle for in-context clustering and pairwise ER.

The container has no network, so the paper's GPT-4o-mini / Llama calls
are replaced by a deterministic oracle with a *mechanistic* error
model. The oracle holds the ground-truth entity map (it plays the role
of the model's world knowledge); pipeline code never sees it.

How a clustering call works
---------------------------
1. Compute a set-level penalty from exactly the key factors the paper
   studies in §4.2: set size beyond the (ambiguity-shifted) capacity,
   set variation (Eq. 1 over the true cluster sizes in the set), set
   diversity distance from the profile optimum, and how sequentially
   the same-entity records are ordered.
2. For every record pair in the set, flip the true same/different
   judgment with probability
   ``(base + w·ambiguity²) · (1 + set_penalty) · context_discount``,
   where ambiguity is token-Jaccard-based (similar non-duplicates and
   dissimilar duplicates are the error-prone pairs), the set penalty
   scales with the §4.2 factors, and the context discount models the
   information-density benefit of clustering more records at once.
   Large homogeneous groups additionally suffer correlated sub-splits
   (transitive closure makes them immune to independent pair errors).
3. Take the transitive closure of the sampled "same" judgments — this
   is how LLM outputs merge records, and how one early wrong "same"
   judgment snowballs (the failure mode MDG exists to catch).
4. With probability ``hallucination_rate``, corrupt the output
   structurally (drop / duplicate a record, or emit a garbled
   partition) — mimicking the paper's §1 challenge (2).

All randomness is seeded from the call's record-id *sequence* (plus a
salt): the model runs at temperature 0, so identical prompts give
identical answers (the stability property of Appendix A.6) while
re-ordered or regenerated prompts are fresh draws.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.factors import sequentiality, set_variation
from ..core.records import Record
from ..core.unionfind import UnionFind
from ..embed.hashing import _fnv1a
from ..embed.similarity import jaccard
from .accounting import Ledger
from .profiles import GPT_4O_MINI, LLMProfile

_PROMPT_OVERHEAD = 60
_PAIR_PROMPT_OVERHEAD = 85
_FEW_SHOT_TOKENS = 85
_DEMO_TOKENS = 110


def _stable_seed(*parts: object) -> int:
    """FNV-1a over the repr of the parts — stable across processes."""
    return _fnv1a("".join(map(repr, parts))) & 0x7FFFFFFF


def pair_ambiguity(a: Record, b: Record, same: bool) -> float:
    """How error-prone a pair is: dissimilar dupes / similar non-dupes."""
    j = jaccard(a.tokens, b.tokens)
    return (1.0 - j) if same else j


class SimulatedLLM:
    """One model instance: error model + accounting ledger."""

    def __init__(
        self,
        truth: dict[int, int],
        profile: LLMProfile = GPT_4O_MINI,
        *,
        seed: int = 0,
        few_shot: int = 0,
    ):
        self.truth = truth
        self.profile = profile
        self.seed = seed
        self.few_shot = few_shot
        self.ledger = Ledger(profile)

    # ------------------------------------------------------------------ util

    def _same(self, a: Record, b: Record) -> bool:
        return self.truth[a.rid] == self.truth[b.rid]

    def _rng(self, ids: Sequence[int], salt: int) -> np.random.Generator:
        # the trailing 0 is part of every seed: dropping it would change
        # every draw
        return np.random.default_rng(
            _stable_seed(self.profile.name, self.seed, tuple(ids), salt, 0)
        )

    def _few_shot_factor(self) -> float:
        """Multiplier (<1 helps) on error probs from few-shot demos.

        Gains saturate around 4–6 examples and degrade slightly beyond
        (Appendix A.7, Figure 10). The demos are hard examples, which help
        more than random ones: the gain carries a 1.2 factor.
        """
        if self.few_shot <= 0:
            return 1.0
        gain = self.profile.few_shot_gain * min(self.few_shot, 6) / 6.0 * 1.2
        overload = max(0, self.few_shot - 6) * 0.03
        return float(np.clip(1.0 - gain + overload, 0.3, 1.2))

    def effective_capacity(self, records: Sequence[Record]) -> int:
        """Nominal capacity shifted by data difficulty and record length.

        Two mechanisms, matching the paper's Table 5 observations:
        noisy duplicates (high same-entity pair ambiguity, the
        Walmart-Amazon pathology) *reduce* how many records the model
        reliably co-clusters, while very short records (e.g. after
        pruning the textual attributes) occupy little context and
        *raise* the workable set size.
        """
        p = self.profile
        same_ambs = []
        for i in range(len(records)):
            for k in range(i + 1, len(records)):
                a, b = records[i], records[k]
                if self._same(a, b):
                    same_ambs.append(pair_ambiguity(a, b, True))
        same_amb = float(np.mean(same_ambs)) if same_ambs else p.cap_amb_ref
        shift = (p.cap_amb_ref - same_amb) * p.cap_amb_slope
        shift = min(shift, 0.0)  # noise only ever lowers the capacity
        mean_tokens = float(
            np.mean([r.n_tokens_llm for r in records])
        ) if records else 30.0
        # short records free up context: up to +4 set-size headroom
        shift += 4.0 * max(0.0, (30.0 - mean_tokens) / 30.0)
        return int(np.clip(round(p.capacity + shift), 4, 13))

    def _set_penalty(self, records: Sequence[Record], cap: int) -> float:
        """Aggregate penalty from the §4.2 key factors for this set."""
        p = self.profile
        ent = [self.truth[r.rid] for r in records]
        sizes = np.unique(ent, return_counts=True)[1]
        pen = (
            p.size_penalty * max(0, len(records) - cap)
            + p.variation_penalty * set_variation(sizes)
            + p.diversity_penalty * abs(len(sizes) - p.diversity_opt)
            + p.ordering_penalty * (1.0 - sequentiality(ent))
        )
        return float(pen)

    def _context_discount(self, n: int, cap: int) -> float:
        """Per-pair error discount from richer in-prompt context.

        Clustering a larger set gives the model more comparative
        evidence per judgment (the paper's information-density
        argument), which is why per-set quality stays flat up to the
        capacity instead of degrading with the pair count.
        """
        n_eff = min(n, cap)
        if n_eff <= 2:
            return 1.0
        return float((1.0 / (n_eff - 1)) ** self.profile.context_gain)

    def _pair_error(
        self, a: Record, b: Record, pen_scale: float, discount: float,
        few_shot: float,
    ) -> float:
        """Per-pair flip probability: ambiguity-driven error amplified
        multiplicatively by the set-level penalty scale, discounted by
        in-prompt context and scaled by ``_few_shot_factor()`` (passed
        in, so a set's pairs compute it once)."""
        p = self.profile
        amb = pair_ambiguity(a, b, self._same(a, b))
        err = (p.base_error + p.ambiguity_weight * amb * amb) * (1.0 + pen_scale)
        return min(max(err * discount * few_shot, 0.0), 0.45)

    # ------------------------------------------------------- clustering call

    #: probability per extra member that the model coherently splits a
    #: large homogeneous group in two — pairwise-independent errors
    #: cannot hurt big clusters (transitive closure repairs any single
    #: wrong edge), but the paper observes that low-diversity sets with
    #: large same-entity groups DO underperform ("overly homogeneous
    #: clusters fail to capture subtle differences"), so the failure is
    #: modelled as a correlated sub-split event
    _HOMOGENEITY_SPLIT = 0.28

    def _answer(
        self, records: Sequence[Record], salt: int, factor: float = 1.0
    ) -> list[list[Record]]:
        """The model's answer for one record set (steps 1–4 of the
        module docstring); ``factor`` scales the set penalty (batching,
        Appendix A.10)."""
        n = len(records)
        rng = self._rng([r.rid for r in records], salt)
        cap = self.effective_capacity(records)
        pen = self._set_penalty(records, cap) * factor
        pen += max(0.0, factor - 1.0) * 0.05
        discount = self._context_discount(n, cap)
        few_shot = self._few_shot_factor()
        # coherent splits of large homogeneous groups: perturb the
        # oracle's own view of the entities for this call
        eff_truth = {r.rid: self.truth[r.rid] for r in records}
        by_ent: dict[int, list[Record]] = {}
        for r in records:
            by_ent.setdefault(self.truth[r.rid], []).append(r)
        pseudo = -1
        for members in by_ent.values():
            if len(members) >= 4:
                q = min(0.5, self._HOMOGENEITY_SPLIT * (len(members) - 3))
                if rng.random() < q:
                    cut = int(rng.integers(1, len(members)))
                    for r in members[cut:]:
                        eff_truth[r.rid] = pseudo
                    pseudo -= 1
        uf = UnionFind(range(n))
        for i in range(n):
            for k in range(i + 1, n):
                a, b = records[i], records[k]
                err = self._pair_error(a, b, pen, discount, few_shot)
                same_seen = eff_truth[a.rid] == eff_truth[b.rid]
                judged_same = same_seen ^ (rng.random() < err)
                if judged_same:
                    uf.union(i, k)
        groups = [[records[i] for i in m] for m in uf.groups().values()]
        clusters = sorted(groups, key=lambda c: min(r.rid for r in c))
        if rng.random() < self.profile.hallucination_rate and n > 2:
            clusters = self._hallucinate(clusters, rng)
        return clusters

    def _hallucinate(
        self, clusters: list[list[Record]], rng: np.random.Generator
    ) -> list[list[Record]]:
        """Structurally corrupt an output clustering."""
        flat = [r for c in clusters for r in c]
        # drop / duplicate / garble with weights 25/25/50 — garbled
        # partitions (ungrounded merges) are the dominant observed mode
        u = rng.random()
        mode = 0 if u < 0.25 else (1 if u < 0.5 else 2)
        if mode == 0 and len(flat) > 1:  # drop a record
            drop = flat[int(rng.integers(0, len(flat)))]
            out = [[r for r in c if r is not drop] for c in clusters]
            return [c for c in out if c]
        if mode == 1 and len(clusters) > 1:  # duplicate a record elsewhere
            src = clusters[int(rng.integers(0, len(clusters)))]
            dst_i = int(rng.integers(0, len(clusters)))
            dup = src[int(rng.integers(0, len(src)))]
            out = [list(c) for c in clusters]
            if dup not in out[dst_i]:
                out[dst_i].append(dup)
            return out
        # garbled partition: the model collapses the set into one
        # ungrounded group — maximal wrong-merge damage, which then
        # cascades through hierarchical merging if left uncaught
        return [flat]

    def _cluster_tokens(self, records: Sequence[Record]) -> tuple[int, int]:
        tin = (
            _PROMPT_OVERHEAD
            + sum(r.n_tokens_llm for r in records)
            + self.few_shot * _FEW_SHOT_TOKENS
        )
        tout = 4 + 3 * len(records)
        return tin, tout

    @staticmethod
    def _check_distinct(records: Sequence[Record]) -> None:
        if len({r.rid for r in records}) != len(records):
            raise ValueError("duplicate records in a record set")

    def cluster_records(
        self, records: Sequence[Record], *, salt: int = 0
    ) -> list[list[Record]]:
        """One in-context clustering API call over a record set."""
        if not records:
            return []
        self._check_distinct(records)
        self.ledger.add_call(*self._cluster_tokens(records))
        return self._answer(records, salt)

    def cluster_batch(
        self, sets: Sequence[Sequence[Record]], *, salt: int = 0
    ) -> list[list[list[Record]]]:
        """Batch several record sets into ONE API call (Appendix A.10).

        Small batches (≤4) slightly improve quality (the model reuses
        its earlier in-prompt decisions); larger batches degrade it
        (context overload, Figure 12).
        """
        if not sets:
            return []
        tin = _PROMPT_OVERHEAD + self.few_shot * _FEW_SHOT_TOKENS
        tout = 0
        for s in sets:
            self._check_distinct(s)
            tin += 12 + sum(r.n_tokens_llm for r in s)
            tout += 4 + 3 * len(s)
        self.ledger.add_call(tin, tout)
        b = len(sets)
        factor = 0.90 if 2 <= b <= 4 else (1.0 + 0.05 * max(0, b - 4))
        return [
            self._answer(s, salt * 1000 + idx, factor)
            for idx, s in enumerate(sets)
        ]

    # --------------------------------------------------------- pairwise call

    def match_pair(self, a: Record, b: Record, *, salt: int = 0) -> bool:
        """One pairwise 'same entity?' API call (Figure 2 prompt)."""
        self.ledger.add_call(
            _PAIR_PROMPT_OVERHEAD
            + a.n_tokens_llm
            + b.n_tokens_llm
            + self.few_shot * _FEW_SHOT_TOKENS,
            8,
        )
        rng = self._rng([a.rid, b.rid], salt)
        err = self._pair_error(a, b, 0.0, 1.0, self._few_shot_factor())
        ans = self._same(a, b) ^ (rng.random() < err)
        if rng.random() < self.profile.hallucination_rate * 0.1:
            ans = not ans  # single-question prompts rarely hallucinate
        return bool(ans)

    def match_pairs_batched(
        self,
        pairs: Sequence[tuple[Record, Record]],
        *,
        pairs_per_call: int = 5,
        demos: int = 8,
    ) -> list[bool]:
        """BQ-style batched pairwise questioning [26].

        ``demos`` few-shot demonstrations per prompt improve per-pair
        accuracy a little but dominate the token bill — which is why BQ
        is the most expensive method in Table 4.
        """
        if pairs_per_call < 1:
            raise ValueError("pairs_per_call must be >= 1")
        answers: list[bool] = []
        # demos sharpen individual judgments a little...
        demo_gain = 0.4 * self.profile.few_shot_gain * min(demos, 8) / 8.0
        few_shot = self._few_shot_factor()
        for c0 in range(0, len(pairs), pairs_per_call):
            chunk = list(pairs[c0 : c0 + pairs_per_call])
            tin = _PROMPT_OVERHEAD + demos * _DEMO_TOKENS
            for a, b in chunk:
                tin += a.n_tokens_llm + b.n_tokens_llm + 8
            self.ledger.add_call(tin, 6 * len(chunk))
            n_rec = 2 * len(chunk)
            ctx_pen = self.profile.size_penalty * 0.3 * max(
                0, n_rec - self.profile.capacity
            )
            prev_ans: bool | None = None
            for q_pos, (a, b) in enumerate(chunk):
                # salt 7 keeps these draws apart from match_pair's
                rng = self._rng([a.rid, b.rid], 7)
                err = self._pair_error(a, b, ctx_pen, 1.0, few_shot)
                err *= 1.0 - demo_gain
                ans = self._same(a, b) ^ (rng.random() < err)
                # ...but cross-question interference in a shared prompt
                # corrupts answers in ways a single-pair prompt cannot:
                # the model occasionally answers question q with the
                # verdict of question q-1 (index confusion), and BQ has
                # no verification layer to catch it (the Table 4
                # failure mode: unrepaired wrong merges)
                if prev_ans is not None and rng.random() < 0.15:
                    ans = prev_ans
                elif rng.random() < 0.12:
                    ans = rng.random() < 0.7  # confidently wrong, skewed
                prev_ans = ans
                answers.append(bool(ans))
        return answers
