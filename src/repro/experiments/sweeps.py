"""Key-factor sweep machinery (§4.2, Tables 5 & 9).

Controlled record sets are sampled from a dataset at fixed set size and
diversity, with balanced cluster sizes (at most one apart) and each
entity's records kept together (sequential order), clustered *raw* by
the LLM (no guardrail — §4.2 measures the model itself), and scored
per set against the restricted ground truth. ``optimal_factors`` then
picks the configuration the paper's procedure would: the largest set
size whose FP-measure is within ``TOLERANCE`` of the best (maximising
size minimises API calls), and the best diversity at that size.
"""
from __future__ import annotations

import numpy as np

from ..core.mdg import structurally_valid
from ..core.metrics import all_metrics, clusters_to_assignment
from ..core.records import Record
from ..llm.profiles import LLMProfile
from ..llm.simulated import SimulatedLLM

#: the set sizes and diversities ``optimal_factors`` sweeps
S_S_GRID = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
S_D_GRID = (2, 3, 4, 5)
#: sampled record sets per (Ss, Sd) configuration
N_QUESTIONS = 60
#: FP-measure slack within which a larger set size wins
TOLERANCE = 0.03


def _allocate_sizes(s_s: int, s_d: int) -> list[int]:
    """``s_d`` cluster sizes, at most one apart, summing to ``s_s``."""
    if s_d > s_s:
        raise ValueError("diversity cannot exceed set size")
    base, extra = divmod(s_s, s_d)
    return [base + (1 if i < extra else 0) for i in range(s_d)]


def controlled_record_set(
    by_entity: dict[int, list[Record]],
    s_s: int,
    s_d: int,
    rng: np.random.Generator,
) -> list[Record] | None:
    """Sample one record set with the requested factor levels, each
    entity's records contiguous, or None if the dataset lacks entities
    with enough duplicates."""
    sizes = _allocate_sizes(s_s, s_d)
    # match each slot to any entity that can fill it
    ents = list(by_entity)
    rng.shuffle(ents)
    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
    for size in sorted(sizes, reverse=True):
        pick = next(
            (
                e
                for e in ents
                if e not in used and len(by_entity[e]) >= size
            ),
            None,
        )
        if pick is None:
            return None
        chosen.append((pick, size))
        used.add(pick)
    groups: list[list[Record]] = []
    for e, size in chosen:
        pool = list(by_entity[e])
        idx = rng.choice(len(pool), size=size, replace=False)
        groups.append([pool[i] for i in idx])
    return [r for g in groups for r in g]


def records_by_entity(
    records: list[Record], truth: dict[int, int]
) -> dict[int, list[Record]]:
    out: dict[int, list[Record]] = {}
    for r in records:
        out.setdefault(truth[r.rid], []).append(r)
    return out


def sweep_config(
    records: list[Record],
    truth: dict[int, int],
    profile: LLMProfile,
    *,
    s_s: int,
    s_d: int,
    n_questions: int = N_QUESTIONS,
    seed: int = 0,
) -> dict[str, float]:
    """Mean per-set quality for one factor configuration."""
    rng = np.random.default_rng(seed)
    by_ent = records_by_entity(records, truth)
    llm = SimulatedLLM(truth, profile, seed=seed)
    accs, fps = [], []
    misses = 0
    for q in range(n_questions):
        rset = controlled_record_set(by_ent, s_s, s_d, rng)
        if rset is None:
            misses += 1
            if misses > 20:
                break
            continue
        clusters = llm.cluster_records(rset, salt=q)
        if not structurally_valid(rset, clusters):
            accs.append(0.0)  # hallucinated answer scores zero
            fps.append(0.0)
            continue
        pred = clusters_to_assignment(
            [[r.rid for r in c] for c in clusters]
        )
        m = all_metrics(pred, {r.rid: truth[r.rid] for r in rset})
        accs.append(m["acc"])
        fps.append(m["fp"])
    if not accs:
        return {"acc": float("nan"), "fp": float("nan"), "n": 0}
    return {
        "acc": float(np.mean(accs)),
        "fp": float(np.mean(fps)),
        "n": len(accs),
    }


def optimal_factors(
    records: list[Record],
    truth: dict[int, int],
    profile: LLMProfile,
    *,
    seed: int = 0,
) -> tuple[int, int]:
    """The paper's optimum-selection rule → (Ss*, Sd*).

    Each set size is scored by its FP-measure *averaged over the
    diversity grid* (a variance-reduction trick: per-(Ss, Sd) estimates
    from a few dozen sampled sets are noisy, and the size decision only
    needs the size marginal). Among sizes within ``TOLERANCE`` of the
    best score, take the largest (bigger sets = fewer API calls); report
    the best diversity at that size.
    """
    score_by_ss: dict[int, float] = {}
    best_sd_by_ss: dict[int, int] = {}
    for s_s in S_S_GRID:
        fps: list[float] = []
        best = (-1.0, S_D_GRID[0])
        for sd_i, s_d in enumerate(S_D_GRID):
            if s_d > s_s:
                continue
            m = sweep_config(
                records, truth, profile,
                s_s=s_s, s_d=s_d, seed=seed + 101 * sd_i,
            )
            if np.isnan(m["fp"]):
                continue
            fps.append(m["fp"])
            if m["fp"] > best[0]:
                best = (m["fp"], s_d)
        if fps:
            score_by_ss[s_s] = float(np.mean(fps))
            best_sd_by_ss[s_s] = best[1]
    if not score_by_ss:
        raise ValueError("dataset too small for any sweep configuration")
    global_best = max(score_by_ss.values())
    s_s_opt = max(
        ss for ss, fp in score_by_ss.items() if fp >= global_best - TOLERANCE
    )
    return s_s_opt, best_sd_by_ss[s_s_opt]
