"""Key-factor sweep machinery (§4.2, Tables 5 & 9).

Controlled record sets are sampled from a dataset at fixed set size,
diversity, variation band and ordering (``sweep_config`` uses
``SV_LEVEL`` and ``ORDERING``), clustered *raw* by the LLM
(no guardrail — §4.2 measures the model itself), and scored per set
against the restricted ground truth. ``optimal_factors`` then picks
the configuration the paper's procedure would: the largest set size
whose FP-measure is within tolerance of the best (maximising size
minimises API calls), and the best diversity at that size.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.factors import set_variation
from ..core.mdg import structurally_valid
from ..core.metrics import all_metrics, clusters_to_assignment
from ..core.records import Record
from ..llm.profiles import LLMProfile
from ..llm.simulated import SimulatedLLM

SV_LEVELS = ("balanced", "relative", "unbalanced")
#: the variation band and record order every sweep configuration uses
SV_LEVEL = "balanced"
ORDERING = "sequential"


def _allocate_sizes(
    s_s: int, s_d: int, sv_level: str, rng: np.random.Generator
) -> list[int]:
    """Cluster sizes summing to ``s_s`` in the requested variation band:
    balanced (CV<0.3), relatively balanced (0.3–0.7), unbalanced (>0.7)."""
    if s_d > s_s:
        raise ValueError("diversity cannot exceed set size")
    base, extra = divmod(s_s, s_d)
    if sv_level == "balanced":
        sizes = [base + (1 if i < extra else 0) for i in range(s_d)]
    elif sv_level == "relative":
        sizes = [base + (1 if i < extra else 0) for i in range(s_d)]
        # shift mass to the first cluster until CV enters the band
        while (
            len(sizes) > 1 and set_variation(sizes) < 0.3 and min(sizes) > 1
        ):
            sizes[0] += 1
            sizes[int(np.argmax(sizes[1:])) + 1] -= 1
            sizes = sorted(sizes, reverse=True)
    elif sv_level == "unbalanced":
        sizes = [s_s - (s_d - 1)] + [1] * (s_d - 1)
    else:
        raise ValueError(f"unknown variation level {sv_level!r}")
    assert sum(sizes) == s_s
    return [s for s in sizes if s > 0]


def controlled_record_set(
    by_entity: dict[int, list[Record]],
    s_s: int,
    s_d: int,
    sv_level: str,
    ordering: str,
    rng: np.random.Generator,
) -> list[Record] | None:
    """Sample one record set with the requested factor levels, or None
    if the dataset lacks entities with enough duplicates."""
    sizes = _allocate_sizes(s_s, s_d, sv_level, rng)
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
    if ordering == "sequential":
        flat = [r for g in groups for r in g]
    elif ordering == "random":
        flat = [r for g in groups for r in g]
        perm = rng.permutation(len(flat))
        flat = [flat[i] for i in perm]
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return flat


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
    n_questions: int = 200,
    seed: int = 0,
) -> dict[str, float]:
    """Mean per-set quality for one factor configuration."""
    rng = np.random.default_rng(seed)
    by_ent = records_by_entity(records, truth)
    llm = SimulatedLLM(truth, profile, seed=seed)
    accs, fps = [], []
    misses = 0
    for q in range(n_questions):
        rset = controlled_record_set(by_ent, s_s, s_d, SV_LEVEL, ORDERING, rng)
        if rset is None:
            misses += 1
            if misses > 20:
                break
            continue
        clusters = llm.cluster_records(rset, salt=q, _account=False)
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
    s_s_grid: Sequence[int] = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    s_d_grid: Sequence[int] = (2, 3, 4, 5),
    n_questions: int = 250,
    tolerance: float = 0.03,
    seed: int = 0,
) -> tuple[int, int]:
    """The paper's optimum-selection rule → (Ss*, Sd*).

    Sweep at balanced variation + sequential order. Each set size is
    scored by its FP-measure *averaged over the diversity grid* (a
    variance-reduction trick: per-(Ss, Sd) estimates from a few hundred
    sampled sets are noisy, and the size decision only needs the size
    marginal). Among sizes within ``tolerance`` of the best score, take
    the largest (bigger sets = fewer API calls); report the best
    diversity at that size.
    """
    score_by_ss: dict[int, float] = {}
    best_sd_by_ss: dict[int, int] = {}
    for s_s in s_s_grid:
        fps: list[float] = []
        best = (-1.0, s_d_grid[0])
        for sd_i, s_d in enumerate(s_d_grid):
            if s_d > s_s:
                continue
            m = sweep_config(
                records, truth, profile,
                s_s=s_s, s_d=s_d, n_questions=n_questions,
                seed=seed + 101 * sd_i,
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
        ss for ss, fp in score_by_ss.items() if fp >= global_best - tolerance
    )
    return s_s_opt, best_sd_by_ss[s_s_opt]
