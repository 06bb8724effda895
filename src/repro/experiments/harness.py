"""Experiment harness: one (dataset, method) end-to-end ER run.

Every results table in the paper is some selection of the columns this
harness produces: quality (ACC / FP / NMI / ARI), #API calls, tokens,
monetary cost and simulated time, plus the per-level record-set counts
for Table 3.

The harness runs blocking once and then dispatches each block to the
requested method, so method comparisons share identical blocks (the
paper's "same blocking approach" fairness condition).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from ..baselines.booster import booster_er_block
from ..baselines.bq import annotation_cost, bq_er_block
from ..baselines.crowder import crowder_er_block
from ..baselines.pairwise import pairwise_er_block
from ..baselines.plm import DEEPMATCHER, DITTO, plm_cost_usd, plm_er_block
from ..blocking import BLOCKERS
from ..core.metrics import all_metrics
from ..core.pipeline import number_labels, resolve_block
from ..core.records import Record, build_records
from ..datasets.generator import generate
from ..datasets.schema import DatasetSpec
from ..llm.profiles import GPT_4O_MINI, LLMProfile
from ..llm.simulated import SimulatedLLM

METHODS = (
    "llm_cer", "pairwise", "bq", "booster", "crowder", "ditto", "deepmatcher"
)


@dataclass
class RunResult:
    """All reported columns for one end-to-end run."""

    dataset: str
    method: str
    acc: float
    fp: float
    nmi: float
    ari: float
    n_calls: int
    tokens_m: float
    cost_usd: float
    time_min: float
    level_counts: list[int] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict, repr=False)


def prepare(
    spec: DatasetSpec,
) -> tuple[pd.DataFrame, list[Record], dict[int, int]]:
    """Generate the dataset and build records (scale it with
    ``registry.spec(name, scale)``)."""
    pdf = generate(spec)
    recs, truth = build_records(pdf, spec)
    return pdf, recs, truth


def run_er(
    spec: DatasetSpec,
    method: str = "llm_cer",
    *,
    prepared: tuple[list[Record], dict[int, int]],
    profile: LLMProfile = GPT_4O_MINI,
    blocking: str = "lsh",
    s_s: int = 9,
    s_d: int = 4,
    use_mdg: bool = True,
    merge_strategy: str = "similarity",
    batch_size: int = 0,
    few_shot: int = 0,
    ft_frac: float = 0.0,
    seed: int = 0,
) -> RunResult:
    """Run one end-to-end experiment; see METHODS for method names.

    ``prepared`` is ``spec``'s (records, truth), as ``prepare(spec)[1:]``
    gives them; reusing it across methods gives a table's rows the exact
    same input.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; one of {METHODS}")
    recs, truth = prepared

    blocks = BLOCKERS[blocking](recs)
    llm = SimulatedLLM(truth, profile, seed=seed, few_shot=few_shot)

    block_labels: list[dict[int, int]] = []
    level_counts: list[int] = []
    for bi, block in enumerate(blocks):
        if method == "llm_cer":
            res = resolve_block(
                block,
                llm,
                s_s=s_s,
                s_d=s_d,
                use_mdg=use_mdg,
                merge_strategy=merge_strategy,
                batch_size=batch_size,
                seed=seed + bi,
            )
            local = res.assignment
            for i, cnt in enumerate(res.level_set_counts):
                if i >= len(level_counts):
                    level_counts.append(0)
                level_counts[i] += cnt
        elif method == "pairwise":
            local = pairwise_er_block(block, llm, use_guardrail=use_mdg)
        elif method == "bq":
            local = bq_er_block(block, llm)
        elif method == "booster":
            local = booster_er_block(block, llm, seed=seed + bi)
        elif method == "crowder":
            local = crowder_er_block(block, llm, s_s=s_s)
        else:  # ditto / deepmatcher
            model = DITTO if method == "ditto" else DEEPMATCHER
            local = plm_er_block(block, model, ft_frac, seed=seed + bi)
        block_labels.append(local)

    assignment = number_labels(local.items() for local in block_labels)
    quality = all_metrics(assignment, truth)
    snap = llm.ledger.snapshot()
    cost = snap["cost_usd"]
    if method == "bq":
        cost += annotation_cost()
    if method in ("ditto", "deepmatcher"):
        cost = plm_cost_usd(len(recs), ft_frac)
    return RunResult(
        dataset=spec.name,
        method=method,
        acc=quality["acc"],
        fp=quality["fp"],
        nmi=quality["nmi"],
        ari=quality["ari"],
        n_calls=int(snap["n_calls"]),
        tokens_m=snap["tokens"] / 1e6,
        cost_usd=cost,
        time_min=snap["sim_time_s"] / 60.0,
        level_counts=level_counts,
        assignment=assignment,
    )
