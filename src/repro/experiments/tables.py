"""Builders for every evaluation table (paper §6 + appendix).

Each ``tableN`` function runs the experiments behind the paper's
Table N and returns a tidy ``pandas.DataFrame`` holding *both* the
measured values and the paper's published values (columns prefixed
``paper_``), so EXPERIMENTS.md can diff them row by row.

``scale`` subsamples every dataset spec (entities and records shrink
together, dispersion preserved); benchmarks pick the scale via the
``REPRO_BENCH_SCALE`` environment variable.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np
import pandas as pd

from ..datasets import registry
from ..datasets.generator import generate
from ..datasets.registry import DISPLAY, SPECS
from ..datasets.schema import DatasetSpec
from ..llm.profiles import GPT_4O_MINI, LLAMA_3_2_1B
from . import paper_numbers as P
from .harness import prepare, run_er
from .sweeps import optimal_factors

_T2_DATASETS = ("cora", "alaska", "as")


def table1(scale: float = 1.0) -> pd.DataFrame:
    """Dataset statistics of the synthetic benchmarks vs Table 1."""
    rows = []
    for name, spec in SPECS.items():
        s = registry.spec(name, scale)
        pdf = generate(s)
        n_ent = int(pdf["entity_id"].nunique())
        rows.append(
            {
                "dataset": DISPLAY[name],
                "records": len(pdf),
                "entities": n_ent,
                "dispersion": round(len(pdf) / n_ent, 1),
                "attrs": len(s.attrs),
                "types": "".join(sorted(a.kind for a in s.attrs)),
                "paper_records": P.TABLE1[name]["rec"],
                "paper_entities": P.TABLE1[name]["ent"],
                "paper_attrs": P.TABLE1[name]["attrs"],
            }
        )
    return pd.DataFrame(rows)


def table2(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """In-context clustering (Ss=9) vs pairwise matching (Ss=2)."""
    rows = []
    for name in _T2_DATASETS:
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for method in ("pairwise", "llm_cer"):
            r = run_er(spec, method, seed=seed, prepared=(recs, truth))
            pap = P.TABLE2[name][method]
            rows.append(
                {
                    "dataset": DISPLAY[name], "method": method,
                    "acc": r.acc, "fp": r.fp, "cost_usd": r.cost_usd,
                    "tokens_m": r.tokens_m, "time_min": r.time_min,
                    "api_calls": r.n_calls,
                    "paper_acc": pap["acc"], "paper_fp": pap["fp"],
                    "paper_cost": pap["cost"],
                    "paper_tokens_m": pap["tokens_m"],
                    "paper_time_min": pap["time_min"],
                    "paper_calls": pap["calls"],
                }
            )
    return pd.DataFrame(rows)


def table3(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Record sets per hierarchy level for LLM-CER."""
    rows = []
    for name in _T2_DATASETS:
        r = run_er(registry.spec(name, scale), "llm_cer", seed=seed)
        paper = P.TABLE3[name]
        width = max(len(r.level_counts), len(paper))
        row: dict[str, object] = {"dataset": DISPLAY[name]}
        for i in range(width):
            row[f"level{i}"] = (
                r.level_counts[i] if i < len(r.level_counts) else 0
            )
            row[f"paper_level{i}"] = paper[i] if i < len(paper) else 0
        rows.append(row)
    return pd.DataFrame(rows).fillna(0)


def table4(scale: float = 1.0, seed: int = 0, datasets=None) -> pd.DataFrame:
    """LLM-CER vs Booster vs BQ vs CrowdER+LLM on all nine datasets."""
    rows = []
    for name in datasets or SPECS:
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for method in ("llm_cer", "booster", "bq", "crowder"):
            r = run_er(spec, method, seed=seed, prepared=(recs, truth))
            pap = P.TABLE4[name][method]
            rows.append(
                {
                    "dataset": DISPLAY[name], "method": method,
                    "acc": r.acc, "fp": r.fp, "cost_usd": r.cost_usd,
                    "tokens_m": r.tokens_m, "time_s": r.time_min * 60,
                    "api_calls": r.n_calls,
                    "paper_acc": pap[0], "paper_fp": pap[1],
                    "paper_cost": pap[2], "paper_tokens_m": pap[3],
                    "paper_time_s": pap[4], "paper_calls": pap[5],
                }
            )
    return pd.DataFrame(rows)


def _attr_count_specs(scale: float) -> list[tuple[str, int, DatasetSpec]]:
    out = []
    for name, counts in (("cora", (4, 8, 12)), ("alaska", (3, 6, 9))):
        for k in counts:
            out.append((name, k, registry.spec(name, scale).first_k_attrs(k)))
    return out


_TYPE_VARIANTS = ("original", "wo_textual", "wo_numeric", "wo_categorical")


def _type_spec(name: str, variant: str, scale: float) -> DatasetSpec:
    s = registry.spec(name, scale)
    if variant == "original":
        return s
    kind = {"wo_textual": "T", "wo_numeric": "N", "wo_categorical": "C"}[
        variant
    ]
    return s.drop_kind(kind)


def table5(
    scale: float = 1.0, seed: int = 0, n_questions: int = 60
) -> pd.DataFrame:
    """Optimal (Ss, Sd) vs attribute count and attribute types."""
    rows = []
    for name, k, spec in _attr_count_specs(scale):
        _, recs, truth = prepare(spec)
        ss, sd = optimal_factors(
            recs, truth, GPT_4O_MINI, n_questions=n_questions, seed=seed
        )
        pap = P.TABLE5_COUNT[(name, k)]
        rows.append(
            {"dataset": DISPLAY[name], "variant": f"An={k}",
             "s_s": ss, "s_d": sd, "paper_s_s": pap[0], "paper_s_d": pap[1]}
        )
    type_keys = {"original": "T,N,C", "wo_textual": "N,C",
                 "wo_numeric": "T,C", "wo_categorical": "T,N"}
    for name in ("wa", "citeseer"):
        for variant in _TYPE_VARIANTS:
            spec = _type_spec(name, variant, scale)
            _, recs, truth = prepare(spec)
            ss, sd = optimal_factors(
                recs, truth, GPT_4O_MINI, n_questions=n_questions, seed=seed
            )
            pap = P.TABLE5_TYPES[(name, type_keys[variant])]
            rows.append(
                {"dataset": DISPLAY[name], "variant": type_keys[variant],
                 "s_s": ss, "s_d": sd,
                 "paper_s_s": pap[0], "paper_s_d": pap[1]}
            )
    return pd.DataFrame(rows)


def table6(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """End-to-end ER vs attribute count (Cora / Alaska)."""
    rows = []
    for name, k, spec in _attr_count_specs(scale):
        r = run_er(spec, "llm_cer", seed=seed)
        pap = P.TABLE6[(name, k)]
        rows.append(
            {
                "dataset": DISPLAY[name], "attrs": k,
                "acc": r.acc, "fp": r.fp, "cost_usd": r.cost_usd,
                "tokens_m": r.tokens_m, "time_min": r.time_min,
                "api_calls": r.n_calls,
                "paper_acc": pap[0], "paper_fp": pap[1],
                "paper_cost": pap[2], "paper_tokens_m": pap[3],
                "paper_time_min": pap[4], "paper_calls": pap[5],
            }
        )
    return pd.DataFrame(rows)


def table7(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """End-to-end ER vs attribute-type ablations (WA / Citeseer)."""
    rows = []
    for name in ("wa", "citeseer"):
        for variant in _TYPE_VARIANTS:
            spec = _type_spec(name, variant, scale)
            r = run_er(spec, "llm_cer", seed=seed)
            pap = P.TABLE7[(name, variant)]
            rows.append(
                {
                    "dataset": DISPLAY[name], "variant": variant,
                    "acc": r.acc, "fp": r.fp, "tokens_m": r.tokens_m,
                    "api_calls": r.n_calls,
                    "paper_acc": pap[0], "paper_fp": pap[1],
                }
            )
    return pd.DataFrame(rows)


def table8(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """MDG ablation — quality plus resource overhead (+ Table 15)."""
    rows = []
    for name in _T2_DATASETS:
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for mdg in (False, True):
            r = run_er(
                spec, "llm_cer", use_mdg=mdg, seed=seed,
                prepared=(recs, truth),
            )
            key = "w_mdg" if mdg else "wo_mdg"
            pap8, pap15 = P.TABLE8[name][key], P.TABLE15[name][key]
            rows.append(
                {
                    "dataset": DISPLAY[name], "mdg": key,
                    "acc": r.acc, "fp": r.fp, "nmi": r.nmi, "ari": r.ari,
                    "cost_usd": r.cost_usd, "tokens_m": r.tokens_m,
                    "time_min": r.time_min, "api_calls": r.n_calls,
                    "paper_acc": pap8[0], "paper_fp": pap8[1],
                    "paper_nmi": pap15[0], "paper_ari": pap15[1],
                }
            )
    return pd.DataFrame(rows)


def table9(
    scale: float = 1.0, seed: int = 0, n_questions: int = 60
) -> pd.DataFrame:
    """Optimal key factors per LLM profile (appendix Table 9)."""
    spec = registry.spec("cora", scale)
    _, recs, truth = prepare(spec)
    rows = []
    for profile in (GPT_4O_MINI, LLAMA_3_2_1B):
        ss, sd = optimal_factors(
            recs, truth, profile, n_questions=n_questions, seed=seed
        )
        pap = P.TABLE9[profile.name]
        rows.append(
            {"profile": profile.name, "s_s": ss, "s_d": sd,
             "paper_s_s": pap[0], "paper_s_d": pap[1]}
        )
    return pd.DataFrame(rows)


def table10(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """LLM-CER with GPT vs Llama profiles (appendix Table 10)."""
    rows = []
    for name in P.TABLE10:
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for profile, key, (ss, sd) in (
            (GPT_4O_MINI, "gpt", (9, 4)),
            (LLAMA_3_2_1B, "llama", (6, 3)),
        ):
            r = run_er(
                spec, "llm_cer", profile=profile, s_s=ss, s_d=sd,
                seed=seed, prepared=(recs, truth),
            )
            pap = P.TABLE10[name][key]
            rows.append(
                {
                    "dataset": DISPLAY[name], "profile": key,
                    "acc": r.acc, "fp": r.fp, "nmi": r.nmi, "ari": r.ari,
                    "api_calls": r.n_calls,
                    "paper_acc": pap[0], "paper_fp": pap[1],
                    "paper_nmi": pap[2], "paper_ari": pap[3],
                    "paper_calls": pap[4],
                }
            )
    return pd.DataFrame(rows)


def _dispersion_spec(n_ent: int, e_d: int, seed_shift: int) -> DatasetSpec:
    base = SPECS["cora"]
    return replace(
        base, n_entities=n_ent, n_records=n_ent * e_d, seed=base.seed + seed_shift
    )


def table11_12_13(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Entity-dispersion experiments on Cora (appendix Tables 11–13).

    ``scale`` shrinks the entity counts of the constructed variants.
    """
    rows = []
    for e_d, pap in P.TABLE12.items():  # fixed 100 entities
        n_ent = max(5, int(round(100 * scale)))
        r = run_er(_dispersion_spec(n_ent, e_d, e_d), "llm_cer", seed=seed)
        rows.append(
            {"experiment": "fixed_entities", "e_d": e_d,
             "acc": r.acc, "fp": r.fp, "api_calls": r.n_calls,
             "paper_acc": pap[0], "paper_fp": pap[1], "paper_calls": pap[2]}
        )
    for e_d, pap in P.TABLE13.items():  # fixed ~600 records
        n_ent = max(4, int(round(600 * scale / e_d)))
        r = run_er(
            _dispersion_spec(n_ent, e_d, 20 + e_d), "llm_cer", seed=seed
        )
        rows.append(
            {"experiment": "fixed_records", "e_d": e_d,
             "acc": r.acc, "fp": r.fp, "api_calls": r.n_calls,
             "paper_acc": pap[0], "paper_fp": pap[1], "paper_calls": pap[2]}
        )
    return pd.DataFrame(rows)


def table14(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Blocking/filtering ablation (appendix Table 14)."""
    rows = []
    for name in ("cora", "as", "alaska"):
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for blocking in ("none", "filter", "canopy", "lsh"):
            r = run_er(
                spec, "llm_cer", blocking=blocking, seed=seed,
                prepared=(recs, truth),
            )
            pap = P.TABLE14[name][blocking]
            rows.append(
                {
                    "dataset": DISPLAY[name], "blocking": blocking,
                    "acc": r.acc, "fp": r.fp, "tokens_m": r.tokens_m,
                    "api_calls": r.n_calls,
                    "paper_acc": pap[0], "paper_fp": pap[1],
                    "paper_calls": pap[2],
                }
            )
    return pd.DataFrame(rows)


def table16(
    scale: float = 1.0, seed: int = 0, datasets=("alaska", "cora", "wa")
) -> pd.DataFrame:
    """LLM-CER vs Ditto / DeepMatcher at 0/20/80% fine-tuning."""
    rows = []
    for name in datasets:
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        ours = run_er(spec, "llm_cer", seed=seed, prepared=(recs, truth))
        pap = P.TABLE16[name]
        rows.append(
            {"dataset": DISPLAY[name], "method": "ours", "ft": "-",
             "acc": ours.acc, "fp": ours.fp, "cost_usd": ours.cost_usd,
             "paper_acc": pap["ours"][0], "paper_fp": pap["ours"][1],
             "paper_cost": pap["ours"][2]}
        )
        for method, tag in (("ditto", "ditto"), ("deepmatcher", "dm")):
            for ft in (0.2, 0.8, 0.0):
                r = run_er(
                    spec, method, ft_frac=ft, seed=seed,
                    prepared=(recs, truth),
                )
                key = f"{tag}_{int(ft * 100)}"
                rows.append(
                    {"dataset": DISPLAY[name], "method": method,
                     "ft": f"{int(ft * 100)}%",
                     "acc": r.acc, "fp": r.fp, "cost_usd": r.cost_usd,
                     "paper_acc": pap[key][0], "paper_fp": pap[key][1],
                     "paper_cost": pap[key][2]}
                )
    return pd.DataFrame(rows)


def table17(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Few-shot learning ± MDG (appendix Table 17)."""
    rows = []
    for name in ("wa", "citeseer"):
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        configs = {
            "zero": {"few_shot": 0, "use_mdg": True},
            "few_wo_mdg": {"few_shot": 4, "few_shot_hard": True,
                           "use_mdg": False},
            "few_w_mdg": {"few_shot": 4, "few_shot_hard": True,
                          "use_mdg": True},
        }
        for key, kw in configs.items():
            r = run_er(
                spec, "llm_cer", seed=seed, prepared=(recs, truth), **kw
            )
            pap = P.TABLE17[name][key]
            rows.append(
                {"dataset": DISPLAY[name], "setting": key,
                 "acc": r.acc, "fp": r.fp, "tokens_m": r.tokens_m,
                 "api_calls": r.n_calls,
                 "paper_acc": pap[0], "paper_fp": pap[1]}
            )
    return pd.DataFrame(rows)


def table18(scale: float = 1.0, seed: int = 0, n_random: int = 3) -> pd.DataFrame:
    """Similarity-based vs random cluster merging (appendix Table 18)."""
    rows = []
    for name in ("cora", "alaska"):
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        sim = run_er(spec, "llm_cer", seed=seed, prepared=(recs, truth))
        pap = P.TABLE18[name]
        rows.append(
            {"dataset": DISPLAY[name], "merging": "sim",
             "acc": sim.acc, "fp": sim.fp, "api_calls": float(sim.n_calls),
             "acc_std": 0.0,
             "paper_acc": pap["sim"][0], "paper_fp": pap["sim"][1],
             "paper_calls": pap["sim"][2]}
        )
        for mdg, key in ((True, "random"), (False, "random_wo_mdg")):
            runs = [
                run_er(
                    spec, "llm_cer", merge_strategy="random", use_mdg=mdg,
                    seed=seed + 1 + i, prepared=(recs, truth),
                )
                for i in range(n_random)
            ]
            rows.append(
                {
                    "dataset": DISPLAY[name], "merging": key,
                    "acc": float(np.mean([r.acc for r in runs])),
                    "fp": float(np.mean([r.fp for r in runs])),
                    "api_calls": float(np.mean([r.n_calls for r in runs])),
                    "acc_std": float(np.std([r.acc for r in runs])),
                    "paper_acc": pap[key][0], "paper_fp": pap[key][1],
                    "paper_calls": pap[key][2],
                }
            )
    return pd.DataFrame(rows)


def table19(scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Batch processing of record sets (appendix Table 19)."""
    rows = []
    for name in ("citeseer", "wa"):
        spec = registry.spec(name, scale)
        _, recs, truth = prepare(spec)
        for batch, key in ((4, "batch"), (0, "no_batch")):
            r = run_er(
                spec, "llm_cer", batch_size=batch, seed=seed,
                prepared=(recs, truth),
            )
            pap = P.TABLE19[name][key]
            rows.append(
                {"dataset": DISPLAY[name], "batching": key,
                 "acc": r.acc, "fp": r.fp, "time_min": r.time_min,
                 "api_calls": r.n_calls,
                 "paper_acc": pap[0], "paper_fp": pap[1],
                 "paper_calls": pap[2]}
            )
    return pd.DataFrame(rows)


#: Every table builder, keyed by the name its results are published
#: under (``benchmarks/results/<key>.csv`` and one EXPERIMENTS.md
#: section): key → (title, ``build(scale, seed)``). ``jobs/run_table.py``
#: and ``benchmarks/bench_tables.py`` both run from this registry.
TABLES: dict[str, tuple[str, Callable[[float, int], pd.DataFrame]]] = {
    "table1": (
        "Table 1: dataset statistics (synthetic vs paper)",
        lambda scale, seed: table1(scale),
    ),
    "table2": ("Table 2: in-context clustering vs pairwise matching", table2),
    "table3": ("Table 3: record sets per hierarchy level", table3),
    "table4": ("Table 4: LLM-CER vs Booster / BQ / CrowdER+LLM", table4),
    "table5": ("Table 5: optimal Ss/Sd vs attribute count and types", table5),
    "table6": ("Table 6: end-to-end ER vs attribute count", table6),
    "table7": ("Table 7: end-to-end ER vs attribute types", table7),
    "table8": ("Table 8 (+15): MDG ablation", table8),
    "table9": ("Appendix Table 9: optimal factors per LLM", table9),
    "table10": ("Appendix Table 10: GPT vs Llama", table10),
    "table11_12_13": (
        "Appendix Tables 11-13: entity dispersion", table11_12_13,
    ),
    "table14": ("Appendix Table 14: blocking ablation", table14),
    "table16": ("Appendix Table 16: vs Ditto / DeepMatcher", table16),
    "table17": ("Appendix Table 17: few-shot learning", table17),
    "table18": ("Appendix Table 18: similarity vs random merging", table18),
    "table19": ("Appendix Table 19: batch processing", table19),
}
