"""Builders for every evaluation table (paper §6 + appendix).

Each ``tableN(runs)`` returns a tidy ``pandas.DataFrame`` of the runs
behind the paper's Table N, holding *both* the measured values and the
paper's published values (columns prefixed ``paper_``), so
EXPERIMENTS.md can diff them row by row. The runs come from a
:class:`Runs`, which computes each distinct run once however many
tables show it (Table 6's An=12 Cora row is Table 2's LLM-CER Cora
row).
"""
from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable
from dataclasses import replace

import numpy as np
import pandas as pd

from ..core.records import Record
from ..datasets import registry
from ..datasets.registry import DISPLAY, SPECS
from ..datasets.schema import DatasetSpec
from ..llm.profiles import GPT_4O_MINI, LLAMA_3_2_1B, LLMProfile
from . import paper_numbers as P
from .harness import RunResult, prepare, run_er
from .sweeps import optimal_factors

#: a dataset's (records, ground truth), as ``run_er(prepared=)`` takes it
_Prepared = tuple[list[Record], dict[int, int]]
_T2_DATASETS = ("cora", "alaska", "as")
#: attribute-type ablation → (attribute kind dropped, kinds kept)
_TYPE_VARIANTS = {
    "original": (None, "T,N,C"),
    "wo_textual": ("T", "N,C"),
    "wo_numeric": ("N", "T,C"),
    "wo_categorical": ("C", "T,N"),
}
#: random-merging runs (seeds seed+1 … seed+N) averaged per Table 18 row
_N_RANDOM = 3
#: ``run_er``'s defaults: a run that spells one out is the run that omits it
_RUN_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(run_er).parameters.items()
    if p.default is not p.empty
}


class Runs:
    """The prepared datasets, runs and factor sweeps of one table
    rebuild at ``scale`` and ``seed``, each computed on first request
    and kept for the object's life. ``scale`` subsamples every dataset
    spec (entities and records shrink together, dispersion preserved).
    A result depends only on its key, never on the requests before it,
    so tables built from one shared ``Runs`` equal tables built from
    one ``Runs`` each."""

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        self._prepared: dict[DatasetSpec, _Prepared] = {}
        self._runs: dict[tuple, RunResult] = {}
        self._factors: dict[tuple, tuple[int, int]] = {}

    def spec(self, name: str) -> DatasetSpec:
        """The registered dataset ``name`` at this rebuild's scale."""
        return registry.spec(name, self.scale)

    def prepared(self, spec: DatasetSpec) -> _Prepared:
        """``spec``'s records and ground truth."""
        if spec not in self._prepared:
            self._prepared[spec] = prepare(spec)[1:]
        return self._prepared[spec]

    def __call__(
        self, spec: DatasetSpec, method: str = "llm_cer", **opts
    ) -> RunResult:
        """``run_er(spec, method, **opts)`` on the prepared ``spec``;
        ``seed`` defaults to this rebuild's seed."""
        opts = {**_RUN_DEFAULTS, "seed": self.seed, **opts, "method": method}
        key = (spec, *sorted(opts.items()))
        if key not in self._runs:
            self._runs[key] = run_er(
                spec, prepared=self.prepared(spec), **opts
            )
        return self._runs[key]

    def factors(
        self, spec: DatasetSpec, profile: LLMProfile
    ) -> tuple[int, int]:
        """``optimal_factors`` → (Ss*, Sd*) of ``profile`` on ``spec``."""
        key = (spec, profile)
        if key not in self._factors:
            self._factors[key] = optimal_factors(
                *self.prepared(spec), profile, seed=self.seed
            )
        return self._factors[key]


def _row(
    r: RunResult, measured: str, reported: str, paper: Iterable, /, **keys
) -> dict[str, object]:
    """One table row: the ``keys``, then each ``measured`` column read
    off ``r`` (``api_calls`` is ``n_calls``, ``time_s`` is 60 ×
    ``time_min``, any other the field of that name), then the paper's
    ``paper`` values as ``paper_<name>`` for each name in ``reported``."""
    row = dict(keys)
    for col in measured.split():
        if col == "api_calls":
            row[col] = r.n_calls
        elif col == "time_s":
            row[col] = r.time_min * 60
        else:
            row[col] = getattr(r, col)
    for name, value in zip(reported.split(), paper, strict=True):
        row[f"paper_{name}"] = value
    return row


def _factor_row(
    runs: Runs, spec: DatasetSpec, profile: LLMProfile, paper, /, **keys
) -> dict[str, object]:
    ss, sd = runs.factors(spec, profile)
    return {**keys, "s_s": ss, "s_d": sd,
            "paper_s_s": paper[0], "paper_s_d": paper[1]}


def table1(runs: Runs) -> pd.DataFrame:
    """Dataset statistics of the synthetic benchmarks vs Table 1."""
    rows = []
    for name in SPECS:
        s = runs.spec(name)
        recs, truth = runs.prepared(s)
        n_ent = len(set(truth.values()))
        rows.append({
            "dataset": DISPLAY[name],
            "records": len(recs),
            "entities": n_ent,
            "dispersion": round(len(recs) / n_ent, 1),
            "attrs": len(s.attrs),
            "types": "".join(sorted(a.kind for a in s.attrs)),
            "paper_records": P.TABLE1[name]["rec"],
            "paper_entities": P.TABLE1[name]["ent"],
            "paper_attrs": P.TABLE1[name]["attrs"],
        })
    return pd.DataFrame(rows)


def table2(runs: Runs) -> pd.DataFrame:
    """In-context clustering (Ss=9) vs pairwise matching (Ss=2)."""
    rows = []
    for name in _T2_DATASETS:
        spec = runs.spec(name)
        for method in ("pairwise", "llm_cer"):
            rows.append(_row(
                runs(spec, method),
                "acc fp cost_usd tokens_m time_min api_calls",
                "acc fp cost tokens_m time_min calls",
                P.TABLE2[name][method].values(),
                dataset=DISPLAY[name], method=method,
            ))
    return pd.DataFrame(rows)


def table3(runs: Runs) -> pd.DataFrame:
    """Record sets per hierarchy level for LLM-CER."""
    rows = []
    for name in _T2_DATASETS:
        counts = runs(runs.spec(name)).level_counts
        paper = P.TABLE3[name]
        row: dict[str, object] = {"dataset": DISPLAY[name]}
        for i in range(max(len(counts), len(paper))):
            row[f"level{i}"] = counts[i] if i < len(counts) else 0
            row[f"paper_level{i}"] = paper[i] if i < len(paper) else 0
        rows.append(row)
    return pd.DataFrame(rows).fillna(0)


def table4(runs: Runs) -> pd.DataFrame:
    """LLM-CER vs Booster vs BQ vs CrowdER+LLM on all nine datasets."""
    rows = []
    for name in SPECS:
        spec = runs.spec(name)
        for method in ("llm_cer", "booster", "bq", "crowder"):
            rows.append(_row(
                runs(spec, method),
                "acc fp cost_usd tokens_m time_s api_calls",
                "acc fp cost tokens_m time_s calls",
                P.TABLE4[name][method],
                dataset=DISPLAY[name], method=method,
            ))
    return pd.DataFrame(rows)


def _attr_count_specs(runs: Runs) -> list[tuple[str, int, DatasetSpec]]:
    return [
        (name, k, runs.spec(name).first_k_attrs(k))
        for name, counts in (("cora", (4, 8, 12)), ("alaska", (3, 6, 9)))
        for k in counts
    ]


def _type_specs(runs: Runs) -> list[tuple[str, str, str, DatasetSpec]]:
    out = []
    for name in ("wa", "citeseer"):
        s = runs.spec(name)
        for variant, (kind, kept) in _TYPE_VARIANTS.items():
            spec = s if kind is None else s.drop_kind(kind)
            out.append((name, variant, kept, spec))
    return out


def table5(runs: Runs) -> pd.DataFrame:
    """Optimal (Ss, Sd) vs attribute count and attribute types."""
    rows = [
        _factor_row(runs, spec, GPT_4O_MINI, P.TABLE5_COUNT[(name, k)],
                    dataset=DISPLAY[name], variant=f"An={k}")
        for name, k, spec in _attr_count_specs(runs)
    ]
    rows += [
        _factor_row(runs, spec, GPT_4O_MINI, P.TABLE5_TYPES[(name, kept)],
                    dataset=DISPLAY[name], variant=kept)
        for name, _, kept, spec in _type_specs(runs)
    ]
    return pd.DataFrame(rows)


def table6(runs: Runs) -> pd.DataFrame:
    """End-to-end ER vs attribute count (Cora / Alaska)."""
    rows = [
        _row(
            runs(spec),
            "acc fp cost_usd tokens_m time_min api_calls",
            "acc fp cost tokens_m time_min calls",
            P.TABLE6[(name, k)],
            dataset=DISPLAY[name], attrs=k,
        )
        for name, k, spec in _attr_count_specs(runs)
    ]
    return pd.DataFrame(rows)


def table7(runs: Runs) -> pd.DataFrame:
    """End-to-end ER vs attribute-type ablations (WA / Citeseer)."""
    rows = [
        _row(runs(spec), "acc fp tokens_m api_calls", "acc fp",
             P.TABLE7[(name, variant)],
             dataset=DISPLAY[name], variant=variant)
        for name, variant, _, spec in _type_specs(runs)
    ]
    return pd.DataFrame(rows)


def table8(runs: Runs) -> pd.DataFrame:
    """MDG ablation — quality plus resource overhead (+ Table 15)."""
    rows = []
    for name in _T2_DATASETS:
        spec = runs.spec(name)
        for mdg, key in ((False, "wo_mdg"), (True, "w_mdg")):
            rows.append(_row(
                runs(spec, use_mdg=mdg),
                "acc fp nmi ari cost_usd tokens_m time_min api_calls",
                "acc fp nmi ari",
                P.TABLE8[name][key] + P.TABLE15[name][key],
                dataset=DISPLAY[name], mdg=key,
            ))
    return pd.DataFrame(rows)


def table9(runs: Runs) -> pd.DataFrame:
    """Optimal key factors per LLM profile (appendix Table 9)."""
    spec = runs.spec("cora")
    rows = [
        _factor_row(runs, spec, profile, P.TABLE9[profile.name],
                    profile=profile.name)
        for profile in (GPT_4O_MINI, LLAMA_3_2_1B)
    ]
    return pd.DataFrame(rows)


def table10(runs: Runs) -> pd.DataFrame:
    """LLM-CER with GPT vs Llama profiles (appendix Table 10)."""
    rows = []
    for name in P.TABLE10:
        spec = runs.spec(name)
        for profile, key, (ss, sd) in (
            (GPT_4O_MINI, "gpt", (9, 4)),
            (LLAMA_3_2_1B, "llama", (6, 3)),
        ):
            rows.append(_row(
                runs(spec, profile=profile, s_s=ss, s_d=sd),
                "acc fp nmi ari api_calls", "acc fp nmi ari calls",
                P.TABLE10[name][key],
                dataset=DISPLAY[name], profile=key,
            ))
    return pd.DataFrame(rows)


def _dispersion_spec(n_ent: int, e_d: int, seed_shift: int) -> DatasetSpec:
    base = SPECS["cora"]
    return replace(
        base, n_entities=n_ent, n_records=n_ent * e_d, seed=base.seed + seed_shift
    )


def table11_12_13(runs: Runs) -> pd.DataFrame:
    """Entity-dispersion experiments on Cora (appendix Tables 11–13);
    the rebuild's scale shrinks the variants' entity counts."""
    rows = []
    for e_d, pap in P.TABLE12.items():  # fixed 100 entities
        n_ent = max(5, int(round(100 * runs.scale)))
        rows.append(_row(
            runs(_dispersion_spec(n_ent, e_d, e_d)),
            "acc fp api_calls", "acc fp calls", pap,
            experiment="fixed_entities", e_d=e_d,
        ))
    for e_d, pap in P.TABLE13.items():  # fixed ~600 records
        n_ent = max(4, int(round(600 * runs.scale / e_d)))
        rows.append(_row(
            runs(_dispersion_spec(n_ent, e_d, 20 + e_d)),
            "acc fp api_calls", "acc fp calls", pap,
            experiment="fixed_records", e_d=e_d,
        ))
    return pd.DataFrame(rows)


def table14(runs: Runs) -> pd.DataFrame:
    """Blocking/filtering ablation (appendix Table 14)."""
    rows = []
    for name in ("cora", "as", "alaska"):
        spec = runs.spec(name)
        for blocking in ("none", "filter", "canopy", "lsh"):
            rows.append(_row(
                runs(spec, blocking=blocking),
                "acc fp tokens_m api_calls", "acc fp calls",
                P.TABLE14[name][blocking],
                dataset=DISPLAY[name], blocking=blocking,
            ))
    return pd.DataFrame(rows)


def table16(runs: Runs) -> pd.DataFrame:
    """LLM-CER vs Ditto / DeepMatcher at 0/20/80% fine-tuning."""
    rows = []
    for name in ("alaska", "cora", "wa"):
        spec = runs.spec(name)
        pap = P.TABLE16[name]
        rows.append(_row(
            runs(spec), "acc fp cost_usd", "acc fp cost", pap["ours"],
            dataset=DISPLAY[name], method="ours", ft="-",
        ))
        for method, tag in (("ditto", "ditto"), ("deepmatcher", "dm")):
            for ft in (0.2, 0.8, 0.0):
                pct = int(ft * 100)
                rows.append(_row(
                    runs(spec, method, ft_frac=ft),
                    "acc fp cost_usd", "acc fp cost", pap[f"{tag}_{pct}"],
                    dataset=DISPLAY[name], method=method, ft=f"{pct}%",
                ))
    return pd.DataFrame(rows)


def table17(runs: Runs) -> pd.DataFrame:
    """Few-shot learning ± MDG (appendix Table 17)."""
    configs = {
        "zero": {"few_shot": 0, "use_mdg": True},
        "few_wo_mdg": {"few_shot": 4, "use_mdg": False},
        "few_w_mdg": {"few_shot": 4, "use_mdg": True},
    }
    rows = []
    for name in ("wa", "citeseer"):
        spec = runs.spec(name)
        for key, kw in configs.items():
            rows.append(_row(
                runs(spec, **kw), "acc fp tokens_m api_calls", "acc fp",
                P.TABLE17[name][key],
                dataset=DISPLAY[name], setting=key,
            ))
    return pd.DataFrame(rows)


def table18(runs: Runs) -> pd.DataFrame:
    """Similarity-based vs random cluster merging (appendix Table 18);
    each random row is the mean over ``_N_RANDOM`` seeds."""
    rows = []
    for name in ("cora", "alaska"):
        spec = runs.spec(name)
        merges = {"sim": [runs(spec)]}
        for mdg, key in ((True, "random"), (False, "random_wo_mdg")):
            merges[key] = [
                runs(spec, merge_strategy="random", use_mdg=mdg,
                     seed=runs.seed + 1 + i)
                for i in range(_N_RANDOM)
            ]
        for key, results in merges.items():
            pap = P.TABLE18[name][key]
            rows.append({
                "dataset": DISPLAY[name], "merging": key,
                "acc": float(np.mean([r.acc for r in results])),
                "fp": float(np.mean([r.fp for r in results])),
                "api_calls": float(np.mean([r.n_calls for r in results])),
                "acc_std": float(np.std([r.acc for r in results])),
                "paper_acc": pap[0], "paper_fp": pap[1],
                "paper_calls": pap[2],
            })
    return pd.DataFrame(rows)


def table19(runs: Runs) -> pd.DataFrame:
    """Batch processing of record sets (appendix Table 19)."""
    rows = []
    for name in ("citeseer", "wa"):
        spec = runs.spec(name)
        for batch, key in ((4, "batch"), (0, "no_batch")):
            rows.append(_row(
                runs(spec, batch_size=batch),
                "acc fp time_min api_calls", "acc fp calls",
                P.TABLE19[name][key],
                dataset=DISPLAY[name], batching=key,
            ))
    return pd.DataFrame(rows)


#: Every table builder, keyed by the name its results are published
#: under (``benchmarks/results/<key>.csv`` and one EXPERIMENTS.md
#: section): key → (title, ``build(runs)``).
#: ``jobs/build_experiments_md.py`` builds and publishes every entry;
#: ``jobs/run_table.py`` builds one.
TABLES: dict[str, tuple[str, Callable[[Runs], pd.DataFrame]]] = {
    "table1": ("Table 1: dataset statistics (synthetic vs paper)", table1),
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
