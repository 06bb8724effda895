"""Rebuild every paper table and publish it.

Usage: ``python jobs/build_experiments_md.py [--scale 1.0] [--seed 0]``.

Builds each table of ``repro.experiments.tables.TABLES`` on one shared
``Runs``, writes it to ``benchmarks/results/<key>.csv``, then writes
EXPERIMENTS.md as ``render()`` of those CSVs: every table side by side
with the paper's published numbers (columns prefixed ``paper_``),
followed by its shape commentary. A run that several tables show is
computed once, by the first table that needs it, so each table's
printed build time counts only the runs it adds. The total time and
the peak RSS (the larger ``ru_maxrss`` of this process and of its
children) are printed too; no timing goes into a published file.

After a prose-only edit to ``SECTIONS`` or ``HEADER``, write
``render()`` to EXPERIMENTS.md from Python instead of rebuilding.
"""
from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).parent))
from _common import make_parser, write_table

from repro.experiments.tables import TABLES, Runs

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — paper numbers vs this reproduction

All measured numbers come from `python jobs/build_experiments_md.py`
(scale 1.0 = paper-size synthetic datasets, seed 0). That one run
writes `benchmarks/results/*.csv` and renders this file from them.
Columns prefixed `paper_` are transcribed from the publication
(`src/repro/experiments/paper_numbers.py`).

**How to read the diffs.** Our substrate is a *simulated* LLM over
*synthetic* datasets calibrated to Table 1's statistics and the
paper's relative difficulty ordering, so absolute values are not
expected to coincide; the claims to check are the **shapes** — which
method wins, by roughly what factor, and where crossovers fall. Each
section below says whether the measured table keeps the paper's shape
and, where it does not, what the measured shape is. Two
systematic deviations are intentional and explained here once:

1. **FP-measure runs higher than the paper's.** We compute ACC with a
   strict one-to-one greedy matching (Eq. 2–3). Under that reading,
   FP-measure (harmonic mean of purities, Eq. 4–7) is mathematically
   ≳ ACC, yet several published (ACC, FP) pairs violate that bound
   (e.g. Cora 0.90/0.71 in Table 2). We keep the principled metric
   definitions, calibrate towards the paper's ACC per dataset, and
   let FP land where Eq. 4–7 puts it, so compare FP orderings with the
   paper's, not FP values.
2. **Simulated cost/time.** Monetary cost uses real GPT-4o-mini
   pricing on measured tokens; "time" is simulated API latency (the
   paper's wall-clock is API-bound), so both scale exactly with calls
   and tokens.
"""

SECTIONS: list[tuple[str, str, str]] = [
    ("table1", "Table 1 — dataset statistics", """
Shape preserved: record/entity/attribute counts match Table 1 exactly
(generated dispersion is stochastic but within rounding of the paper's).
"""),
    ("table2", "Table 2 — in-context clustering (Ss=9) vs pairwise (Ss=2)", """
Shape preserved: clustering quality is better than pairwise on every
dataset while using 7–11× fewer API calls, 3–8× fewer tokens, 3–7×
fewer dollars and 5–8× fewer minutes. The paper's call reduction is
larger (12–108×). Our pairwise baseline's *quality* falls further
below clustering than the paper's near-tie (ACC 0.61–0.72 vs
0.83–0.94), because its unguarded transitive closures accumulate
simulated-LLM errors over thousands of calls.
"""),
    ("table3", "Table 3 — record sets per hierarchy level", """
Shape not preserved: the hierarchy is shallower than the paper's.
Cora and Alaska stop after 3 levels and AS after 4, where the paper
needs 4 (Cora), 6 (Alaska) and 5 (AS), so Alaska is not the deepest.
Level 0 holds more sets than the paper's (Alaska 1,741 vs 1,312;
about #records/7 rather than #records/9), and counts fall by 2–26×
per level.
"""),
    ("table4", "Table 4 — LLM-CER vs Booster / BQ / CrowdER+LLM", """
Shape partly preserved: LLM-CER has the best ACC on 6 of 9 datasets.
Booster wins Cora (0.947 vs 0.940) and Citeseer (0.937 vs 0.921), and
CrowdER+LLM wins Song (0.824 vs 0.809), on FP as well as ACC. BQ uses
the most tokens and dollars on all 9 datasets and has the worst ACC on
8 of them (CrowdER+LLM is worst on Walmart-Amazon). Booster is the
cheapest method on 5 of 9. CrowdER+LLM makes 0.8–5.5× our API calls,
where the paper's makes 1.7–5.1×.
"""),
    ("table5", "Table 5 — optimal (Ss, Sd) vs attribute count & types", """
Shape preserved: Cora and Citeseer keep the optimum at/near (9, 4)
across attribute counts and type ablations. The Walmart-Amazon and
Alaska optima move by 1–2 set-size units rather than the paper's
larger excursions: the sweep's argmax is sampling-sensitive (a few
hundred sampled sets per configuration), and the paper's own Table 5
mixes 3s and 4s for Sd — treat ±1–2 on either factor as measurement
noise.
"""),
    ("table6", "Table 6 — end-to-end ER vs attribute count", """
Shape partly preserved: token usage grows with attribute count, as in
the paper. Quality does not rise with it: Cora's ACC goes 0.895 →
0.884 → 0.940 over 4, 8 and 12 attributes, and Alaska's falls 0.911 →
0.897 → 0.891 over 3, 6 and 9 (the paper: +0.08 on both). Calls stay
flat on Cora and fall 14% on Alaska. Our synthetic secondary
attributes add less *new* distinguishing signal per column than the
real datasets' (each is drawn from the same noise process).
"""),
    ("table7", "Table 7 — end-to-end ER vs attribute types", """
Shape preserved: dropping the noisy textual attributes *helps*
Walmart-Amazon (extraction-noise pathology), while every ablation
hurts well-structured Citeseer.
"""),
    ("table8", "Tables 8 + 15 — MDG ablation", """
Shape not preserved: MDG costs many calls for a small quality gain.
It adds 16% calls on Cora for +0.052 ACC, 19% on Alaska for +0.035,
and 65% on AS for +0.004, where AS's FP is unchanged (0.886). The
paper reports a large gain (e.g. Alaska ACC 0.35 → 0.82): without MDG
our simulated GPT is nearly as good as with it.
"""),
    ("table9", "Appendix Table 9 — optimal factors per LLM", """
Shape partly preserved: the weaker Llama profile supports smaller sets
than GPT-4o-mini (6 vs 9), as in the paper, but its optimal diversity
is higher (5 vs 4), where the paper's is lower (3 vs 4). Both prefer
balanced variation and sequential ordering (enforced by construction
in the sweep).
"""),
    ("table10", "Appendix Table 10 — GPT vs Llama end-to-end", """
Shape preserved: GPT beats Llama on every quality metric on every
dataset, and Llama needs more API calls.
"""),
    ("table11_12_13", "Appendix Tables 11–13 — entity dispersion", """
Shape partly preserved: with a fixed entity count, higher dispersion
keeps quality roughly flat (ACC 0.91, 0.90, 0.93), but calls grow
about in proportion to the records (88 → 182 → 234 for 2× and 3× the
records), where the paper's grow sub-linearly (192 → 251 → 277). With
a fixed record count, calls stay flat (124, 117, 122) instead of
falling as in the paper (139 → 98), and ACC drops to 0.82 at Ed = 20.
"""),
    ("table14", "Appendix Table 14 — blocking ablation", """
Shape partly preserved: LSH gives the best ACC on every dataset,
filtering is close behind and canopy is coarser, and no blocking is
both the most expensive and the worst. But no blocking is far worse
than the paper's: ACC 0.17–0.33 against the paper's 0.61–0.70. Its
call overhead is smaller: 1.1–1.7× LSH's calls, where the paper's is
5–7×.
"""),
    ("table16", "Appendix Table 16 — vs Ditto / DeepMatcher", """
Shape partly preserved: our zero-supervision pipeline beats both PLMs
without fine-tuning, and beats both at every fine-tuning level on
Walmart-Amazon. On Alaska and Cora, Ditto at 20% fine-tuning already
matches or beats us (Alaska 0.893 vs 0.891, Cora 0.967 vs 0.940), and
both PLMs beat us at 80%. A PLM at 20–80% fine-tuning costs 150–1,500×
our dollars (the cost model reproduces the paper's A40 accounting from
record counts alone). Ditto beats DeepMatcher except at 80% on Cora
and Walmart-Amazon.
"""),
    ("table17", "Appendix Table 17 — few-shot learning ± MDG", """
Shape partly preserved: few-shot without MDG is worse than zero-shot
on both datasets, and few-shot with MDG is the best setting on both:
the guardrail is what converts the extra signal into quality. The
gain is small on Walmart-Amazon (ACC 0.585 → 0.606; the paper's is
0.61 → 0.77) and on Citeseer (0.921 → 0.932).
"""),
    ("table18", "Appendix Table 18 — similarity-based vs random merging", """
Shape partly preserved: similarity-based CMR has the best quality on
both datasets, and random packing without MDG the worst. Calls do not
separate them: random packing makes 1.6% fewer calls on Cora and 2.5%
more on Alaska. Random packing without MDG varies more over repeats
than with it on Cora (ACC std 0.010 vs 0.006) but not on Alaska (0.006
vs 0.007).
"""),
    ("table19", "Appendix Table 19 — batch processing", """
Shape partly preserved: batching ~4 record sets per prompt cuts API
calls at about unchanged quality (ACC −0.002 on Citeseer, +0.023 on
Walmart-Amazon). The cut is 69% on Walmart-Amazon (the paper's: 77%)
but only 13% on Citeseer (2,205 → 1,926; the paper's: 76%). Our
batching operates within blocks, so a block with one record set never
shares a call, while the paper batches across the whole workload.
"""),
]


def publish(runs: Runs) -> None:
    """Build every table on ``runs`` and write it to ``RESULTS``,
    printing each table's build seconds."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name, (_, build) in TABLES.items():
        t0 = time.perf_counter()
        df = build(runs)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
        write_table(df, RESULTS / f"{name}.csv")


def render() -> str:
    """EXPERIMENTS.md: ``HEADER``, then each section's CSV from
    ``RESULTS`` and its commentary."""
    pd.set_option("display.width", 260)
    pd.set_option("display.max_columns", 40)
    parts = [HEADER]
    for name, title, commentary in SECTIONS:
        df = pd.read_csv(RESULTS / f"{name}.csv")
        parts += [
            f"\n## {title}\n", "```", df.round(3).to_string(index=False),
            "```", commentary.strip() + "\n",
        ]
    return "\n".join(parts)


def main() -> None:
    args = make_parser(__doc__).parse_args()
    t0 = time.perf_counter()
    publish(Runs(args.scale, args.seed))
    (ROOT / "EXPERIMENTS.md").write_text(render())
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(
        f"total: {time.perf_counter() - t0:.1f} s,"
        f" peak RSS {peak_kb / 1024:.0f} MB"
    )


if __name__ == "__main__":
    main()
