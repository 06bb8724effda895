"""Simulated LLM profiles.

Each profile captures the behavioural parameters of one model as the
paper characterises it (§4.2, Appendix A.1): the GPT-4o-mini profile
has a larger in-context clustering capacity (set size 9, diversity 4)
and a lower error floor than the Llama-3.2-1B profile (capacity 6,
diversity 3), and real pricing/latency constants so the cost/time
columns of the result tables are mechanistic.

Error-model parameters (all feed :mod:`repro.llm.simulated`):

``base_error``            per-pair error floor on unambiguous pairs.
``ambiguity_weight``      multiplies squared pair ambiguity (similar
                          non-duplicates / dissimilar duplicates).
``capacity``              set size beyond which quality degrades; the
                          *effective* capacity also shifts down for
                          noisy datasets (``cap_amb_slope``), which is
                          what moves Walmart-Amazon's optimum to 7 and
                          its "w/o textual" variant up to ~12 (Table 5).

The four set-level penalties below are *multiplicative scales*: the
per-pair error becomes ``(base + w·amb²) · (1 + Σ penalties)``. This
models cognitive load making *ambiguous* pairs harder while trivially
distinct records stay distinguishable even in bad prompts — and keeps
the n² pairwise-closure amplification inside a set under control.

``variation_penalty``     × coefficient of variation of true cluster
                          sizes in the set (Eq. 1).
``diversity_penalty``     × |set diversity − diversity_opt|.
``ordering_penalty``      × (1 − sequentiality) of the record order.
``size_penalty``          × records beyond the effective capacity.
``hallucination_rate``    probability a call returns a structurally
                          corrupted clustering (dropped / duplicated
                          records or a garbled partition) — what MDG
                          exists to catch.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LLMProfile:
    name: str
    capacity: int
    diversity_opt: int
    base_error: float
    ambiguity_weight: float
    size_penalty: float
    variation_penalty: float
    diversity_penalty: float
    ordering_penalty: float
    hallucination_rate: float
    few_shot_gain: float  # max relative error reduction from demos
    context_gain: float  # per-pair error discount exponent vs set size
    cap_amb_slope: float  # effective-capacity shift per unit ambiguity
    cap_amb_ref: float  # ambiguity level at which capacity == nominal
    input_price_per_m: float  # USD per 1M input tokens
    output_price_per_m: float  # USD per 1M output tokens
    latency_base_s: float
    latency_per_in_tok_s: float
    latency_per_out_tok_s: float


GPT_4O_MINI = LLMProfile(
    name="gpt-4o-mini",
    capacity=9,
    diversity_opt=4,
    base_error=0.007,
    ambiguity_weight=0.80,
    size_penalty=3.0,
    variation_penalty=0.45,
    diversity_penalty=0.80,
    ordering_penalty=0.45,
    hallucination_rate=0.12,
    few_shot_gain=0.40,
    context_gain=1.0,
    cap_amb_slope=13.0,
    cap_amb_ref=0.68,
    input_price_per_m=0.15,
    output_price_per_m=0.60,
    latency_base_s=0.45,
    latency_per_in_tok_s=0.0006,
    latency_per_out_tok_s=0.012,
)

LLAMA_3_2_1B = LLMProfile(
    name="llama-3.2-1b",
    capacity=6,
    diversity_opt=3,
    base_error=0.035,
    ambiguity_weight=0.80,
    size_penalty=3.0,
    variation_penalty=0.60,
    diversity_penalty=0.90,
    ordering_penalty=0.60,
    hallucination_rate=0.22,
    few_shot_gain=0.25,
    context_gain=1.2,
    cap_amb_slope=10.0,
    cap_amb_ref=0.68,
    input_price_per_m=0.0,  # open-source: no API cost (Appendix A.1)
    output_price_per_m=0.0,
    latency_base_s=0.45,
    latency_per_in_tok_s=0.0006,
    latency_per_out_tok_s=0.012,
)
