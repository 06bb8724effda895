"""Token / cost / latency ledger for simulated LLM calls.

The paper reports four resource columns per experiment: # API calls,
tokens (M), monetary cost (USD) and wall-clock time. Time here is
*simulated* API latency (the paper's time is dominated by it), derived
from the profile's latency constants. A ledger stores only its three
integer counts; cost and time are derived from them, so all four
columns are pure functions of the calls the pipeline actually makes,
and ledgers of disjoint call sequences add field by field.
"""
from __future__ import annotations

from dataclasses import dataclass

from .profiles import LLMProfile


@dataclass
class Ledger:
    """Mutable accounting state, one per SimulatedLLM instance."""

    profile: LLMProfile
    n_calls: int = 0
    in_tokens: int = 0
    out_tokens: int = 0

    def add_call(self, in_tokens: int, out_tokens: int) -> None:
        if in_tokens < 0 or out_tokens < 0:
            raise ValueError("token counts must be non-negative")
        self.n_calls += 1
        self.in_tokens += in_tokens
        self.out_tokens += out_tokens

    @property
    def tokens(self) -> int:
        return self.in_tokens + self.out_tokens

    @property
    def cost_usd(self) -> float:
        p = self.profile
        return (
            self.in_tokens * p.input_price_per_m
            + self.out_tokens * p.output_price_per_m
        ) / 1e6

    @property
    def sim_time_s(self) -> float:
        p = self.profile
        return (
            self.n_calls * p.latency_base_s
            + self.in_tokens * p.latency_per_in_tok_s
            + self.out_tokens * p.latency_per_out_tok_s
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "n_calls": self.n_calls,
            "in_tokens": self.in_tokens,
            "out_tokens": self.out_tokens,
            "tokens": self.tokens,
            "cost_usd": self.cost_usd,
            "sim_time_s": self.sim_time_s,
        }
