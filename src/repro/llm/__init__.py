"""Simulated LLM oracle: profiles, accounting, clustering/matching calls."""
from .accounting import Ledger
from .profiles import GPT_4O_MINI, LLAMA_3_2_1B, LLMProfile
from .simulated import SimulatedLLM, pair_ambiguity

__all__ = [
    "GPT_4O_MINI", "LLAMA_3_2_1B", "Ledger", "LLMProfile",
    "SimulatedLLM", "pair_ambiguity",
]
