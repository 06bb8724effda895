"""Synthetic dirty-ER benchmark datasets (paper Table 1 equivalents)."""
from .generator import generate, serialize_row
from .registry import DISPLAY, SPECS, spec
from .schema import AttrSpec, DatasetSpec, mixed, textual

__all__ = [
    "AttrSpec", "DatasetSpec", "DISPLAY", "SPECS",
    "generate", "mixed", "serialize_row", "spec", "textual",
]
