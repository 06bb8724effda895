"""Dataset specifications for the nine synthetic dirty-ER benchmarks.

Each :class:`DatasetSpec` mirrors one row of the paper's Table 1
(record count, entity count, dispersion, attribute schema) plus the
generator knobs that control how *hard* the dataset is:

``noise``
    Probability that each corruption operator (typo, token drop,
    abbreviation, missing value, numeric jitter, categorical flip) is
    applied to a duplicate record. Higher noise means duplicates of the
    same entity look less alike.
``confusability``
    Controls how many *distinct* entities share a token "family" (e.g.
    two camera models differing only in a model number). Higher
    confusability means more near-collisions between different
    entities, which is what makes false merges likely.
``value_misplacement``
    Probability of moving a categorical/brand value into the primary
    textual attribute — the extraction-error pathology the paper calls
    out for Walmart-Amazon ("'brand' values in 'name'").
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class AttrSpec:
    """One attribute of a dataset: ``name`` and ``kind`` in {T, N, C}."""

    name: str
    kind: str  # "T" textual, "N" numeric, "C" categorical

    def __post_init__(self) -> None:
        if self.kind not in ("T", "N", "C"):
            raise ValueError(f"attribute kind must be T/N/C, got {self.kind!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Full recipe for one synthetic dirty-ER dataset."""

    name: str
    domain: str
    n_records: int
    n_entities: int
    attrs: tuple[AttrSpec, ...]
    noise: float = 0.2
    confusability: float = 0.2
    value_misplacement: float = 0.0
    vocab: int = 4000  # domain vocabulary size; smaller → more collisions
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_entities < 1 or self.n_records < self.n_entities:
            raise ValueError(
                f"{self.name}: need 1 <= n_entities <= n_records, got "
                f"{self.n_entities} entities / {self.n_records} records"
            )
        if not self.attrs:
            raise ValueError(f"{self.name}: at least one attribute required")
        if not (0.0 <= self.noise <= 1.0 and 0.0 <= self.confusability <= 1.0):
            raise ValueError(f"{self.name}: noise/confusability must be in [0, 1]")
        if not (10 <= self.vocab <= 4000):
            raise ValueError(f"{self.name}: vocab must be in [10, 4000]")

    @property
    def dispersion(self) -> float:
        """Entity dispersion E_d = #records / #entities (Table 1)."""
        return self.n_records / self.n_entities

    @property
    def attr_type_counts(self) -> dict[str, int]:
        out = {"T": 0, "N": 0, "C": 0}
        for a in self.attrs:
            out[a.kind] += 1
        return out

    def scaled(self, scale: float) -> "DatasetSpec":
        """A smaller copy preserving dispersion — used by unit tests.

        ``scale=1.0`` is the paper-size dataset; ``scale=0.05`` keeps
        5% of the entities (and records), same per-entity duplicate
        distribution.
        """
        if not (0.0 < scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        n_ent = max(2, int(round(self.n_entities * scale)))
        n_rec = max(n_ent, int(round(self.n_records * scale)))
        return replace(self, n_entities=n_ent, n_records=n_rec)

    def drop_kind(self, kind: str) -> "DatasetSpec":
        """Copy without any attribute of ``kind`` (Table 7 "w/o X").

        The first textual attribute (the title-like key) is always kept,
        mirroring the paper's "we retain critical attributes (e.g.,
        title) across all settings".
        """
        kept = tuple(
            a for i, a in enumerate(self.attrs) if a.kind != kind or i == 0
        )
        if not kept:
            raise ValueError("cannot drop every attribute")
        return replace(self, attrs=kept)

    def first_k_attrs(self, k: int) -> "DatasetSpec":
        """Copy with only the first ``k`` attributes (Table 5–6 sweeps)."""
        if not (1 <= k <= len(self.attrs)):
            raise ValueError(f"k must be in [1, {len(self.attrs)}]")
        return replace(self, attrs=self.attrs[:k])


def textual(n: int, prefix: str = "t") -> tuple[AttrSpec, ...]:
    """``n`` textual attributes named ``{prefix}1..{prefix}n``."""
    return tuple(AttrSpec(f"{prefix}{i + 1}", "T") for i in range(n))


def mixed(t: int, n: int, c: int) -> tuple[AttrSpec, ...]:
    """``t`` textual + ``n`` numeric + ``c`` categorical attributes."""
    return (
        textual(t)
        + tuple(AttrSpec(f"n{i + 1}", "N") for i in range(n))
        + tuple(AttrSpec(f"c{i + 1}", "C") for i in range(c))
    )
