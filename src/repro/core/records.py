"""Pipeline-facing record representation.

A :class:`Record` is what the matching pipeline (NRS / MDG / CMR /
baselines) is allowed to see: an opaque id, the serialized text, its
embedding, and its token set. The ground-truth ``entity_id`` is *not*
on the record — it lives in a separate truth map handed only to the
LLM oracle and the metric functions (the "ground-truth firewall" of
DESIGN.md).
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..datasets.schema import DatasetSpec
from ..embed.hashing import embed_batch
from ..embed.hashing import tokens as _tokens


_LABEL_RE = re.compile(r"\b[tnc]\d+:\s*")


def strip_attr_labels(text: str) -> str:
    """Remove ``t1:`` / ``n2:`` / ``c1:``-style labels before embedding.

    Every record carries the same attribute labels; leaving them in
    would inflate cross-entity embedding similarity with shared
    structural n-grams.
    """
    return _LABEL_RE.sub(" ", str(text))


def serialize_frame(pdf: pd.DataFrame, spec: DatasetSpec) -> list[str]:
    """Vectorised ``serialize_row`` over a whole dataset frame."""
    cols = []
    for a in spec.attrs:
        s = pdf[a.name]
        if a.kind == "N":
            s = s.map(
                lambda v: ""
                if (isinstance(v, float) and np.isnan(v))
                else f"{float(v):g}"
            )
        else:
            s = s.astype(str)
        cols.append(a.name + ": " + s)
    out = cols[0]
    for c in cols[1:]:
        out = out + " | " + c
    return out.tolist()


@dataclass(frozen=True, eq=False)
class Record:
    """One pipeline-visible record."""

    rid: int
    text: str
    vec: np.ndarray = field(repr=False)
    tokens: frozenset[str] = field(repr=False)

    def __hash__(self) -> int:  # identity by rid: vecs are not hashable
        return hash(self.rid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and other.rid == self.rid

    @property
    def n_tokens_llm(self) -> int:
        """Approximate LLM token count of the serialized record."""
        return max(1, len(self.text) // 4)


def embed_texts(texts: Sequence[str]) -> np.ndarray:
    """Serialized texts → (n, dim) embeddings, labels stripped first."""
    return embed_batch([strip_attr_labels(t) for t in texts])


def make_records(
    rids: Iterable[int], texts: Iterable[str], vecs: Iterable[np.ndarray]
) -> list[Record]:
    """Parallel (rid, text, vec) sequences → records, in that order."""
    return [
        Record(
            rid=int(rid),
            text=text,
            vec=np.asarray(vec, dtype=np.float32),
            tokens=_tokens(text),
        )
        for rid, text, vec in zip(rids, texts, vecs)
    ]


def build_records(
    pdf: pd.DataFrame, spec: DatasetSpec
) -> tuple[list[Record], dict[int, int]]:
    """Turn a generated dataset frame into (records, truth map).

    ``truth`` maps record_id → entity_id and must only be given to the
    LLM oracle / metrics, never to pipeline logic.
    """
    texts = serialize_frame(pdf, spec)
    records = make_records(pdf["record_id"], texts, embed_texts(texts))
    truth = dict(zip(pdf["record_id"].astype(int), pdf["entity_id"].astype(int)))
    return records, truth
