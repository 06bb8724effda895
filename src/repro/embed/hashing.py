"""Word + character-n-gram feature-hashing embeddings.

Stand-in for the paper's all-MiniLM-L6-v2 sentence embeddings (not
available offline). Each record's serialized text is mapped to a dense
L2-normalised vector by hashing its word unigrams *and* character
4-grams into ``dim`` signed buckets. Word features give clean
cross-entity separation; the character features keep typo'd duplicates
close — so LSH bucketing, MDG's similarity guardrail and CMR's cluster
matching behave like they would on sentence embeddings.

The embedder is deterministic (fixed FNV-1a hash) and plain NumPy;
the distributed pipeline calls the same ``embed_batch`` inside its
pandas UDF (:func:`repro.core.spark_pipeline.records_df`).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_DIM = 256
_CHAR_NGRAM = 4


def _fnv1a(s: str) -> int:
    """Deterministic 64-bit FNV-1a hash (stable across processes)."""
    h = 0xCBF29CE484222325
    for ch in s:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _features(text: str) -> list[str]:
    feats: list[str] = []
    for raw in str(text).lower().split():
        w = raw.strip(".,:;|()[]")
        if not w:
            continue
        feats.append("W:" + w)
        padded = f" {w} "
        for i in range(len(padded) - _CHAR_NGRAM + 1):
            feats.append("G:" + padded[i : i + _CHAR_NGRAM])
    return feats


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed one string into a unit-norm float32 vector."""
    v = np.zeros(dim, dtype=np.float64)
    for f in _features(text):
        h = _fnv1a(f)
        v[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v.astype(np.float32)


def embed_batch(texts: Sequence[str], dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed a batch of strings → (n, dim) float32 matrix."""
    return np.stack([embed_text(str(t), dim) for t in texts]) if len(texts) else (
        np.zeros((0, dim), dtype=np.float32)
    )


def tokens(text: str) -> frozenset[str]:
    """Whitespace/punctuation token set used for Jaccard similarity."""
    out = []
    for raw in str(text).lower().replace("|", " ").split():
        w = raw.strip(".,:;()[]")
        if w and w not in ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8",
                           "t9", "t10", "t11", "t12", "n1", "n2", "n3", "c1"):
            out.append(w)
    return frozenset(out)
