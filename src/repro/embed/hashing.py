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

``embed_batch`` hashes each distinct word once per call: a dict local
to the call maps the word to the buckets and signs of its features
(``W:word``, then the ``G:`` 4-grams of ``" word "``), and every later
occurrence in the batch reuses them. The memo dies with the call, so
no state leaks between calls or grows in a long-lived worker. A row
is ``bincount`` of its buckets weighted by the ±1.0 signs, then
divided by its L2 norm when that is positive. Every bucket is a sum
of ±1.0 terms, an integer far below 2**53, so the sum is exact in any
order and the row is bit-identical to adding features one at a time.
A row depends only on its own text, not on the batch it is in, which
is what keeps the Spark UDF (one call per Arrow batch) equal to the
driver.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_DIM = 256
_CHAR_NGRAM = 4
_STRIP = ".,:;|()[]"
# attribute labels of the serialized form, dropped from token sets
_LABEL_TOKENS = frozenset({
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11",
    "t12", "n1", "n2", "n3", "c1",
})


def _fnv1a(s: str) -> int:
    """Deterministic 64-bit FNV-1a hash (stable across processes)."""
    h = 0xCBF29CE484222325
    for ch in s:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _word_hashes(w: str, dim: int) -> tuple[list[int], list[float]]:
    """Buckets and signs of ``W:w`` and the 4-grams of ``" w "``."""
    padded = f" {w} "
    feats = ["W:" + w] + [
        "G:" + padded[i : i + _CHAR_NGRAM]
        for i in range(len(padded) - _CHAR_NGRAM + 1)
    ]
    hs = [_fnv1a(f) for f in feats]
    return [h % dim for h in hs], [1.0 if (h >> 32) & 1 else -1.0 for h in hs]


def embed_batch(texts: Sequence[str], dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed a batch of strings → (n, dim) float32 matrix of unit rows
    (all-zero for a text with no words)."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    memo: dict[str, tuple[list[int], list[float]]] = {}
    for i, text in enumerate(texts):
        cols: list[int] = []
        signs: list[float] = []
        for raw in str(text).lower().split():
            w = raw.strip(_STRIP)
            if not w:
                continue
            hit = memo.get(w)
            if hit is None:
                hit = memo[w] = _word_hashes(w, dim)
            cols += hit[0]
            signs += hit[1]
        v = np.bincount(np.asarray(cols, dtype=np.intp), signs, minlength=dim)
        n = np.linalg.norm(v)
        if n > 0:
            v /= n
        out[i] = v
    return out


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed one string into a unit-norm float32 vector."""
    return embed_batch([text], dim)[0]


def tokens(text: str) -> frozenset[str]:
    """Whitespace/punctuation token set used for Jaccard similarity."""
    out = []
    for raw in str(text).lower().replace("|", " ").split():
        w = raw.strip(".,:;()[]")
        if w and w not in _LABEL_TOKENS:
            out.append(w)
    return frozenset(out)
