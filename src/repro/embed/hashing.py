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

``embed_batch`` takes the texts ``_CHUNK`` at a time, and each chunk
makes two array passes, both exact:

* **Hash.** The features of each word new to the call (``W:word``,
  then the ``G:`` 4-grams of ``" word "``) are collected and hashed
  together by ``_fnv1a_batch``: strings of one length form an
  ``(m, len)`` uint64 array of code points (UTF-32 holds each code
  point as its ``ord``), and each character position is one xor and
  one multiply. uint64 products wrap mod 2**64, which is what the
  scalar ``_fnv1a``'s mask does, so every hash equals ``_fnv1a``'s.
  Only a feature's bucket (int32) and sign (int8) are kept, and every
  later occurrence of the word, in this chunk or a later one, reuses
  them. The memo dies with the call, so no state leaks between calls
  or grows in a long-lived worker. ``_fnv1a`` stays as the reference
  and as the oracle's seed hash.
* **Rows.** One ``bincount`` over ``row * dim + bucket``, weighted by
  the ±1.0 signs, builds the chunk's rows; each row is then divided by
  its L2 norm where that is positive and cast to float32. Every bucket
  is a sum of ±1.0 terms and every squared norm a sum of squared
  integers, all far below 2**53, so both sums are exact in any order
  and the row is bit-identical to adding features one at a time.

The chunk bounds the call's scratch memory (feature strings and index
arrays), not its result. A row depends only on its own text, not on
the batch or chunk it is in, which is what keeps the Spark UDF (one
call per Arrow batch) equal to the driver.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import islice

import numpy as np

DEFAULT_DIM = 256
_CHAR_NGRAM = 4
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
#: texts per chunk of ``embed_batch``: bounds its feature strings, index
#: arrays and ``_CHUNK * dim`` float64 bincount whatever the batch size
_CHUNK = 256
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


def _fnv1a_batch(strings: Sequence[str]) -> np.ndarray:
    """``_fnv1a`` of every string, as a uint64 array, one length at a
    time: the strings of length ``n`` form an ``(m, n)`` array of code
    points, and each column is one xor and one wrapping multiply."""
    lens = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    # UTF-32 holds each code point (a lone surrogate too) as its ord()
    codes = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    starts = np.cumsum(lens) - lens
    out = np.full(len(strings), _FNV_OFFSET, dtype=np.uint64)
    for n in np.unique(lens):
        rows = np.flatnonzero(lens == n)
        chars = codes[starts[rows, None] + np.arange(n)]
        h = out[rows]
        for j in range(n):
            h ^= chars[:, j]
            h *= _FNV_PRIME
        out[rows] = h
    return out


def _word_features(w: str) -> list[str]:
    """``W:w``, then the 4-grams of ``" w "`` as ``G:`` features."""
    padded = f" {w} "
    return ["W:" + w] + [
        "G:" + padded[i : i + _CHAR_NGRAM]
        for i in range(len(padded) - _CHAR_NGRAM + 1)
    ]


def embed_batch(texts: Sequence[str], dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed a batch of strings → (n, dim) float32 matrix of unit rows
    (all-zero for a text with no words)."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    word_id: dict[str, int] = {}  # each distinct word of the call
    n_feats: list[int] = []  # features per word id
    # bucket and sign of every feature hashed so far, word after word
    buckets = np.zeros(0, dtype=np.int32)
    signs = np.zeros(0, dtype=np.int8)
    rest = iter(texts)
    for t0 in range(0, len(texts), _CHUNK):
        feats: list[str] = []  # features of the chunk's new words
        occ: list[int] = []  # word id of each word occurrence
        per_text: list[int] = []  # occurrences per text
        for text in islice(rest, _CHUNK):
            before = len(occ)
            for raw in str(text).lower().split():
                w = raw.strip(_STRIP)
                if not w:
                    continue
                wid = word_id.get(w)
                if wid is None:
                    wid = word_id[w] = len(n_feats)
                    word_feats = _word_features(w)
                    feats += word_feats
                    n_feats.append(len(word_feats))
                occ.append(wid)
            per_text.append(len(occ) - before)
        h = _fnv1a_batch(feats)
        buckets = np.concatenate([buckets, (h % dim).astype(np.int32)])
        signs = np.concatenate([signs, np.where((h >> 32) & 1, 1, -1)
                                .astype(np.int8)])

        counts = np.asarray(n_feats, dtype=np.intp)
        first = np.cumsum(counts) - counts  # each word's first feature
        words = np.asarray(occ, dtype=np.intp)
        k = counts[words]
        # the feature index of every (occurrence, feature) of the chunk
        idx = np.arange(k.sum()) + np.repeat(
            first[words] - (np.cumsum(k) - k), k
        )
        n = len(per_text)
        row = np.repeat(np.repeat(np.arange(n), per_text), k)
        v = np.bincount(
            row * dim + buckets[idx], signs[idx], minlength=n * dim
        ).reshape(n, dim)
        norms = np.sqrt((v * v).sum(axis=1))[:, None]
        np.divide(v, norms, out=out[t0 : t0 + n], where=norms > 0)
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
