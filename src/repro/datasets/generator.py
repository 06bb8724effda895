"""Synthetic dirty-ER record generator.

The paper evaluates on nine real-world dirty-ER datasets that are not
shipped offline, so this module generates *statistically matched*
synthetic equivalents (see DESIGN.md, substitutions table):

1. Entities are organised into token **families** — groups of distinct
   entities sharing most title tokens and differing by a variant token
   (think two camera models that differ only in a model suffix). The
   spec's ``confusability`` sets family size; within-family pairs are
   the "hard negatives" that cause false merges.
2. Each entity has one canonical record; its duplicates are corrupted
   copies. The spec's ``noise`` drives typos, abbreviations, token
   drops, missing values, numeric jitter and categorical flips — the
   "hard positives" that cause false splits.
3. Duplicate counts per entity follow a geometric-ish distribution so
   the record/entity ratio matches the paper's entity dispersion.

Everything is a pure function of ``spec`` and ``seed``.
"""
from __future__ import annotations

import string

import numpy as np
import pandas as pd

from .schema import AttrSpec, DatasetSpec

_VOCAB_SIZE = 4000
_CAT_VOCAB = [f"cat_{c}" for c in string.ascii_lowercase[:12]]


def _word_pool(seed: int = 12345) -> list[str]:
    """Deterministic pool of pronounceable pseudo-words."""
    g = np.random.default_rng(seed)
    cons = list("bcdfghklmnprstvz")
    vow = list("aeiou")
    words = []
    for _ in range(_VOCAB_SIZE):
        n_syll = int(g.integers(2, 4))
        w = "".join(
            cons[g.integers(0, len(cons))] + vow[g.integers(0, len(vow))]
            for _ in range(n_syll)
        )
        words.append(w)
    return words


_POOL = _word_pool()


def _typo(word: str, g: np.random.Generator) -> str:
    """One random character edit (delete / replace / transpose)."""
    if len(word) < 2:
        return word
    i = int(g.integers(0, len(word)))
    op = int(g.integers(0, 3))
    if op == 0:  # delete
        return word[:i] + word[i + 1 :]
    if op == 1:  # replace
        return word[:i] + chr(ord("a") + int(g.integers(0, 26))) + word[i + 1 :]
    j = min(i + 1, len(word) - 1)  # transpose
    return word[:i] + word[j] + word[i] + word[j + 1 :] if i != j else word


def _corrupt_text(value: str, noise: float, g: np.random.Generator) -> str:
    """Apply per-token corruption ops with probabilities scaled by noise."""
    tokens = value.split()
    out = []
    for t in tokens:
        r = g.random()
        if r < noise * 0.22:  # drop token entirely
            continue
        if r < noise * 0.22 + noise * 0.30:  # typo
            t = _typo(t, g)
        elif r < noise * 0.22 + noise * 0.30 + noise * 0.22 and len(t) > 4:
            t = t[:3] + "."  # abbreviation
        out.append(t)
    if not out and tokens:  # never corrupt a value to nothing
        out = [tokens[0]]
    return " ".join(out)


def _family_layout(spec: DatasetSpec) -> np.ndarray:
    """family id per entity. Family size grows with confusability."""
    fam_size = 1 + int(round(spec.confusability * 4))
    return np.arange(spec.n_entities) // max(1, fam_size)


def _entity_canonicals(spec: DatasetSpec) -> list[dict[str, object]]:
    """Canonical (clean) attribute values for every entity."""
    g = np.random.default_rng(spec.seed * 7919 + 11)
    fams = _family_layout(spec)
    rows: list[dict[str, object]] = []
    for e in range(spec.n_entities):
        fam = int(fams[e])
        fg = np.random.default_rng(spec.seed * 104729 + fam)  # family-stable
        eg = np.random.default_rng(spec.seed * 15485863 + e)  # entity-stable
        v = spec.vocab
        fam_tokens = [_POOL[int(fg.integers(0, v))] for _ in range(3)]
        variant = f"{_POOL[int(eg.integers(0, v))]}{e % 97:02d}"
        row: dict[str, object] = {}
        for i, a in enumerate(spec.attrs):
            if a.kind == "T":
                if i == 0:  # title: family core + entity variant
                    row[a.name] = " ".join(
                        fam_tokens + [variant, _POOL[int(eg.integers(0, v))]]
                    )
                else:
                    # secondary text: mostly entity-distinctive (extra
                    # attributes must ADD identifying signal — Table 6),
                    # family-shared only occasionally
                    src = fg if g.random() < spec.confusability * 0.3 else eg
                    row[a.name] = " ".join(
                        _POOL[int(src.integers(0, v))] for _ in range(3)
                    )
            elif a.kind == "N":
                row[a.name] = float(np.round(eg.uniform(1, 2000), 2))
            else:  # categorical
                row[a.name] = _CAT_VOCAB[int(eg.integers(0, len(_CAT_VOCAB)))]
        rows.append(row)
    return rows


def _duplicate_counts(spec: DatasetSpec, g: np.random.Generator) -> np.ndarray:
    """#records per entity: every entity >= 1, total == n_records."""
    extra = spec.n_records - spec.n_entities
    counts = np.ones(spec.n_entities, dtype=np.int64)
    if extra > 0:
        # geometric-flavoured allocation: a few heavy entities, many light
        w = g.exponential(1.0, spec.n_entities)
        w /= w.sum()
        alloc = g.multinomial(extra, w)
        counts += alloc
    return counts


def _corrupt_record(
    canon: dict[str, object], spec: DatasetSpec, g: np.random.Generator
) -> dict[str, object]:
    row: dict[str, object] = {}
    for i, a in enumerate(spec.attrs):
        v = canon[a.name]
        if a.kind == "T":
            # titles are curated; secondary free text (descriptions,
            # scraped fields) carries most of the corruption — which is
            # why pruning noisy textual attributes can HELP on dirty
            # domains (paper Table 7, Walmart-Amazon)
            eff = spec.noise * (0.7 if i == 0 else 1.3)
            txt = _corrupt_text(str(v), min(1.0, eff), g)
            if i > 0 and g.random() < spec.noise * 0.18:
                txt = ""  # missing secondary text value
            if i > 0 and g.random() < spec.value_misplacement * 0.8:
                # scraped free-text fields pick up boilerplate tokens
                # from a tiny shared vocabulary — cross-entity noise
                # that only disappears when the field is pruned
                txt = (
                    f"{txt} {_CAT_VOCAB[int(g.integers(0, len(_CAT_VOCAB)))]}"
                ).strip()
            row[a.name] = txt
        elif a.kind == "N":
            x = float(v)
            if g.random() < spec.noise * 0.2:
                x = float(np.round(x * (1 + g.normal(0, 0.02)), 2))
            if g.random() < spec.noise * 0.08:
                x = float("nan")  # missing numeric
            row[a.name] = x
        else:
            c = str(v)
            if g.random() < spec.noise * 0.08:
                c = _CAT_VOCAB[int(g.integers(0, len(_CAT_VOCAB)))]
            row[a.name] = c
    # Walmart-Amazon-style extraction error: stray attribute values leak
    # into the title. The pollution lives in the SOURCE data, so it stays
    # in the title even when the categorical column itself is ablated
    # away (paper Table 7: only dropping the noisy *textual* fields,
    # title excluded, cleans the signal).
    if spec.value_misplacement > 0 and g.random() < spec.value_misplacement:
        if spec.attrs[0].kind == "T":
            stray = _CAT_VOCAB[int(g.integers(0, len(_CAT_VOCAB)))]
            row[spec.attrs[0].name] = f"{stray} {row[spec.attrs[0].name]}"
    return row


def generate(spec: DatasetSpec) -> pd.DataFrame:
    """Generate the dataset as a pandas DataFrame.

    Columns: ``record_id`` (0..n-1), ``entity_id`` (ground truth — only
    the LLM oracle and the metric modules may read it), then one column
    per attribute in ``spec.attrs``.
    """
    g = np.random.default_rng(spec.seed * 6700417 + 3)
    canons = _entity_canonicals(spec)
    counts = _duplicate_counts(spec, g)
    rows: list[dict[str, object]] = []
    rid = 0
    for e, cnt in enumerate(counts):
        for _ in range(int(cnt)):
            # every record, the first too, is a corrupted copy of the
            # canonical (real datasets have no pristine row either)
            row = _corrupt_record(canons[e], spec, g)
            rows.append({"record_id": rid, "entity_id": e, **row})
            rid += 1
    pdf = pd.DataFrame(rows)
    # shuffle rows so record_id order carries no entity signal downstream
    pdf = pdf.sample(frac=1.0, random_state=spec.seed).reset_index(drop=True)
    pdf["record_id"] = np.arange(len(pdf))
    return pdf


def serialize_row(row: pd.Series | dict, attrs: tuple[AttrSpec, ...]) -> str:
    """Flatten a record to the textual form sent to the LLM / embedder.

    ``"t1: foo bar | n1: 12.5 | c1: cat_a"`` — the same serialization
    both sides of the pipeline use, so similarity is measured on what
    the LLM "sees".
    """
    parts = []
    for a in attrs:
        v = row[a.name]
        if isinstance(v, float) and np.isnan(v):
            s = ""
        elif a.kind == "N" and v != "":
            s = f"{float(v):g}"
        else:
            s = str(v)
        parts.append(f"{a.name}: {s}")
    return " | ".join(parts)
