"""Unit tests for the hashing embedder and similarity kernels."""
import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.records import embed_texts, serialize_frame
from repro.datasets.generator import generate
from repro.datasets.registry import spec
from repro.embed import hashing
from repro.embed.hashing import (
    DEFAULT_DIM, _fnv1a, _fnv1a_batch, embed_batch, embed_text, tokens,
)
from repro.embed.similarity import cosine, cosine_matrix, jaccard


def _reference_features(text):
    """Every feature of ``text`` in order, repeated words included."""
    feats = []
    for raw in str(text).lower().split():
        w = raw.strip(".,:;|()[]")
        if not w:
            continue
        feats.append("W:" + w)
        padded = f" {w} "
        for i in range(len(padded) - 4 + 1):
            feats.append("G:" + padded[i : i + 4])
    return feats


def _reference_embed(text, dim=DEFAULT_DIM):
    """The embedder one feature at a time: the definition that
    ``embed_batch``'s per-word memo must reproduce bit for bit."""
    v = np.zeros(dim, dtype=np.float64)
    for f in _reference_features(text):
        h = _fnv1a(f)
        v[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v.astype(np.float32)


# strip set, whitespace other than space, non-ASCII (BMP and not)
_ALPHABET = "abcdeAB0179.,:;|()[]\t\n-'é漢😀"
_PUNCT = ".,:;|()[]"
_SEPS = [" ", "  ", "\t", "\n", " | "]


def _random_batch(rng):
    """A batch whose words repeat inside it, with empty strings,
    punctuation-only words and every awkward character mixed in."""
    pool = [
        "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 7)))
        for _ in range(rng.randint(1, 6))
    ] + ["".join(rng.choice(_PUNCT) for _ in range(rng.randint(1, 3)))]
    texts = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.15:
            texts.append("")
            continue
        texts.append("".join(
            rng.choice(pool) + rng.choice(_SEPS)
            for _ in range(rng.randint(0, 8))
        ))
    return texts


class TestEmbedText:
    def test_unit_norm(self):
        v = embed_text("hello world example")
        assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-5)

    def test_deterministic(self):
        assert np.array_equal(embed_text("abc def"), embed_text("abc def"))

    def test_dim(self):
        assert embed_text("x", dim=32).shape == (32,)
        assert embed_text("x").shape == (DEFAULT_DIM,)

    def test_empty_string_zero_vector(self):
        assert np.linalg.norm(embed_text("")) == 0.0

    def test_similar_strings_close(self):
        a = embed_text("konstantin research paper entity resolution")
        b = embed_text("konstantin reserch paper entity resolution")  # typo
        assert cosine(a, b) > 0.75

    def test_dissimilar_strings_far(self):
        a = embed_text("konstantin research paper")
        b = embed_text("zebra quantum flux oscillator")
        assert cosine(a, b) < 0.25

    def test_case_insensitive(self):
        assert np.array_equal(embed_text("Hello World"), embed_text("hello world"))

    def test_word_order_invariant(self):
        # bag-of-features: permuting words should not change the vector
        assert np.allclose(
            embed_text("alpha beta gamma"), embed_text("gamma alpha beta")
        )


class TestEmbedBatch:
    def test_matches_single(self):
        texts = ["one two", "three four", "", "one two one"]
        batch = embed_batch(texts)
        for i, t in enumerate(texts):
            assert batch[i].tobytes() == embed_text(t).tobytes()
            assert batch[i].tobytes() == _reference_embed(t).tobytes()

    def test_empty_batch(self):
        out = embed_batch([])
        assert out.shape == (0, DEFAULT_DIM)
        assert out.dtype == np.float32
        assert embed_batch([], dim=32).shape == (0, 32)

    @pytest.mark.parametrize("dim", [32, 256])
    def test_matches_reference_fuzz(self, dim):
        """1,500 seeded random batches per dim: every row equals the
        one-feature-at-a-time reference byte for byte."""
        rng = random.Random(dim)
        for _ in range(1500):
            texts = _random_batch(rng)
            out = embed_batch(texts, dim)
            assert out.dtype == np.float32 and out.shape == (len(texts), dim)
            want = [_reference_embed(t, dim).tobytes() for t in texts]
            assert [row.tobytes() for row in out] == want, texts

    def test_concatenated_batches(self):
        """A row does not depend on its batch: embedding A + B equals
        embedding A and B apart (the Spark UDF embeds per Arrow batch)."""
        rng = random.Random(7)
        for _ in range(200):
            a, b = _random_batch(rng), _random_batch(rng)
            whole = embed_batch(a + b, 32)
            parts = np.vstack([embed_batch(a, 32), embed_batch(b, 32)])
            assert whole.tobytes() == parts.tobytes()

    def test_wordless_texts_zero_rows(self):
        out = embed_batch(["", "...", "| ()"])
        assert out.shape == (3, DEFAULT_DIM)
        assert not np.isnan(out).any()
        assert not out.any()

    def test_rows_independent_of_chunking(self, monkeypatch):
        """Rows built two texts at a time, so batches span several
        chunks, still equal the reference byte for byte."""
        monkeypatch.setattr(hashing, "_CHUNK", 2)
        rng = random.Random(11)
        for _ in range(300):
            texts = _random_batch(rng)
            want = [_reference_embed(t, 32).tobytes() for t in texts]
            assert [row.tobytes() for row in embed_batch(texts, 32)] == want

    def test_hashes_each_distinct_word_once_per_call(self, monkeypatch):
        """The batch hasher sees each distinct word's features once per
        call, in one chunk or over several, and all again next call."""
        batches = []

        def counting(strings):
            batches.append(list(strings))
            return _fnv1a_batch(strings)

        monkeypatch.setattr(hashing, "_fnv1a_batch", counting)
        texts = ["Alpha beta, alpha", "", "beta (gamma) ALPHA", "x x"]
        distinct = ["alpha", "beta", "gamma", "x"]
        want = sorted(f for w in distinct for f in _reference_features(w))
        for chunk in (hashing._CHUNK, 2):
            monkeypatch.setattr(hashing, "_CHUNK", chunk)
            for _ in range(2):  # no cache outlives the call
                batches.clear()
                embed_batch(texts)
                assert sorted(f for b in batches for f in b) == want


class TestFNV1a:
    """Published 64-bit FNV-1a test vectors: the oracle seeds its RNG
    with this hash, so it must not move."""

    @pytest.mark.parametrize("s,h", [
        ("", 0xCBF29CE484222325),
        ("a", 0xAF63DC4C8601EC8C),
        ("foobar", 0x85944171F73967E8),
    ], ids=["empty", "a", "foobar"])
    def test_vectors(self, s, h):
        assert _fnv1a(s) == h


class TestFNV1aBatch:
    """The vectorised hasher equals the scalar ``_fnv1a`` on every
    string, whatever the mix of lengths in its batch."""

    #: BMP and non-BMP characters and a lone surrogate, each one code point
    ODD = ["é", "漢", "😀", "\ud800"]

    def test_edge_strings(self):
        strings = ["", "a", "Z", " ", "foobar", *self.ODD, "G: é漢",
                   "W:😀\ud800", "G:" + "漢" * 4]
        strings += [("ab😀\ud800" * 9)[:n] for n in range(33)]
        assert _fnv1a_batch(strings).tolist() == [_fnv1a(s) for s in strings]

    def test_empty_batch(self):
        out = _fnv1a_batch([])
        assert out.dtype == np.uint64 and out.shape == (0,)

    def test_fuzz(self):
        """2,000 seeded batches of every feature length up to 24 (``W:``
        features are 3 and longer, ``G:`` ones 6), mixed and repeated."""
        rng = random.Random(3)
        alphabet = "abz09 .:-" + "".join(self.ODD)
        for _ in range(2000):
            strings = [
                "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 24)))
                for _ in range(rng.randint(0, 12))
            ]
            strings += rng.sample(strings, min(2, len(strings)))
            got = _fnv1a_batch(strings)
            assert got.tolist() == [_fnv1a(s) for s in strings], strings


# sha256 of embed_texts(serialize_frame(...)).tobytes() and of the JSON
# list of each record's sorted tokens(), at scale 0.05 (recorded before
# embed_batch memoised words)
_GOLDEN = {
    "ag": (
        "128b10c03cfa1ea57f871b64e65df9082ec5dd6c47d224fcc9790847eb631d3f",
        "22a0e673594e3aac64f92c70b4d0aad981e4044a57db7b7d9eaf7976497771ed",
    ),
    "alaska": (
        "e580d25e0876e553ac5f6a6002799dec30aba8258cc1ee08ed9dfd6746e3485c",
        "fe820fea3ba5698dc1a22d66486222cdbc03c2a889c10aec9cc51b6614dec599",
    ),
    "as": (
        "3de3d924fe0b60e8a4b9db243801c7269ed6fa79ff98c392217eb54bbee280a7",
        "4529cb96c0c6fe82c187686cbc7888cf8c560b417ade1ad4e8609787568aef6c",
    ),
    "citeseer": (
        "ecc56a36ef641eddd05086acfebf14864943dbf4be915b87ec4c30beb52aac32",
        "eef2597bde7a64c15d901c95756211c402b339ded1933c92d260a42d746f4e90",
    ),
    "cora": (
        "88844771ada1a59fce97af15f59cea03678aa992f74b4e9aad20b135b724c52a",
        "031cdaca46e1088918714c9c9075f713adb6775c9caf36a76128010eecf2b501",
    ),
    "dg": (
        "2a2c1237f3823fadfe290a171a674b925e1c9e9cf0a9cfcecbaa89a8044d1899",
        "f05a5f0efbf06c8c5e4ccba32b2642fdf8678d66b39c329c37c3599ed5682b35",
    ),
    "music": (
        "ade918f9e57ab4f58bb9b8772a4653ad6e867d9a52deb59fd51afdd18d671b3a",
        "df77dd452d85d469509c00cc3daa1cdeb6197432f4e6676a7f3491913164904f",
    ),
    "song": (
        "a2b57c522608563ef76a343bcf3775979b625e71931b5fc83fe9f34d6b7950be",
        "db84aad81cc8e2f93e960d11bd1232b7c16a354e19afd53d812c216a0aee6e9f",
    ),
    "wa": (
        "f6186436aa183d5c41041cf59b5590be0279a9497cde56566b465da778caeb80",
        "9305e1eef0e2da125502ef6035f34f1f3d57a68637a0d0f18dc6b3396857030b",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_embeddings_and_tokens(name):
    """Every dataset's embeddings and token sets are frozen."""
    sp = spec(name, 0.05)
    texts = serialize_frame(generate(sp), sp)
    emb = hashlib.sha256(embed_texts(texts).tobytes()).hexdigest()
    toks = json.dumps([sorted(tokens(t)) for t in texts])
    got = (emb, hashlib.sha256(toks.encode()).hexdigest())
    assert got == _GOLDEN[name]


class TestTokens:
    def test_strips_attr_labels(self):
        assert tokens("t1: foo bar | n1: 3") >= {"foo", "bar", "3"}
        assert "t1" not in tokens("t1: foo")

    def test_lowercases(self):
        assert tokens("FOO Bar") == frozenset({"foo", "bar"})

    def test_empty(self):
        assert tokens("") == frozenset()


class TestCosine:
    def test_identical(self):
        v = embed_text("same text")
        assert np.isclose(cosine(v, v), 1.0)

    def test_zero_vector(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_symmetric(self):
        a, b = embed_text("aa bb"), embed_text("cc dd")
        assert np.isclose(cosine(a, b), cosine(b, a))


class TestCosineMatrix:
    def test_shape_and_diagonal(self):
        m = np.stack([embed_text(t) for t in ["a b", "c d", "e f"]])
        s = cosine_matrix(m)
        assert s.shape == (3, 3)
        assert np.allclose(np.diag(s), 1.0)

    def test_symmetric(self):
        m = np.stack([embed_text(t) for t in ["ab cd", "ef gh"]])
        s = cosine_matrix(m)
        assert np.allclose(s, s.T)

    def test_matches_pairwise(self):
        m = np.stack([embed_text(t) for t in ["aa", "bb", "aa bb"]])
        s = cosine_matrix(m)
        assert np.isclose(s[0, 2], cosine(m[0], m[2]), atol=1e-6)

    def test_empty(self):
        assert cosine_matrix(np.zeros((0, 4))).shape == (0, 0)

    def test_zero_rows_safe(self):
        m = np.vstack([np.zeros(8), np.ones(8)])
        s = cosine_matrix(m)
        assert s[0, 1] == 0.0


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_one_empty(self):
        assert jaccard(frozenset(), frozenset("a")) == 0.0

    def test_half_overlap(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert jaccard(a, b) == pytest.approx(1 / 3)
