"""Unit tests for the hashing embedder and similarity kernels."""
import numpy as np
import pytest

from repro.embed.hashing import (
    DEFAULT_DIM, embed_batch, embed_text, tokens,
)
from repro.embed.similarity import cosine, cosine_matrix, jaccard


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
        texts = ["one two", "three four", ""]
        batch = embed_batch(texts)
        for i, t in enumerate(texts):
            assert np.array_equal(batch[i], embed_text(t))

    def test_empty_batch(self):
        assert embed_batch([]).shape == (0, DEFAULT_DIM)


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
