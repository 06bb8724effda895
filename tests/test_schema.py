"""Unit tests for repro.datasets.schema."""
import pytest

from repro.datasets.schema import AttrSpec, DatasetSpec, mixed, textual


def _spec(**kw):
    base = dict(
        name="t", domain="d", n_records=100, n_entities=20, attrs=textual(3)
    )
    base.update(kw)
    return DatasetSpec(**base)


class TestAttrSpec:
    @pytest.mark.parametrize("kind", ["T", "N", "C"])
    def test_valid_kinds(self, kind):
        assert AttrSpec("a", kind).kind == kind

    @pytest.mark.parametrize("kind", ["X", "t", "", "TN"])
    def test_invalid_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            AttrSpec("a", kind)


class TestHelpers:
    def test_textual_names_and_kinds(self):
        attrs = textual(4)
        assert [a.name for a in attrs] == ["t1", "t2", "t3", "t4"]
        assert all(a.kind == "T" for a in attrs)

    def test_mixed_composition(self):
        attrs = mixed(2, 1, 1)
        assert [a.kind for a in attrs] == ["T", "T", "N", "C"]
        assert [a.name for a in attrs] == ["t1", "t2", "n1", "c1"]

    def test_mixed_zero_sections(self):
        assert [a.kind for a in mixed(1, 0, 0)] == ["T"]


class TestDatasetSpec:
    def test_dispersion(self):
        assert _spec(n_records=120, n_entities=30).dispersion == 4.0

    def test_attr_type_counts(self):
        s = _spec(attrs=mixed(2, 1, 1))
        assert s.attr_type_counts == {"T": 2, "N": 1, "C": 1}

    def test_rejects_more_entities_than_records(self):
        with pytest.raises(ValueError):
            _spec(n_records=10, n_entities=11)

    def test_rejects_zero_entities(self):
        with pytest.raises(ValueError):
            _spec(n_entities=0)

    def test_rejects_empty_attrs(self):
        with pytest.raises(ValueError):
            _spec(attrs=())

    @pytest.mark.parametrize("noise", [-0.1, 1.1])
    def test_rejects_bad_noise(self, noise):
        with pytest.raises(ValueError):
            _spec(noise=noise)

    @pytest.mark.parametrize("vocab", [5, 5000])
    def test_rejects_bad_vocab(self, vocab):
        with pytest.raises(ValueError):
            _spec(vocab=vocab)


class TestScaled:
    def test_scaled_preserves_dispersion(self):
        s = _spec(n_records=1000, n_entities=100)
        half = s.scaled(0.5)
        assert half.n_entities == 50
        assert abs(half.dispersion - s.dispersion) < 0.5

    def test_scale_one_is_identity(self):
        s = _spec()
        assert s.scaled(1.0) == s

    @pytest.mark.parametrize("scale", [0.0, -1, 1.5])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError):
            _spec().scaled(scale)

    def test_tiny_scale_keeps_at_least_two_entities(self):
        assert _spec().scaled(0.001).n_entities >= 2


class TestAttrManipulation:
    def test_first_k_attrs(self):
        s = _spec(attrs=textual(5)).first_k_attrs(2)
        assert len(s.attrs) == 2

    @pytest.mark.parametrize("k", [0, 6])
    def test_first_k_bounds(self, k):
        with pytest.raises(ValueError):
            _spec(attrs=textual(5)).first_k_attrs(k)

    def test_drop_kind_removes_only_that_kind(self):
        s = _spec(attrs=mixed(2, 1, 1)).drop_kind("N")
        assert [a.kind for a in s.attrs] == ["T", "T", "C"]

    def test_drop_kind_keeps_title(self):
        # first (title-like) attribute survives even when its kind drops
        s = _spec(attrs=mixed(2, 1, 1)).drop_kind("T")
        assert s.attrs[0].kind == "T"
        assert [a.kind for a in s.attrs] == ["T", "N", "C"]
