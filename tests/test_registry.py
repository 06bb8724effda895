"""The nine registry specs must match the paper's Table 1 statistics."""
import pytest

from repro.datasets.registry import DISPLAY, SPECS, spec
from repro.experiments.paper_numbers import TABLE1

ALL = sorted(SPECS)


class TestTable1Match:
    @pytest.mark.parametrize("name", ALL)
    def test_record_count(self, name):
        assert SPECS[name].n_records == TABLE1[name]["rec"]

    @pytest.mark.parametrize("name", ALL)
    def test_entity_count(self, name):
        assert SPECS[name].n_entities == TABLE1[name]["ent"]

    @pytest.mark.parametrize("name", ALL)
    def test_attr_count(self, name):
        assert len(SPECS[name].attrs) == TABLE1[name]["attrs"]

    @pytest.mark.parametrize("name", ALL)
    def test_attr_types(self, name):
        counts = SPECS[name].attr_type_counts
        expected = TABLE1[name]["types"]  # e.g. "T(4), N(1), C(1)"
        for part in expected.split(","):
            kind, num = part.strip().rstrip(")").split("(")
            assert counts[kind] == int(num), (name, kind)

    @pytest.mark.parametrize("name", ALL)
    def test_display_name_defined(self, name):
        assert name in DISPLAY and DISPLAY[name]


class TestAccessors:
    def test_spec_scale(self):
        s = spec("cora", 0.1)
        assert s.n_entities == round(SPECS["cora"].n_entities * 0.1)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            spec("nope")

    def test_difficulty_ordering_encoded(self):
        # Walmart-Amazon is the hardest dataset in the paper; Cora and
        # Citeseer the easiest — the calibrated noise must reflect that
        assert SPECS["wa"].noise > SPECS["cora"].noise
        assert SPECS["wa"].noise > SPECS["citeseer"].noise
