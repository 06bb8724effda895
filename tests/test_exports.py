"""Every name a ``repro`` subpackage exports must exist."""
import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


def test_subpackages_found():
    assert {"blocking", "core", "experiments", "llm"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"repro.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
