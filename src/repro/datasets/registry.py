"""The nine benchmark datasets of the paper's Table 1, as synthetic specs.

Record/entity counts and attribute schemas match Table 1 exactly. The
``noise`` / ``confusability`` knobs are calibrated so the *relative*
difficulty ordering of the paper's end-to-end results holds:
Cora and Citeseer are the easiest (clean citation text, ACC ~0.9),
Alaska/DBLP-Google are moderate, Song/Music/Amazon-Google/AS are
harder, and Walmart-Amazon is the hardest (ACC ~0.6, extraction noise).
"""
from __future__ import annotations

from .schema import DatasetSpec, mixed, textual

SPECS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec(
            name="alaska", domain="Product", n_records=12_000, n_entities=1_480,
            attrs=textual(9), noise=0.52, confusability=0.85, seed=101,
        ),
        DatasetSpec(
            name="as", domain="Geo", n_records=2_260, n_entities=330,
            attrs=textual(1), noise=0.88, confusability=0.62, seed=102,
        ),
        DatasetSpec(
            name="song", domain="Music", n_records=4_850, n_entities=1_190,
            attrs=mixed(4, 3, 0), noise=0.92, confusability=0.75, seed=103,
        ),
        DatasetSpec(
            name="music", domain="Music", n_records=19_300, n_entities=10_000,
            attrs=mixed(4, 1, 1), noise=0.93, confusability=0.78, seed=104,
        ),
        DatasetSpec(
            name="dg", domain="Citation", n_records=7_630, n_entities=2_350,
            attrs=mixed(3, 1, 0), noise=0.72, confusability=0.60, seed=105,
        ),
        DatasetSpec(
            name="cora", domain="Citation", n_records=1_290, n_entities=110,
            attrs=textual(12), noise=0.38, confusability=0.55, seed=106,
        ),
        DatasetSpec(
            name="citeseer", domain="Citation", n_records=9_130, n_entities=2_490,
            attrs=mixed(4, 1, 1), noise=0.38, confusability=0.52, seed=107,
        ),
        DatasetSpec(
            name="ag", domain="Software", n_records=2_160, n_entities=990,
            attrs=mixed(2, 1, 0), noise=0.92, confusability=0.75, seed=108,
        ),
        DatasetSpec(
            name="wa", domain="Electronics", n_records=1_810, n_entities=850,
            attrs=mixed(3, 1, 1), noise=0.85, confusability=0.92,
            value_misplacement=0.60, seed=109,
        ),
    ]
}

#: paper display name per spec key (for table rendering)
DISPLAY = {
    "alaska": "Alaska", "as": "AS", "song": "Song", "music": "Music-20K",
    "dg": "DBLP-Google", "cora": "Cora", "citeseer": "Citeseer",
    "ag": "Amazon-Google", "wa": "Walmart-Amazon",
}


def spec(name: str, scale: float = 1.0) -> DatasetSpec:
    """Look up a spec by name, optionally scaled down: the one way to
    scale a dataset."""
    s = SPECS[name]
    return s if scale == 1.0 else s.scaled(scale)
