"""The driver path imports neither the JVM bridge nor the SQL oracle."""
import os
import subprocess
import sys
from pathlib import Path

import repro

# Only these modules may import pyspark (and, for the oracle, duckdb).
SPARK_MODULES = ("repro.core.spark_pipeline", "repro.core.spark_metrics",
                 "repro.oracle")

# Run in a fresh interpreter: the test session itself has pyspark loaded.
_PROBE = f"""
import importlib, pkgutil, sys
import repro
for m in pkgutil.walk_packages(repro.__path__, "repro."):
    if m.name not in {SPARK_MODULES!r}:
        importlib.import_module(m.name)
        print("imported", m.name)
print("loaded", *[n for n in ("pyspark", "duckdb") if n in sys.modules])
"""


def test_driver_modules_import_without_pyspark_or_duckdb():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.splitlines()
    imported = {line.split()[1] for line in out if line.startswith("imported")}
    assert {"repro.core.records", "repro.experiments.harness",
            "repro.embed.hashing"} <= imported
    assert out[-1] == "loaded"
