"""The benchmark's tracer finds every layer it wraps by name.

``perfbench/workloads.py`` times the program from outside by replacing
named functions (``pipeline.cluster_with_guardrail``,
``SimulatedLLM.cluster_records``, ``SimulatedLLM.cluster_batch``, ...)
with span-recording wrappers. Code moved out from under a wrapped name
would silently zero that layer; these tests run a tiny traced pass and
check that the spans still agree with the program's own counters.
"""
import sys
from pathlib import Path

import pytest

from repro.core import mdg, pipeline
from repro.datasets.registry import spec
from repro.experiments import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``workloads`` and ``Tracer``, imported without writing
    into ``perfbench/``."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
        from spans import Tracer
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads, Tracer


def test_traced_runs_match_program_counters(perfbench, monkeypatch):
    workloads, Tracer = perfbench
    sp = spec("cora", 0.05)
    prepared = harness.prepare(sp)[1:]
    make = harness.SimulatedLLM
    llms = []

    def capture(*args, **kwargs):
        llms.append(make(*args, **kwargs))
        return llms[-1]

    monkeypatch.setattr(harness, "SimulatedLLM", capture)
    tr = Tracer()
    workloads._install_driver_tracer(tr)
    runs = []
    try:
        for method, batch in (("llm_cer", 0), ("llm_cer", 4), ("crowder", 0)):
            tr.run_id = f"{method}/{batch}"
            res = harness.run_er(
                sp, method, batch_size=batch, prepared=prepared
            )
            runs.append((tr.run_id, res, llms[-1].ledger))
    finally:
        tr.restore()
    assert pipeline.cluster_with_guardrail is mdg.cluster_with_guardrail

    for run_id, res, ledger in runs:
        assert ledger.n_calls > 0
        assert workloads.cross_check(tr, run_id, res, ledger) == []
    names = {(s.run_id, s.name) for s in tr.spans}
    assert ("llm_cer/0", "mdg.cluster_with_guardrail") in names
    assert ("llm_cer/0", "llm.cluster_records") in names
    assert ("llm_cer/4", "llm.cluster_batch") in names
    assert ("llm_cer/4", "llm.cluster_records") not in names
