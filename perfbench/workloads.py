"""Workloads and the passes that run them.

A workload is a dataset, a scale and the methods run on it. ``--seed n``
regenerates the dataset with ``spec.seed + n`` (seed 0 is the paper-size
spec's own data); the program only receives the generated records.

Driver workloads call ``harness.run_er(..., prepared=(recs, truth))`` for
each method, so generation and embedding stay in set-up. The Spark
workload runs the ``jobs/run_pipeline.py`` dataflow step for step.
"""
from __future__ import annotations

import gc
import math
import os
import shlex
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines.bq import annotation_cost
from repro.blocking import BLOCKERS
from repro.core import metrics as core_metrics, pipeline
from repro.datasets import generator
from repro.datasets.registry import SPECS
from repro.experiments import harness
from repro.llm.accounting import Ledger
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM

from checks import check_cost, check_run, digest
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    scale: float
    methods: tuple[str, ...]
    spark: bool = False
    min_passes: int = 3  # an untraced run measures at least this many passes


# Scales keep one run (set-up, at least min_passes passes, checks) within
# the run-time budget. A Walmart-Amazon Table-4 workload is left out: its
# few large blocks make the pass time of a dataset seed vary by ~30%
# (quartile spread over the median) at every scale that fits the budget,
# wider than any bound the benchmark could hold.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "alaska-cer",
            "Alaska llm_cer, many mid-size LSH blocks: NRS is ~60% of a pass,"
            " the oracle ~15%, MDG and CMR ~5% each; embedding is ~60% of"
            " set-up",
            "alaska", 0.25, ("llm_cer",),
        ),
        Workload(
            "music-table4",
            "Music-20K Table-4 row (llm_cer, crowder, booster, bq), mostly"
            " singleton blocks: quadratic all_metrics ~75% of a pass, booster"
            " ~12%, NRS/MDG/CMR ~1% each",
            "music", 0.1, ("llm_cer", "crowder", "booster", "bq"),
        ),
        Workload(
            "spark-alaska",
            "jobs/run_pipeline.py dataflow on Alaska in local-mode Spark: the"
            " only workload that runs core.spark_pipeline",
            "alaska", 0.25, ("llm_cer",), spark=True,
            # a pass takes ~13 s and varies ~3% within a run on 4 vCPUs;
            # two keep the run within the budget of the benchmark's runs
            min_passes=2,
        ),
    ]
}

SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_TRACED = 2  # a traced run: at least this many traced passes
# The Spark path's output depends on the core count and partitioning (row
# order inside a block). The session is the job's own (64 shuffle
# partitions); the core count is pinned here. Both are printed with every
# run.
SPARK_CORES = min(4, os.cpu_count() or 1)
PROFILE = GPT_4O_MINI


def workload_spec(wl: Workload, seed: int, scale: float):
    base = SPECS[wl.dataset]
    return replace(base, seed=base.seed + seed).scaled(scale)


@dataclass
class MethodRun:
    """One method's output from one pass, as the checks see it."""

    method: str
    n_records: int
    acc: float
    fp: float
    n_calls: int
    tokens_m: float
    cost_usd: float
    sim_min: float
    digest: str
    errors: list[str]


PassFn = Callable[[int, bool], "tuple[float, list[MethodRun]]"]


class Runner:
    """Shared pass bookkeeping: timings, checks, digests, cross-checks."""

    def __init__(self, wl: Workload, trace: bool):
        self.wl = wl
        self.trace = trace
        self.tracer = Tracer()
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.last: list[MethodRun] = []  # the last untraced pass
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []
        self.layer_passes: list[dict[str, float]] = []
        self.layer_setups: list[dict[str, float]] = []
        self.env: dict[str, object] = {}

    def record(self, runs: list[MethodRun], traced: bool = False) -> None:
        """Count the runs and their failures. Each pass must repeat the
        first pass's digest. A traced Spark pass caches every stage, which
        changes the plan and, a known defect of the Spark path, the output;
        it is compared only with other traced passes."""
        for r in runs:
            self.attempted += 1
            errs = list(r.errors)
            key = r.method + (" traced" if traced and self.wl.spark else "")
            seen = self.digests.setdefault(key, r.digest)
            if seen != r.digest:
                errs.append(f"digest {r.digest} differs from first pass {seen}")
            if errs:
                self.failed += 1
                self.notes.extend(f"FAIL {key}: {e}" for e in errs)
        if not traced:
            self.last = runs

    def measure(self, seconds: float, run_pass: PassFn) -> None:
        """Passes until the next one would end after ``seconds`` (and at
        least the workload's ``min_passes``). Traced: alternate plain and
        traced passes, so the tracing overhead is measured on the same data
        in the same process (at least MIN_TRACED traced passes). A traced
        Spark pass runs another plan than a plain one (every stage is
        cached), so the two are not compared and a traced Spark run makes
        traced passes only."""
        kinds = (False, True) if self.trace else (False,)
        if self.trace and self.wl.spark:
            kinds = (True,)
        t0 = time.perf_counter()
        k = 0
        while True:
            if self.trace:
                done = len(self.traced_pass_s) >= MIN_TRACED
            else:
                done = len(self.pass_s) >= self.wl.min_passes
            elapsed = time.perf_counter() - t0
            if done and elapsed + elapsed / k > seconds:
                break
            for traced in kinds:
                gc.collect()  # no pass pays for the last one's garbage
                dt, runs = run_pass(k, traced)
                (self.traced_pass_s if traced else self.pass_s).append(dt)
                self.record(runs, traced)
            k += 1

    # -------------------------------------------------------------- output

    def end_to_end(self) -> dict[str, float]:
        runs = self.last
        er = statistics.median(self.pass_s)
        head = next(r for r in runs if r.method == "llm_cer")
        return {
            "setup_s": statistics.median(self.setup_s),
            "er_wall_s": er,
            "records_per_s": sum(r.n_records for r in runs) / er,
            "acc": head.acc,
            "fp": head.fp,
            "llm_calls": float(sum(r.n_calls for r in runs)),
            "llm_tokens_m": sum(r.tokens_m for r in runs),
            "llm_cost_usd": sum(r.cost_usd for r in runs),
            "llm_sim_min": sum(r.sim_min for r in runs),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for group in (self.layer_setups, self.layer_passes):
            keys = {k for d in group for k in d}
            for key in keys:
                out[key] = statistics.median(d[key] for d in group if key in d)
        if self.pass_s:  # not on Spark: see measure
            out["trace.overhead_frac"] = (
                statistics.median(self.traced_pass_s)
                / statistics.median(self.pass_s) - 1.0
            )
        return out


# ----------------------------------------------------------- driver path


def _install_driver_tracer(tr: Tracer) -> None:
    def n_out(args, kwargs, out):
        return len(out)

    # oracle spans count the API calls the method makes, taken from its
    # arguments, so the sum can be checked against the ledger
    def cluster_calls(args, kwargs, out):
        return int(bool(args[1]) and kwargs.get("_account", True))

    def batch_calls(args, kwargs, out):
        return int(bool(args[1]))

    def pairs_calls(args, kwargs, out):
        return math.ceil(len(args[1]) / kwargs.get("pairs_per_call", 5))

    def block_stats(args, kwargs, out):
        sizes = [len(b) for b in out]
        return {
            "n_blocks": len(sizes),
            "max_block": max(sizes, default=0),
            "singleton_block_frac": (
                sum(s == 1 for s in sizes) / len(sizes) if sizes else 0.0
            ),
        }

    tr.wrap(BLOCKERS, "lsh", "blocking.lsh_blocks", block_stats)
    tr.wrap(harness, "resolve_block", "pipeline.resolve_block")
    tr.wrap(pipeline, "record_sets_for_block", "nrs.record_sets_for_block", n_out)
    tr.wrap(pipeline, "cluster_with_guardrail", "mdg.cluster_with_guardrail")
    tr.wrap(pipeline, "build_round_sets", "cmr.build_round_sets", n_out)
    tr.wrap(pipeline, "apply_merge_result", "cmr.apply_merge_result")
    tr.wrap(SimulatedLLM, "cluster_records", "llm.cluster_records", cluster_calls)
    tr.wrap(SimulatedLLM, "cluster_batch", "llm.cluster_batch", batch_calls)
    tr.wrap(SimulatedLLM, "match_pair", "llm.match_pair")
    tr.wrap(
        SimulatedLLM, "match_pairs_batched", "llm.match_pairs_batched",
        pairs_calls,
    )
    for m in ("crowder", "booster", "bq"):
        tr.wrap(harness, f"{m}_er_block", f"baselines.{m}_er_block")
    tr.wrap(harness, "all_metrics", "metrics.all_metrics")


_LLM_SPANS = (
    "llm.cluster_records", "llm.cluster_batch", "llm.match_pair",
    "llm.match_pairs_batched",
)


def driver_layer_metrics(tr: Tracer, prefix: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans whose run id has
    ``prefix``)."""
    selfs = tr.self_times()
    idx = [i for i, s in enumerate(tr.spans) if s.run_id.startswith(prefix)]
    by: dict[str, list[int]] = {}
    for i in idx:
        by.setdefault(tr.spans[i].name, []).append(i)

    def tot(name: str) -> float:
        return sum(tr.spans[i].dur for i in by.get(name, []))

    def self_(name: str) -> float:
        return sum(selfs[i] for i in by.get(name, []))

    def num(name: str) -> int:
        return len(by.get(name, []))

    def n(name: str) -> int:
        return sum(tr.spans[i].n for i in by.get(name, []))

    out = {
        "blocking.lsh_blocks_s": tot("blocking.lsh_blocks"),
        "pipeline.resolve_block_self_s": self_("pipeline.resolve_block"),
        "pipeline.blocks_resolved": float(num("pipeline.resolve_block")),
        "nrs.record_sets_for_block_s": tot("nrs.record_sets_for_block"),
        "nrs.record_sets": float(n("nrs.record_sets_for_block")),
        "mdg.cluster_with_guardrail_self_s": self_("mdg.cluster_with_guardrail"),
        "mdg.guarded_sets": float(num("mdg.cluster_with_guardrail")),
        "cmr.build_round_sets_s": tot("cmr.build_round_sets"),
        "cmr.apply_merge_result_s": tot("cmr.apply_merge_result"),
        "cmr.rounds": float(
            sum(tr.spans[i].n > 0 for i in by.get("cmr.build_round_sets", []))
        ),
        "cmr.round_sets": float(n("cmr.build_round_sets")),
        "metrics.all_metrics_s": tot("metrics.all_metrics"),
        "metrics.calls": float(num("metrics.all_metrics")),
        "trace.spans": float(len(idx)),
    }
    for m in ("crowder", "booster", "bq"):
        out[f"baselines.{m}_er_block_self_s"] = self_(f"baselines.{m}_er_block")
    for name in ("llm.cluster_records", "llm.match_pair", "llm.match_pairs_batched"):
        out[f"{name}_s"] = tot(name)
        out[f"{name}_n"] = float(n(name))
    calls = sum(n(s) for s in _LLM_SPANS)
    out["llm.us_per_call"] = (
        sum(tot(s) for s in _LLM_SPANS) / calls * 1e6 if calls else 0.0
    )
    mdg = set(by.get("mdg.cluster_with_guardrail", []))
    in_mdg = sum(
        tr.spans[i].n for name in _LLM_SPANS for i in by.get(name, [])
        if tr.spans[i].parent in mdg
    )
    out["mdg.attempts_per_set"] = in_mdg / len(mdg) if mdg else 0.0
    blocks = by.get("blocking.lsh_blocks", [])
    if blocks:
        for key, val in tr.spans[blocks[-1]].extra.items():
            out[f"blocking.{key}"] = float(val)
    block_ms = [tr.spans[i].dur * 1e3 for i in by.get("pipeline.resolve_block", [])]
    if block_ms:
        out["pipeline.block_p50_ms"] = float(np.percentile(block_ms, 50))
        out["pipeline.block_p90_ms"] = float(np.percentile(block_ms, 90))
    return out


def cross_check(tr: Tracer, run_id: str, res, ledger: Ledger) -> list[str]:
    """The tracer's counts must agree with the program's own counters."""
    spans = [s for s in tr.spans if s.run_id == run_id]

    def n(name: str) -> int:
        return sum(s.n for s in spans if s.name == name)

    errors = []
    calls = sum(n(name) for name in _LLM_SPANS)
    if calls != ledger.n_calls:
        errors.append(f"traced oracle calls {calls} != ledger {ledger.n_calls}")
    if res.method == "llm_cer":
        lc = res.level_counts
        if n("nrs.record_sets_for_block") != (lc[0] if lc else 0):
            errors.append(
                f"traced NRS sets {n('nrs.record_sets_for_block')} != level 0 "
                f"{lc[:1]}"
            )
        if n("cmr.build_round_sets") != sum(lc[1:]):
            errors.append(
                f"traced CMR sets {n('cmr.build_round_sets')} != levels 1+ "
                f"{sum(lc[1:])}"
            )
    return errors


def run_driver(
    wl: Workload, seed: int, seconds: float, scale: float, runner: Runner
) -> None:
    spec = workload_spec(wl, seed, scale)
    tr = runner.tracer
    if runner.trace:
        tr.wrap(harness, "generate", "datasets.generate")
        tr.wrap(harness, "build_records", "records.build_records")
    prepared = None
    for k in range(SETUP_REPS):
        prepared = None  # drop the last copy first: peak RSS is one copy's
        tr.run_id = f"setup{k}"
        t0 = time.perf_counter()
        prepared = harness.prepare(spec)[1:]
        runner.setup_s.append(time.perf_counter() - t0)
        if runner.trace:
            runner.layer_setups.append({
                name + "_s": sum(s.dur for s in tr.spans
                                 if s.run_id == tr.run_id and s.name == name)
                for name in ("datasets.generate", "records.build_records")
            })
    tr.restore()
    recs, truth = prepared
    ids = {r.rid for r in recs}

    llms: list[SimulatedLLM] = []

    def capture(*args, **kwargs):
        llm = SimulatedLLM(*args, **kwargs)
        llms.append(llm)
        return llm

    # the cost check needs each run's ledger, which RunResult does not
    # carry; the oracle is built once per run_er, so this costs nothing
    harness.SimulatedLLM = capture

    def run_pass(k: int, traced: bool) -> tuple[float, list[MethodRun]]:
        results = []
        if traced:
            _install_driver_tracer(tr)
        t0 = time.perf_counter()
        try:
            for m in wl.methods:
                tr.run_id = f"pass{k}/{m}"
                llms.clear()
                with tr.span("harness.run_er") if traced else nullcontext():
                    res = harness.run_er(spec, m, prepared=prepared)
                results.append((res, llms[-1]))
        finally:
            dt = time.perf_counter() - t0
            tr.restore()
        runs = []
        for res, llm in results:
            led = llm.ledger
            errors = check_run(
                res.assignment, truth, ids,
                {"acc": res.acc, "fp": res.fp, "nmi": res.nmi, "ari": res.ari},
            ) + check_cost(
                res.cost_usd, led.in_tokens, led.out_tokens, llm.profile,
                annotation_cost() if res.method == "bq" else 0.0,
            )
            if traced:
                errors += cross_check(tr, f"pass{k}/{res.method}", res, led)
            runs.append(MethodRun(
                res.method, len(recs), res.acc, res.fp, res.n_calls,
                res.tokens_m, res.cost_usd, res.time_min,
                digest(res.assignment, led.snapshot()), errors,
            ))
        if traced:
            runner.layer_passes.append(driver_layer_metrics(tr, f"pass{k}/"))
        return dt, runs

    runner.measure(seconds, run_pass)


# ------------------------------------------------------------ Spark path


def start_spark(root: Path, out: Path):
    """The session of ``jobs/run_pipeline.py`` (``jobs/_common.spark_session``),
    with the master pinned to SPARK_CORES and scratch files kept under
    ``out``, both through ``PYSPARK_SUBMIT_ARGS``, which the job's builder
    only sets if it is unset. Executors import ``repro`` from ``src``.
    """
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )
    local = out / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)  # overrides spark.local.dir
    java_opts = f"-Djava.io.tmpdir={out / 'tmp'} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{SPARK_CORES}]",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(out / 'warehouse'))}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    sys.path.insert(0, str(root / "jobs"))
    from _common import spark_session

    return spark_session()


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers).

    ``spark.stop()`` leaves the gateway JVM running until the interpreter
    exits; the benchmark waits for every process it started to end.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def run_spark(
    wl: Workload, seed: int, seconds: float, scale: float, runner: Runner,
    root: Path, out: Path,
) -> None:
    import warnings

    from repro.core import spark_pipeline as sp_mod
    from repro.core.spark_metrics import fp_measure_spark

    warnings.filterwarnings("ignore", message="Cannot infer the eval type")
    spec = workload_spec(wl, seed, scale)
    tr = runner.tracer
    t0 = time.perf_counter()
    tr.run_id = "setup0"
    with tr.span("spark.session_start") as s_start:
        spark = start_spark(root, out)
    try:
        runner.env["spark_master"] = spark.sparkContext.master
        runner.env["spark_shuffle_partitions"] = int(
            spark.conf.get("spark.sql.shuffle.partitions"))
        with tr.span("datasets.generate") as s_gen:
            pdf = generator.generate(spec)
        ids = set(pdf.record_id.astype(int))

        def run_pass(k: int, traced: bool) -> tuple[float, list[MethodRun]]:
            """The jobs/run_pipeline.py sequence. Traced, each step is a
            span and each DataFrame step is materialised inside it."""
            tr.run_id = f"pass{k}"

            def step(name: str, fn, materialise: bool = False):
                if not traced:
                    return fn()
                with tr.span(name):
                    got = fn()
                    if materialise:
                        got = got.cache()
                        got.count()
                return got

            t0 = time.perf_counter()
            df = step("spark.records_df",
                      lambda: sp_mod.records_df(spark, pdf, spec), True)
            blocked = step("spark.lsh_assign_blocks",
                           lambda: sp_mod.lsh_assign_blocks(df, seed=0), True)
            result = step(
                "spark.resolve_blocks_distributed",
                lambda: sp_mod.resolve_blocks_distributed(blocked, seed=0).cache(),
                True,
            )
            truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
            assign = step("spark.assignment_collect",
                          lambda: sp_mod.assignment_from_result(result))
            quality = step("spark.driver_metrics",
                           lambda: core_metrics.all_metrics(assign, truth))
            led = step("spark.ledger_totals",
                       lambda: sp_mod.ledger_totals(result))
            rows = [(int(r), int(p), int(truth[r])) for r, p in assign.items()]
            fp_spark = step("spark.driver_metrics", lambda: fp_measure_spark(
                spark.createDataFrame(rows, ["record_id", "pred", "truth"])))
            cost = (
                led["in_tokens"] * PROFILE.input_price_per_m
                + led["out_tokens"] * PROFILE.output_price_per_m
            ) / 1e6
            dt = time.perf_counter() - t0
            if traced:
                sizes = [r["count"] for r in
                         blocked.groupBy("block_id").count().collect()]
                runner.layer_passes.append(
                    spark_layer_metrics(tr, f"pass{k}", sizes))
            for frame in (result, blocked, df):
                frame.unpersist()
            errors = check_run(assign, truth, ids, quality)
            if not abs(fp_spark - quality["fp"]) <= 1e-9:
                errors.append(f"fp_spark={fp_spark!r} != fp={quality['fp']!r}")
            return dt, [MethodRun(
                "llm_cer", len(pdf), quality["acc"], quality["fp"],
                led["n_calls"], (led["in_tokens"] + led["out_tokens"]) / 1e6,
                cost, led["sim_time_s"] / 60.0, digest(assign, led), errors,
            )]

        # warm-up pass (JIT, Python workers) belongs to set-up
        runner.record(run_pass(-1, False)[1])
        runner.setup_s.append(time.perf_counter() - t0)
        runner.layer_setups.append({
            "spark.session_start_s": s_start.dur,
            "datasets.generate_s": s_gen.dur,
        })
        runner.measure(seconds, run_pass)
        if runner.trace:
            _parity(runner, pdf, spec)
    finally:
        stop_spark(spark)


def spark_layer_metrics(tr: Tracer, run_id: str, sizes: list[int]) -> dict:
    out: dict[str, float] = {}
    for s in tr.spans:
        if s.run_id == run_id and s.name.startswith("spark."):
            out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.dur
    out["spark.n_blocks"] = float(len(sizes))
    out["spark.max_block"] = float(max(sizes, default=0))
    out["trace.spans"] = float(sum(s.run_id == run_id for s in tr.spans))
    return out


def _parity(runner: Runner, pdf, spec) -> None:
    """Driver path on the same records, reported beside the Spark run
    (not gated: the two paths are known to differ)."""
    from repro.core.records import build_records

    recs, truth = build_records(pdf, spec)
    res = harness.run_er(spec, "llm_cer", prepared=(recs, truth))
    sp = runner.last[0]
    runner.notes.append(
        f"parity driver: calls={res.n_calls} acc={res.acc:.4f} fp={res.fp:.4f}"
        f" | spark {runner.env['spark_master']}"
        f" partitions={runner.env['spark_shuffle_partitions']}:"
        f" calls={sp.n_calls} acc={sp.acc:.4f} fp={sp.fp:.4f}"
    )
