"""Distributed LLM-CER over Spark DataFrames.

Dataflow (DESIGN.md §Layering): the generated dataset becomes a Spark
DataFrame; records are serialized and embedded by one pandas UDF over
:func:`repro.core.records.embed_texts`, the driver path's embedder; the
embedded records are collected to the driver and blocked by the one LSH
blocking function, :func:`repro.blocking.lsh.lsh_blocks`; the collected
rows, less their vectors, become a new frame with a ``block_id``
column, hash-partitioned on ``block_id`` into one partition per core,
and each block is resolved *independently* inside ``applyInPandas``,
which embeds the block's texts again and runs the same per-block
Algorithm 4 as the driver path. Each block comes back as one row: its
record ids, their block-local labels and the block's ledger counts,
which Spark SQL sums. Spark thus distributes the embedding and the
per-block resolution; blocking itself runs once, on the driver.

The distributed run gives exactly the single-process result
(:func:`repro.experiments.harness.run_er` with ``method="llm_cer"``) on
the same records: the blocks are ``lsh_blocks``'s list, block ``i`` is
resolved over its records in ``record_id`` order with ``seed + i``, and
the oracle is seeded per call from record ids, so each block's labels
and ledger counts are equal; both paths number the labels with
:func:`repro.core.pipeline.number_labels` in block order and derive
cost and time from the summed counts. The integration tests enforce
this, also with the input frames cached first (a different physical
plan).
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, FloatType

from ..blocking.lsh import lsh_blocks
from ..datasets.schema import DatasetSpec
from ..llm.accounting import Ledger
from ..llm.profiles import GPT_4O_MINI
from ..llm.simulated import SimulatedLLM
from .pipeline import number_labels, resolve_block
from .records import Record, embed_texts, make_records, serialize_frame


@F.pandas_udf(ArrayType(FloatType()))
def _embed(texts: pd.Series) -> pd.Series:
    """Serialized text column → embedding column, as ``build_records``."""
    return pd.Series(list(embed_texts(texts)))


def records_df(
    spark: SparkSession, pdf: pd.DataFrame, spec: DatasetSpec
) -> DataFrame:
    """Dataset frame → Spark DF with serialized text and embeddings."""
    base = pdf[["record_id", "entity_id"]].copy()
    base["text"] = serialize_frame(pdf, spec)
    df = spark.createDataFrame(
        base, "record_id long, entity_id long, text string"
    )
    return df.withColumn("vec", _embed(F.col("text")))


def _blocking_records(
    rids: Iterable[int], vecs: Iterable[np.ndarray]
) -> list[Record]:
    """Records for ``lsh_blocks``, which reads only ``rid`` and ``vec``:
    no text and no token set (``make_records`` would build one per
    record that blocking never reads)."""
    return [
        Record(int(rid), "", np.asarray(vec, dtype=np.float32), frozenset())
        for rid, vec in zip(rids, vecs)
    ]


def lsh_assign_blocks(df: DataFrame, *, seed: int = 0) -> DataFrame:
    """``records_df``'s frame → its rows with their block in ``lsh_blocks``.

    The records are collected in ``record_id`` order (the order of
    :func:`repro.experiments.harness.prepare`'s records) and blocked by
    :func:`repro.blocking.lsh.lsh_blocks`; ``block_id`` is the block's
    position in that list, the ``i`` the driver path resolves it with.

    The result is a new frame built from the collected rows, with the
    columns ``record_id``, ``entity_id``, ``text`` and ``block_id``.
    It has no ``vec``: shipping the vectors back from the driver costs
    more driver memory than re-embedding a block's texts costs its task
    (``embed_texts`` gives each row the same vector in any batch). Being
    a new frame, it never re-runs ``df``'s embedding UDF.
    """
    pdf = df.select("record_id", "entity_id", "text", "vec").toPandas()
    pdf = pdf.sort_values("record_id", ignore_index=True)
    recs = _blocking_records(pdf["record_id"], pdf.pop("vec"))
    block_of = {
        r.rid: bi for bi, blk in enumerate(lsh_blocks(recs, seed=seed))
        for r in blk
    }
    del recs  # the vectors go before the frame is copied out
    pdf["block_id"] = pdf["record_id"].map(block_of).astype("int64")
    return df.sparkSession.createDataFrame(
        pdf, "record_id long, entity_id long, text string, block_id long"
    )


_RESULT_SCHEMA = (
    "block_id long, record_ids array<long>, labels array<long>,"
    " n_calls long, in_tokens long, out_tokens long"
)


def resolve_blocks_distributed(
    blocked: DataFrame, *, seed: int = 0
) -> DataFrame:
    """applyInPandas per-block Algorithm 4 → one row per block.

    Block ``b`` is resolved over its records in ``record_id`` order
    with ``seed + b``, as the driver path resolves its ``b``-th block.
    Output columns: ``block_id``, ``record_ids`` and their block-local
    ``labels`` (both in the order of the block's assignment), and the
    block's ledger ``n_calls``, ``in_tokens`` and ``out_tokens`` (sum
    them with ``ledger_totals``).

    The blocks are hash-partitioned on ``block_id`` into
    ``defaultParallelism`` partitions, one task per core, and the
    grouping reuses that exchange. Left to ``groupBy``'s own exchange,
    the task count depends on the caller: a cached result keeps all
    ``spark.sql.shuffle.partitions`` partitions (AQE may not change a
    cached plan's output partitioning), so each of the many small tasks
    pays a task's fixed cost for a few blocks; uncached, AQE coalesces
    the small shuffle into one partition, and one Python worker resolves
    every block in turn.
    """

    def _resolve(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        block_id = int(key[0])
        pdf = pdf.sort_values("record_id")
        truth = dict(
            zip(pdf["record_id"].astype(int), pdf["entity_id"].astype(int))
        )
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=seed)
        recs = make_records(
            pdf["record_id"], pdf["text"], embed_texts(pdf["text"])
        )
        res = resolve_block(recs, llm, seed=seed + block_id)
        led = llm.ledger
        return pd.DataFrame(
            {
                "block_id": [block_id],
                "record_ids": [list(res.assignment)],
                "labels": [list(res.assignment.values())],
                "n_calls": [led.n_calls],
                "in_tokens": [led.in_tokens],
                "out_tokens": [led.out_tokens],
            }
        )

    n_tasks = blocked.sparkSession.sparkContext.defaultParallelism
    return (
        blocked.repartition(n_tasks, "block_id")
        .groupBy("block_id")
        .applyInPandas(_resolve, schema=_RESULT_SCHEMA)
    )


def ledger_totals(result: DataFrame) -> dict[str, float]:
    """Sum the per-block ledger counts; ``sim_time_s`` is derived from
    the sums, as ``Ledger`` derives it."""
    counts = ("n_calls", "in_tokens", "out_tokens")
    row = result.agg(*(F.sum(c).alias(c) for c in counts)).collect()[0]
    led = {c: int(row[c] or 0) for c in counts}
    return {**led, "sim_time_s": Ledger(GPT_4O_MINI, **led).sim_time_s}


def assignment_from_result(result: DataFrame) -> dict[int, int]:
    """Collect the blocks' labels into a rid → dense-int map, numbered
    by :func:`repro.core.pipeline.number_labels` in ``block_id`` order
    (sorted on the driver: an ``orderBy`` would add a sort stage)."""
    rows = result.select("block_id", "record_ids", "labels").collect()
    rows.sort(key=lambda r: r["block_id"])
    return number_labels(zip(r["record_ids"], r["labels"]) for r in rows)
