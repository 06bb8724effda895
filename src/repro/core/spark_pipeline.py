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
Algorithm 4 as the driver path. Per-block ledgers come back as columns
and are aggregated with Spark SQL. Spark thus distributes the embedding
and the per-block resolution; blocking itself runs once, on the driver.

The distributed run gives exactly the single-process result
(:func:`repro.experiments.harness.run_er` with ``method="llm_cer"``) on
the same records: the blocks are ``lsh_blocks``'s list, block ``i`` is
resolved over its records in ``record_id`` order with ``seed + i``, and
the oracle is seeded per call from record ids, so the partition and the
ledger's integer columns are equal; the summed ``sim_time_s`` differs
only by float summation order. The integration tests enforce this, also
with the input frames cached first (a different physical plan).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType, DoubleType, FloatType, LongType, StringType, StructField,
    StructType,
)

from ..blocking.lsh import lsh_blocks
from ..datasets.schema import DatasetSpec
from ..llm.profiles import GPT_4O_MINI, PROFILES, LLMProfile
from ..llm.simulated import SimulatedLLM
from .records import embed_texts, make_records, serialize_frame


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
    recs = make_records(pdf["record_id"], pdf["text"], pdf.pop("vec"))
    block_of = {
        r.rid: bi for bi, blk in enumerate(lsh_blocks(recs, seed=seed))
        for r in blk
    }
    del recs  # vectors and token sets go before the frame is copied out
    pdf["block_id"] = pdf["record_id"].map(block_of).astype("int64")
    return df.sparkSession.createDataFrame(
        pdf, "record_id long, entity_id long, text string, block_id long"
    )


_RESULT_SCHEMA = StructType(
    [
        StructField("record_id", LongType()),
        StructField("block_id", LongType()),
        StructField("label", StringType()),
        StructField("n_calls", LongType()),
        StructField("in_tokens", LongType()),
        StructField("out_tokens", LongType()),
        StructField("sim_time_s", DoubleType()),
    ]
)


def resolve_blocks_distributed(
    blocked: DataFrame,
    *,
    profile: LLMProfile = GPT_4O_MINI,
    s_s: int = 9,
    s_d: int = 4,
    use_mdg: bool = True,
    seed: int = 0,
) -> DataFrame:
    """applyInPandas per-block Algorithm 4 → assignments + ledgers.

    Block ``b`` is resolved over its records in ``record_id`` order
    with ``seed + b``, as the driver path resolves its ``b``-th block.
    Output columns: record_id, block_id, ``label`` (globally unique
    string ``block/local``) and per-block ledger totals (repeated on
    each of the block's rows — aggregate with ``ledger_totals``).

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
    profile_name = profile.name

    def _resolve(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        from .pipeline import resolve_block

        block_id = int(key[0])
        pdf = pdf.sort_values("record_id")
        truth = dict(
            zip(pdf["record_id"].astype(int), pdf["entity_id"].astype(int))
        )
        llm = SimulatedLLM(truth, PROFILES[profile_name], seed=seed)
        recs = make_records(
            pdf["record_id"], pdf["text"], embed_texts(pdf["text"])
        )
        res = resolve_block(
            recs, llm, s_s=s_s, s_d=s_d, use_mdg=use_mdg,
            seed=seed + block_id,
        )
        led = llm.ledger
        return pd.DataFrame(
            {
                "record_id": list(res.assignment),
                "block_id": block_id,
                "label": [
                    f"{block_id}/{lab}" for lab in res.assignment.values()
                ],
                "n_calls": led.n_calls,
                "in_tokens": led.in_tokens,
                "out_tokens": led.out_tokens,
                "sim_time_s": led.sim_time_s,
            }
        )

    n_tasks = blocked.sparkSession.sparkContext.defaultParallelism
    return (
        blocked.repartition(n_tasks, "block_id")
        .groupBy("block_id")
        .applyInPandas(_resolve, schema=_RESULT_SCHEMA)
    )


def ledger_totals(result: DataFrame) -> dict[str, float]:
    """Aggregate the per-block ledger columns (one value per block)."""
    per_block = result.groupBy("block_id").agg(
        F.first("n_calls").alias("n_calls"),
        F.first("in_tokens").alias("in_tokens"),
        F.first("out_tokens").alias("out_tokens"),
        F.first("sim_time_s").alias("sim_time_s"),
    )
    row = per_block.agg(
        F.sum("n_calls").alias("n_calls"),
        F.sum("in_tokens").alias("in_tokens"),
        F.sum("out_tokens").alias("out_tokens"),
        F.sum("sim_time_s").alias("sim_time_s"),
    ).collect()[0]
    return {
        "n_calls": int(row["n_calls"] or 0),
        "in_tokens": int(row["in_tokens"] or 0),
        "out_tokens": int(row["out_tokens"] or 0),
        "sim_time_s": float(row["sim_time_s"] or 0.0),
    }


def assignment_from_result(result: DataFrame) -> dict[int, int]:
    """Collect the distributed labels into a rid → dense-int map."""
    rows = result.select("record_id", "label").collect()
    remap: dict[str, int] = {}
    return {
        int(r["record_id"]): remap.setdefault(r["label"], len(remap))
        for r in rows
    }
