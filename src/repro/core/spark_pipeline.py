"""Distributed LLM-CER over Spark DataFrames.

Dataflow (DESIGN.md §Layering): the generated dataset becomes a Spark
DataFrame; records are serialized and embedded with a pandas UDF; LSH
band signatures are computed in Spark and shuffled (``groupBy``) into
buckets; bucket co-membership edges are folded into connected
components (blocks); and each block is resolved *independently* inside
``applyInPandas`` running the exact same per-block Algorithm 4 as the
driver path (purification and oversize splitting included). Per-block
ledgers come back as columns and are aggregated with Spark SQL.

The distributed run is *not* byte-identical to the single-process path
(:func:`repro.experiments.harness.run_er`): the driver resolves its
``i``-th block with ``seed + i``, while every Spark block gets the same
``seed``. At Alaska scale 0.25, seed 0, Spark makes 689 LLM calls and
the driver 700. The integration tests enforce that every record is
assigned exactly once and that the two paths' FP-measures differ by
less than 0.15 on the same data, nothing stronger.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType, LongType, StringType, StructField, StructType,
)

from ..datasets.schema import DatasetSpec
from ..embed.hashing import DEFAULT_DIM, embed_udf
from ..embed.hashing import tokens as _tokens
from ..llm.profiles import GPT_4O_MINI, PROFILES, LLMProfile
from ..llm.simulated import SimulatedLLM
from .records import Record, serialize_frame, strip_attr_labels
from .unionfind import UnionFind


def records_df(
    spark: SparkSession, pdf: pd.DataFrame, spec: DatasetSpec
) -> DataFrame:
    """Dataset frame → Spark DF with serialized text and embeddings."""
    base = pdf[["record_id", "entity_id"]].copy()
    base["text"] = serialize_frame(pdf, spec)
    df = spark.createDataFrame(base)
    emb_text = F.udf(strip_attr_labels, StringType())(F.col("text"))
    return df.withColumn("vec", embed_udf(DEFAULT_DIM)(emb_text))


def lsh_assign_blocks(
    df: DataFrame,
    *,
    n_bands: int = 6,
    band_bits: int = 5,
    threshold: float = 0.35,
    seed: int = 0,
) -> DataFrame:
    """Add a ``block_id`` column via distributed LSH bucketing.

    Band signatures are computed per record with a pandas UDF; the
    (band, signature) → records shuffle happens in Spark. Candidate
    pairs within a bucket are verified against the cosine threshold
    ``b_t`` (same rule as :func:`repro.blocking.lsh.lsh_blocks`) and
    the union-find over verified edges runs on the driver — the edge
    list is tiny relative to the data.
    """
    dim = DEFAULT_DIM

    @F.pandas_udf(StringType())
    def _sigs(vecs: pd.Series) -> pd.Series:
        g = np.random.default_rng(seed)
        planes = [g.normal(size=(band_bits, dim)) for _ in range(n_bands)]
        out = []
        for v in vecs:
            a = np.asarray(v, dtype=np.float64)
            sig = [
                int(((a @ p.T) > 0) @ (1 << np.arange(band_bits)))
                for p in planes
            ]
            out.append(",".join(map(str, sig)))
        return pd.Series(out)

    with_sig = df.withColumn("sigs", _sigs(F.col("vec")))
    exploded = (
        with_sig.select(
            "record_id", F.posexplode(F.split("sigs", ","))
        )
        .withColumnRenamed("pos", "band")
        .withColumnRenamed("col", "sig")
    )
    # bucket shuffle: records sharing (band, sig) land in one group
    buckets = exploded.groupBy("band", "sig").agg(
        F.collect_list("record_id").alias("rids")
    )
    vec_rows = df.select("record_id", "vec").collect()
    vec_of = {
        int(r["record_id"]): np.asarray(r["vec"], dtype=np.float64)
        for r in vec_rows
    }
    edges: list[tuple[int, int]] = []
    from ..embed.similarity import cosine_matrix

    for row in buckets.select("rids").collect():
        rids = [int(x) for x in row["rids"]]
        if len(rids) < 2:
            continue
        sub = cosine_matrix(np.stack([vec_of[r] for r in rids]))
        ii, kk = np.where(np.triu(sub, 1) >= threshold)
        edges.extend((rids[int(a)], rids[int(c)]) for a, c in zip(ii, kk))
    uf = UnionFind(vec_of)
    for a, b in edges:
        uf.union(a, b)
    mapping = [(rid, uf.find(rid)) for rid in vec_of]
    spark = df.sparkSession
    block_map = spark.createDataFrame(mapping, ["record_id", "block_id"])
    return df.drop("sigs").join(block_map, on="record_id", how="inner")


_RESULT_SCHEMA = StructType(
    [
        StructField("record_id", LongType()),
        StructField("block_id", LongType()),
        StructField("label", StringType()),
        StructField("n_calls", LongType()),
        StructField("in_tokens", LongType()),
        StructField("out_tokens", LongType()),
        StructField("sim_time_s", DoubleType()),
        StructField("level_counts", StringType()),
    ]
)


def resolve_blocks_distributed(
    blocked: DataFrame,
    *,
    profile: LLMProfile = GPT_4O_MINI,
    s_s: int = 9,
    s_d: int = 4,
    use_mdg: bool = True,
    purify_threshold: float = 0.35,
    max_block_size: int = 200,
    seed: int = 0,
) -> DataFrame:
    """applyInPandas per-block Algorithm 4 → assignments + ledgers.

    Output columns: record_id, block_id, ``label`` (globally unique
    string ``block/sub/local``), per-block ledger totals (repeated on
    each of the block's rows — aggregate with ``ledger_totals``), and
    the block's per-level record-set counts as a CSV string.
    """
    profile_name = profile.name

    def _resolve(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        from ..blocking.lsh import purify_block, split_oversized
        from .pipeline import resolve_block

        block_id = int(key[0])
        recs = [
            Record(
                rid=int(row.record_id),
                text=row.text,
                vec=np.asarray(row.vec, dtype=np.float32),
                tokens=_tokens(row.text),
            )
            for row in pdf.itertuples()
        ]
        truth = dict(
            zip(pdf["record_id"].astype(int), pdf["entity_id"].astype(int))
        )
        llm = SimulatedLLM(truth, PROFILES[profile_name], seed=seed)
        rows = []
        sub = 0
        level_counts: list[int] = []
        for part in split_oversized(recs, max_block_size, seed):
            for blk in purify_block(part, purify_threshold):
                res = resolve_block(
                    blk, llm, s_s=s_s, s_d=s_d, use_mdg=use_mdg, seed=seed
                )
                for i, cnt in enumerate(res.level_set_counts):
                    if i >= len(level_counts):
                        level_counts.append(0)
                    level_counts[i] += cnt
                for rid, lab in res.assignment.items():
                    rows.append((rid, block_id, f"{block_id}/{sub}/{lab}"))
                sub += 1
        led = llm.ledger
        return pd.DataFrame(
            {
                "record_id": [r[0] for r in rows],
                "block_id": [r[1] for r in rows],
                "label": [r[2] for r in rows],
                "n_calls": led.n_calls,
                "in_tokens": led.in_tokens,
                "out_tokens": led.out_tokens,
                "sim_time_s": led.sim_time_s,
                "level_counts": ",".join(map(str, level_counts)) or "0",
            }
        )

    return blocked.groupBy("block_id").applyInPandas(
        _resolve, schema=_RESULT_SCHEMA
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
