"""spark-submit entrypoint for the distributed LLM-CER pipeline.

Runs the full Spark dataflow on one dataset: records DF → embedding
pandas UDF → LSH blocking of the collected records (the driver path's
``lsh_blocks``) → a new frame of those rows with their ``block_id``,
one partition per core → per-block Algorithm 4 via ``applyInPandas`` →
Spark-SQL metric aggregation, and prints quality + ledger totals.
``--seed s`` gives the same result as ``harness.run_er(seed=s)``.
The Spark-SQL FP-measure must equal the driver's to within 1e-9;
otherwise the job exits non-zero with both values.

Usage: ``spark-submit jobs/run_pipeline.py --dataset cora --scale 1.0``
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import make_parser, spark_session


def main() -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--dataset", default="cora")
    args = parser.parse_args()

    from repro.core.metrics import all_metrics
    from repro.core.spark_metrics import fp_measure_spark
    from repro.core.spark_pipeline import (
        assignment_from_result, ledger_totals, lsh_assign_blocks,
        records_df, resolve_blocks_distributed,
    )
    from repro.datasets.generator import generate
    from repro.datasets.registry import spec as get_spec
    from repro.llm.accounting import Ledger
    from repro.llm.profiles import GPT_4O_MINI

    spark = spark_session()
    sp = get_spec(args.dataset, args.scale)
    pdf = generate(sp)
    df = records_df(spark, pdf, sp)
    blocked = lsh_assign_blocks(df)
    result = resolve_blocks_distributed(blocked, seed=args.seed).cache()

    truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
    assign = assignment_from_result(result)
    quality = all_metrics(assign, truth)
    led = ledger_totals(result)

    # Spark-side FP as a cross-check of the Python metric path
    rows = [(int(r), int(p), int(truth[r])) for r, p in assign.items()]
    adf = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
    fp_spark = fp_measure_spark(adf)

    cost = Ledger(
        GPT_4O_MINI, led["n_calls"], led["in_tokens"], led["out_tokens"]
    ).cost_usd
    print(f"dataset={args.dataset} scale={args.scale} records={len(pdf)}")
    print(
        "  quality: "
        + " ".join(f"{k}={v:.3f}" for k, v in quality.items())
        + f" fp_spark={fp_spark:.3f}"
    )
    print(
        f"  ledger: calls={led['n_calls']} tokens={led['in_tokens'] + led['out_tokens']}"
        f" cost_usd={cost:.3f} sim_time_min={led['sim_time_s'] / 60:.1f}"
    )
    spark.stop()
    if abs(fp_spark - quality["fp"]) > 1e-9:
        sys.exit(
            f"FP cross-check failed: fp_spark={fp_spark!r}"
            f" != fp={quality['fp']!r}"
        )


if __name__ == "__main__":
    main()
