"""spark-submit entrypoint reproducing one paper table.

Usage: ``spark-submit jobs/run_table.py --table table4 [--scale 1.0] [--seed 0] [--out x.csv]``
(or plain ``python jobs/run_table.py --table table4``; the builders themselves
are pure Python — Spark is exercised by ``jobs/run_pipeline.py`` and the test
suite). ``--table`` takes any key of ``repro.experiments.tables.TABLES``;
``--out`` writes the CSV as ``jobs/build_experiments_md.py`` publishes it.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import emit, make_parser, write_table

from repro.experiments.tables import TABLES, Runs


def main() -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--table", required=True, choices=list(TABLES))
    parser.add_argument(
        "--out", default="", help="optional CSV path for the table",
    )
    args = parser.parse_args()
    title, build = TABLES[args.table]
    df = build(Runs(args.scale, args.seed))
    emit(df, title)
    if args.out:
        write_table(df, args.out)
        print(f"written: {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
