"""Reproduction of "In-context Clustering-based Entity Resolution with
Large Language Models: A Design Space Exploration" (SIGMOD 2025).

Subpackages
-----------
``datasets``
    Synthetic dirty-ER dataset generators matching the paper's Table 1.
``embed``
    Feature-hashing record embeddings + similarity kernels (stand-in
    for all-MiniLM-L6-v2, which is unavailable offline).
``llm``
    The simulated LLM oracle: in-context clustering / pairwise matching
    with a calibrated error model plus token/cost/latency accounting.
``blocking``
    LSH, filtering (prefix-filtered Jaccard join) and canopy blocking
    substrates in NumPy/Python. The Spark pipeline blocks with the
    same ``lsh_blocks`` (``core.spark_pipeline.lsh_assign_blocks``).
``core``
    The paper's contribution: NRS (Alg. 1), MDG (Alg. 2), CMR (Alg. 3),
    the end-to-end per-block pipeline (Alg. 4), clustering metrics, and
    the distributed Spark pipeline.
``baselines``
    Pairwise matching, BQ (batched pairwise), Booster, CrowdER+LLM and
    simulated PLM matchers (Ditto / DeepMatcher).
``experiments``
    The harness, key-factor sweeps and per-table builders used by
    ``jobs/`` and ``benchmarks/``.
"""

__version__ = "0.1.0"
