"""The paper's core contribution: NRS, MDG, CMR, the end-to-end
pipeline (Algorithm 4), metrics, and the distributed Spark variant."""
from .cmr import Item, apply_merge_result, build_round_sets, representative
from .factors import order_sequentially, sequentiality, set_variation
from .mdg import (
    cluster_with_guardrail, misclustered, regenerate_order, structurally_valid,
)
from .metrics import (
    acc, all_metrics, ari, clusters_to_assignment, fp_measure,
    inverse_purity, nmi, pair_confusion, purity,
)
from .nrs import elbow_k, kmeans, next_record_set, record_sets_for_block
from .pipeline import BlockResult, resolve_block
from .records import Record, build_records, strip_attr_labels

__all__ = [
    "BlockResult", "Item", "Record", "acc", "all_metrics",
    "apply_merge_result", "ari", "build_records", "build_round_sets",
    "cluster_with_guardrail", "clusters_to_assignment", "elbow_k",
    "fp_measure", "inverse_purity", "kmeans", "misclustered",
    "next_record_set", "nmi", "order_sequentially", "pair_confusion",
    "purity", "record_sets_for_block", "regenerate_order", "representative",
    "resolve_block", "sequentiality", "set_variation", "strip_attr_labels",
    "structurally_valid",
]
