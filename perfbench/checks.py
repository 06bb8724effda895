"""Output checks that do not trust the program's own metric code.

Every method run the benchmark makes goes through ``check_run``:

* the assignment is a partition of exactly the prepared record ids;
* FP, NMI and ARI agree with a contingency-table computation done here
  (``np.unique`` over pred x truth keys) to within ``TOL``;
* ACC agrees with a greedy one-to-one matching that uses the tie-break
  of ``repro.core.metrics.acc``: cells sorted by (-size, pred cluster,
  truth cluster), clusters numbered in first-appearance order of the
  two maps;
* ``check_cost``, on the driver path only: the run's reported cost
  equals its ledger's tokens times the profile's prices. (The Spark path
  has no cost of its own to check: it computes the cost from the ledger
  totals with that same formula.)

``digest`` hashes the partition and the ledger, so two commits (or two
passes) can be compared for byte-identical output.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TOL = 1e-9


def _codes(assign: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(record ids, cluster index) with clusters numbered by first appearance."""
    rids = np.fromiter(assign.keys(), dtype=np.int64, count=len(assign))
    labels = np.fromiter(assign.values(), dtype=np.int64, count=len(assign))
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rids, rank[inv.ravel()]


def contingency(pred: dict[int, int], truth: dict[int, int]):
    """Nonzero cells (pred index, truth index, count) and the marginals."""
    rp, xp = _codes(pred)
    rt, yt = _codes(truth)
    x = xp[np.argsort(rp, kind="stable")]
    y = yt[np.argsort(rt, kind="stable")]
    ny = int(y.max()) + 1
    keys, counts = np.unique(x * ny + y, return_counts=True)
    xi, yi = keys // ny, keys % ny
    a = np.bincount(x)  # pred cluster sizes
    b = np.bincount(y)  # truth cluster sizes
    return xi, yi, counts, a, b


def reference_metrics(
    pred: dict[int, int], truth: dict[int, int]
) -> dict[str, float]:
    xi, yi, nij, a, b = contingency(pred, truth)
    n = len(pred)

    used_x = np.zeros(len(a), dtype=bool)
    used_y = np.zeros(len(b), dtype=bool)
    correct = 0
    for k in np.lexsort((yi, xi, -nij)):
        if not (used_x[xi[k]] or used_y[yi[k]]):
            used_x[xi[k]] = used_y[yi[k]] = True
            correct += int(nij[k])

    best_y = np.zeros(len(a), dtype=np.int64)
    np.maximum.at(best_y, xi, nij)
    best_x = np.zeros(len(b), dtype=np.int64)
    np.maximum.at(best_x, yi, nij)
    pur, inv = best_y.sum() / n, best_x.sum() / n
    fp = 0.0 if pur == 0 or inv == 0 else 2.0 / (1.0 / pur + 1.0 / inv)

    def h(sizes: np.ndarray) -> float:
        p = sizes[sizes > 0] / n
        return float(-(p * np.log(p)).sum())

    hx, hy = h(a), h(b)
    mi = float((nij / n * np.log(nij * n / (a[xi] * b[yi]))).sum())
    if hx == 0 and hy == 0:
        nmi = 1.0
    else:
        nmi = 2.0 * mi / (hx + hy) if hx + hy > 0 else 0.0

    def c2(v: np.ndarray) -> int:
        return int((v * (v - 1) // 2).sum())

    sum_ij, sum_a, sum_b, nc2 = c2(nij), c2(a), c2(b), math.comb(n, 2)
    if nc2 == 0:
        ari = 1.0
    else:
        expected = sum_a * sum_b / nc2
        max_index = 0.5 * (sum_a + sum_b)
        ari = 1.0 if max_index == expected else (
            (sum_ij - expected) / (max_index - expected)
        )
    return {"acc": correct / n, "fp": fp, "nmi": nmi, "ari": ari}


def check_run(
    assignment: dict[int, int],
    truth: dict[int, int],
    record_ids: set[int],
    quality: dict[str, float],
) -> list[str]:
    """Return a list of failed checks (empty when the run is correct)."""
    errors: list[str] = []
    if set(assignment) != record_ids or len(assignment) != len(record_ids):
        return ["assignment is not a partition of the prepared record ids"]
    ref = reference_metrics(assignment, truth)
    for key in ("acc", "fp", "nmi", "ari"):
        if not abs(ref[key] - quality[key]) <= TOL:
            errors.append(f"{key}={quality[key]!r} but reference={ref[key]!r}")
    return errors


def check_cost(
    cost_usd: float,
    in_tokens: int,
    out_tokens: int,
    profile,
    extra_cost_usd: float = 0.0,
) -> list[str]:
    """The reported cost must be the ledger's tokens times the prices."""
    errors: list[str] = []
    want = (
        in_tokens * profile.input_price_per_m
        + out_tokens * profile.output_price_per_m
    ) / 1e6 + extra_cost_usd
    if not abs(cost_usd - want) <= TOL * max(1.0, want):
        errors.append(f"cost_usd={cost_usd!r} but tokens x prices={want!r}")
    return errors


def digest(assignment: dict[int, int], ledger: dict[str, float]) -> str:
    """SHA-256 of the partition (each record -> smallest id in its
    cluster, sorted by id) and the ledger totals."""
    root: dict[int, int] = {}
    for rid, lab in assignment.items():
        root[lab] = min(root.get(lab, rid), rid)
    part = sorted((rid, root[lab]) for rid, lab in assignment.items())
    led = {k: (f"{v:.9g}" if isinstance(v, float) else v)
           for k, v in sorted(ledger.items())}
    blob = json.dumps([part, led], separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
