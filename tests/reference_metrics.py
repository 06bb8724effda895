"""The set-intersection metric implementations, kept as a test oracle.

These are the quadratic versions of :mod:`repro.core.metrics` as they
were before that module was rebuilt around a contingency table: every
predicted cluster is intersected with every true cluster as Python
sets, and ``pair_confusion`` visits every record pair. They are kept
unchanged so the equivalence tests in ``test_metrics.py`` can hold the
linear-time code to them exactly.
"""
from __future__ import annotations

from math import comb, log


def _check(pred: dict[int, int], truth: dict[int, int]) -> None:
    if set(pred) != set(truth):
        missing = set(truth) ^ set(pred)
        raise ValueError(f"pred/truth record sets differ on {len(missing)} ids")
    if not pred:
        raise ValueError("empty clustering")


def _clusters(assign: dict[int, int]) -> list[set[int]]:
    out: dict[int, set[int]] = {}
    for rid, lab in assign.items():
        out.setdefault(lab, set()).add(rid)
    return list(out.values())


def acc(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 2–3: greedy one-to-one matching by intersection size."""
    _check(pred, truth)
    xs, ys = _clusters(pred), _clusters(truth)
    inters = [
        (len(x & y), xi, yi)
        for xi, x in enumerate(xs)
        for yi, y in enumerate(ys)
        if x & y
    ]
    inters.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_x: set[int] = set()
    used_y: set[int] = set()
    correct = 0
    for size, xi, yi in inters:
        if xi in used_x or yi in used_y:
            continue
        used_x.add(xi)
        used_y.add(yi)
        correct += size
    return correct / len(pred)


def purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 4 (with Eq. 6's overlap): Σ max-overlap / |R|."""
    _check(pred, truth)
    xs, ys = _clusters(pred), _clusters(truth)
    total = sum(max(len(x & y) for y in ys) for x in xs)
    return total / len(pred)


def inverse_purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 5: purity with the roles of pred and truth swapped."""
    return purity(truth, pred)


def fp_measure(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 7: harmonic mean of purity and inverse-purity."""
    p, ip = purity(pred, truth), inverse_purity(pred, truth)
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)


def nmi(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 8–10: normalised mutual information."""
    _check(pred, truth)
    n = len(pred)
    xs, ys = _clusters(pred), _clusters(truth)

    def h(cs: list[set[int]]) -> float:
        return -sum(
            (len(c) / n) * log(len(c) / n) for c in cs if len(c) > 0
        )

    hx, hy = h(xs), h(ys)
    if hx == 0 and hy == 0:
        return 1.0  # both trivial single-cluster partitions: identical
    mi = 0.0
    for x in xs:
        for y in ys:
            nij = len(x & y)
            if nij:
                mi += (nij / n) * log((nij * n) / (len(x) * len(y)))
    denom = hx + hy
    return (2.0 * mi / denom) if denom > 0 else 0.0


def ari(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 11: adjusted Rand index from the contingency table."""
    _check(pred, truth)
    n = len(pred)
    xs, ys = _clusters(pred), _clusters(truth)
    sum_ij = sum(comb(len(x & y), 2) for x in xs for y in ys)
    sum_a = sum(comb(len(x), 2) for x in xs)
    sum_b = sum(comb(len(y), 2) for y in ys)
    nc2 = comb(n, 2)
    if nc2 == 0:
        return 1.0
    expected = sum_a * sum_b / nc2
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # degenerate: both partitions all-singletons etc.
    return (sum_ij - expected) / (max_index - expected)


def pair_confusion(
    pred: dict[int, int], truth: dict[int, int]
) -> dict[str, int]:
    """TP/FP/FN/TN over record pairs (Appendix A.9 confusion matrices)."""
    _check(pred, truth)
    rids = sorted(pred)
    tp = fp = fn = tn = 0
    for i in range(len(rids)):
        for k in range(i + 1, len(rids)):
            a, b = rids[i], rids[k]
            p_same = pred[a] == pred[b]
            t_same = truth[a] == truth[b]
            if p_same and t_same:
                tp += 1
            elif p_same:
                fp += 1
            elif t_same:
                fn += 1
            else:
                tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
