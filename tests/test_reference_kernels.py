"""The array rewrites of Booster, LSH blocking, CMR packing and CrowdER's
HIT cover against their scalar originals (``reference_kernels``).

Each rewrite claims the same output, not a close one, so every test
compares exactly: assignments, block lists, round sets, HIT lists and
the oracle's ledger. Seeded fuzzing covers ordinary inputs; the
degenerate ones are listed by name (two records, all-identical or zero
vectors, a question budget larger than the number of pairs, singleton
buckets, an oversized block).
"""
import numpy as np
import pytest

from repro.baselines.booster import _threshold_partition, booster_er_block
from repro.baselines.crowder import build_hits, uncertain_pairs
from repro.blocking.lsh import MAX_BLOCK_SIZE, lsh_blocks
from repro.core.cmr import Item, build_round_sets
from repro.core.records import Record
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM

from . import reference_kernels as ref

DIM = 32


def _clustered(g, n, k, dim=DIM, noise=0.6):
    """n records around k random centres: (records, truth)."""
    centres = g.normal(size=(k, dim))
    ent = g.integers(0, k, size=n)
    vecs = (centres[ent] + noise * g.normal(size=(n, dim))).astype(np.float32)
    return _records(vecs), {rid: int(e) for rid, e in enumerate(ent)}


def _records(vecs):
    return [
        Record(rid, f"record {rid} text", v, frozenset({f"t{rid % 3}"}))
        for rid, v in enumerate(np.asarray(vecs, dtype=np.float32))
    ]


def _rids(groups):
    return [[r.rid for r in grp] for grp in groups]


# --- the tooling invariant Booster's batched draw rests on ------------------


def test_batched_integers_equal_scalar_draws():
    """A fresh ``default_rng(s)`` gives ``integers(0, n, size=k)`` the
    numbers of ``k`` scalar ``integers(0, n)`` calls, for every block
    size Booster can see. If a NumPy upgrade breaks this, Booster would
    silently ask other questions; this test fails instead."""
    k = 3 * 64 * 2  # three questions' samples
    for n in range(2, MAX_BLOCK_SIZE + 1):
        for s in (0, 1, n):
            g = np.random.default_rng(s)
            scalar = [int(g.integers(0, n)) for _ in range(k)]
            batched = np.random.default_rng(s).integers(0, n, size=k)
            assert batched.tolist() == scalar, (n, s)


# --- Booster -----------------------------------------------------------------


def _booster_both(block, truth, seed):
    got_llm = SimulatedLLM(truth, GPT_4O_MINI, seed=seed)
    want_llm = SimulatedLLM(truth, GPT_4O_MINI, seed=seed)
    got = booster_er_block(block, got_llm, seed=seed)
    want = ref.booster_er_block(block, want_llm, seed=seed)
    assert got == want
    assert got_llm.ledger.snapshot() == want_llm.ledger.snapshot()
    return got_llm.ledger.n_calls


@pytest.mark.parametrize("seed", range(12))
def test_booster_fuzz(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 60))
    block, truth = _clustered(g, n, int(g.integers(1, max(2, n // 3))))
    _booster_both(block, truth, seed)


def test_booster_on_lsh_blocks(cora_small):
    _, _, recs, truth = cora_small
    blocks = [b for b in lsh_blocks(recs) if len(b) > 1]
    assert blocks
    calls = sum(_booster_both(b, truth, s) for b in blocks for s in (0, 1))
    assert calls > 0


@pytest.mark.parametrize("n", [2, 3])
def test_booster_budget_exceeds_pairs(n):
    """Two and three records: the minimum budget of three questions
    exceeds the one pair of two records and equals the three pairs of
    three, so samples keep hitting asked pairs."""
    g = np.random.default_rng(5)
    for seed in range(20):
        block, truth = _clustered(g, n, 2, noise=2.0)
        _booster_both(block, truth, seed)


def test_booster_identical_vectors():
    """Every candidate partition is one cluster, so no pair is disagreed
    on and the search stops before asking anything."""
    block = _records(np.ones((7, DIM)))
    assert _booster_both(block, {i: 0 for i in range(7)}, 0) == 0


def test_booster_zero_vectors():
    block = _records(np.zeros((7, DIM)))
    for seed in range(5):
        _booster_both(block, {i: i % 2 for i in range(7)}, seed)


@pytest.mark.parametrize("seed", range(8))
def test_threshold_partition_fuzz(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 40))
    sims = g.uniform(-1, 1, size=(n, n))
    sims = (sims + sims.T) / 2
    for t in (-2.0, 0.0, 0.3, 0.8, 2.0):
        got = _threshold_partition(sims, t)
        assert got.tolist() == ref._threshold_partition(sims, t).tolist()


# --- LSH blocking ------------------------------------------------------------


@pytest.mark.parametrize("data_seed", range(4))
@pytest.mark.parametrize("lsh_seed", [0, 1])
def test_lsh_fuzz(data_seed, lsh_seed):
    g = np.random.default_rng(data_seed)
    n = int(g.integers(1, 400))
    recs, _ = _clustered(g, n, int(g.integers(1, 40)), noise=0.3)
    got = lsh_blocks(recs, seed=lsh_seed)
    assert _rids(got) == _rids(ref.lsh_blocks(recs, seed=lsh_seed))


@pytest.mark.parametrize("lsh_seed", [0, 1])
def test_lsh_on_dataset(cora_small, lsh_seed):
    _, _, recs, _ = cora_small
    got = lsh_blocks(recs, seed=lsh_seed)
    assert _rids(got) == _rids(ref.lsh_blocks(recs, seed=lsh_seed))


def test_lsh_two_records():
    """Two near-identical records share every band's bucket, a bucket of
    exactly two; two unrelated ones share none."""
    g = np.random.default_rng(0)
    v = g.normal(size=DIM)
    for vecs, want in (
        ([v, v + 0.01], [[0, 1]]),
        ([v, -v], [[0], [1]]),
    ):
        recs = _records(vecs)
        assert _rids(lsh_blocks(recs)) == _rids(ref.lsh_blocks(recs)) == want


def test_lsh_singleton_buckets():
    """Few records in a wide space: nearly every bucket holds one."""
    recs = _records(np.random.default_rng(0).normal(size=(12, 256)))
    assert _rids(lsh_blocks(recs)) == _rids(ref.lsh_blocks(recs))


def test_lsh_zero_vectors():
    """One bucket per band, but no pair reaches b_t: all singletons."""
    recs = _records(np.zeros((9, DIM)))
    got = lsh_blocks(recs)
    assert _rids(got) == _rids(ref.lsh_blocks(recs)) == [[i] for i in range(9)]


def test_lsh_oversized_block():
    """Identical vectors link into one component above the size cap,
    which is hard-chopped."""
    n = MAX_BLOCK_SIZE + 57
    recs = _records(np.ones((n, DIM)))
    got = lsh_blocks(recs)
    assert _rids(got) == _rids(ref.lsh_blocks(recs))
    assert max(len(b) for b in got) <= MAX_BLOCK_SIZE


# --- CMR round sets ----------------------------------------------------------


def _items(g, vecs, n_members_max=3, anti_frac=0.2):
    recs = _records(vecs)
    items, pos = [], 0
    iid = int(g.integers(0, 50))
    while pos < len(recs):
        take = int(g.integers(1, n_members_max + 1))
        items.append(Item(iid=iid, members=recs[pos : pos + take]))
        pos += take
        iid += int(g.integers(1, 4))
    for a in items:
        for b in items:
            if a.iid < b.iid and g.random() < anti_frac:
                a.anti.add(b.iid)
                b.anti.add(a.iid)
    order = g.permutation(len(items))
    return [items[i] for i in order]


def _sets_both(items, **kw):
    got = build_round_sets(items, **kw)
    want = ref.build_round_sets(items, **kw)
    assert [[it.iid for it in s] for s in got] == [
        [it.iid for it in s] for s in want
    ]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("strategy", ["similarity", "random"])
def test_round_sets_fuzz(seed, strategy):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 120))
    recs, _ = _clustered(g, n, int(g.integers(1, 12)), noise=0.8)
    items = _items(g, [r.vec for r in recs])
    s_s = int(g.integers(2, 10))
    _sets_both(items, s_s=s_s, strategy=strategy, seed=seed)


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_round_sets_identical_or_zero_vectors(fill):
    g = np.random.default_rng(0)
    items = _items(g, np.full((30, DIM), fill))
    for strategy in ("similarity", "random"):
        _sets_both(items, s_s=4, strategy=strategy)


def test_round_sets_two_items():
    g = np.random.default_rng(1)
    for anti in (0.0, 1.0):
        items = _items(g, g.normal(size=(2, DIM)), 1, anti)
        _sets_both(items)


# --- CrowdER HITs ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_hits_fuzz(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 80))
    density = g.uniform(0.02, 0.9)
    pairs = [
        (i, k) for i in range(n) for k in range(i + 1, n)
        if g.random() < density
    ]
    s_s = int(g.integers(2, 10))
    assert build_hits(pairs, s_s) == ref.build_hits([], pairs, s_s)


def test_hits_on_dataset_blocks(wa_small):
    _, _, recs, _ = wa_small
    for block in lsh_blocks(recs):
        if len(block) < 2:
            continue
        pairs = uncertain_pairs(block)
        for s_s in (3, 9):
            assert build_hits(pairs, s_s) == ref.build_hits(
                block, pairs, s_s
            )


COMPLETE_12 = [(i, k) for i in range(12) for k in range(i + 1, 12)]


@pytest.mark.parametrize("pairs", [[], [(0, 1)], COMPLETE_12])
def test_hits_degenerate(pairs):
    assert build_hits(pairs, 4) == ref.build_hits([], pairs, 4)
