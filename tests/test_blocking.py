"""Tests for the LSH / filtering / canopy blocking substrates."""
import itertools

import numpy as np
import pytest

from repro.blocking import (
    BLOCKERS, canopy_blocks, filtering_blocks, lsh, lsh_blocks, single_block,
)
from repro.blocking.filtering import candidate_pairs, prefix_length
from repro.blocking.lsh import (
    band_signatures, blocks_from_edges, purify_block, split_oversized,
)
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens


def _pair_recall(blocks, truth):
    bid = {r.rid: i for i, b in enumerate(blocks) for r in b}
    hit = pos = 0
    by_ent = {}
    for rid, e in truth.items():
        by_ent.setdefault(e, []).append(rid)
    for ids in by_ent.values():
        for a, b in itertools.combinations(ids, 2):
            pos += 1
            hit += bid[a] == bid[b]
    return hit / max(1, pos)


def _is_partition(blocks, records):
    flat = [r.rid for b in blocks for r in b]
    return sorted(flat) == sorted(r.rid for r in records)


class TestLSH:
    def test_partition(self, cora_small):
        _, _, recs, _ = cora_small
        assert _is_partition(lsh_blocks(recs), recs)

    def test_high_pair_recall_on_clean_data(self, clean_records):
        _, _, recs, truth = clean_records
        assert _pair_recall(lsh_blocks(recs), truth) > 0.9

    def test_respects_max_block_size(self, cora_small, monkeypatch):
        _, _, recs, _ = cora_small
        monkeypatch.setattr(lsh, "MAX_BLOCK_SIZE", 30)
        blocks = lsh_blocks(recs)
        assert max(len(b) for b in blocks) <= 30

    def test_empty(self):
        assert lsh_blocks([]) == []

    def test_deterministic(self, cora_small):
        _, _, recs, _ = cora_small
        a = [[r.rid for r in b] for b in lsh_blocks(recs, seed=4)]
        b = [[r.rid for r in b] for b in lsh_blocks(recs, seed=4)]
        assert a == b

    def test_band_signatures_shape(self, cora_small):
        _, _, recs, _ = cora_small
        vecs = np.stack([r.vec for r in recs[:10]])
        sigs = band_signatures(vecs, n_bands=3, band_bits=4)
        assert sigs.shape == (10, 3)
        assert sigs.max() < 2**4


class TestPurify:
    def test_evicts_outlier(self, clean_records):
        _, _, recs, truth = clean_records
        by_ent = {}
        for r in recs:
            by_ent.setdefault(truth[r.rid], []).append(r)
        groups = [g for g in by_ent.values() if len(g) >= 3]
        block = groups[0] + [groups[1][0]]  # one foreign record
        out = purify_block(block, threshold=0.5)
        singles = [b for b in out if len(b) == 1]
        assert any(b[0].rid == groups[1][0].rid for b in singles)

    def test_keeps_cohesive_block(self, clean_records):
        _, _, recs, truth = clean_records
        by_ent = {}
        for r in recs:
            by_ent.setdefault(truth[r.rid], []).append(r)
        group = next(g for g in by_ent.values() if len(g) >= 3)
        out = purify_block(group, threshold=0.3)
        assert max(len(b) for b in out) >= len(group) - 1

    def test_single_record(self, clean_records):
        _, _, recs, _ = clean_records
        assert purify_block([recs[0]], 0.5) == [[recs[0]]]


class TestSplitOversized:
    def test_no_split_needed(self, cora_small):
        _, _, recs, _ = cora_small
        assert split_oversized(recs[:10], 20) == [recs[:10]]

    def test_split_bounds(self, cora_small):
        _, _, recs, _ = cora_small
        parts = split_oversized(recs[:50], 15)
        assert all(len(p) <= 15 for p in parts)
        assert sorted(r.rid for p in parts for r in p) == sorted(
            r.rid for r in recs[:50]
        )

    def test_identical_vectors_hard_chopped(self):
        # k-means cannot separate identical vectors, so the block is
        # cut into consecutive max_size chunks
        text = "same listing every time"
        recs = [
            Record(rid=i, text=text, vec=embed_text(text), tokens=tokens(text))
            for i in range(25)
        ]
        parts = split_oversized(recs, 10)
        assert [len(p) for p in parts] == [10, 10, 5]
        assert [r.rid for p in parts for r in p] == list(range(25))


class TestBlocksFromEdges:
    def test_components(self, cora_small):
        _, _, recs, _ = cora_small
        sub = recs[:5]
        blocks = blocks_from_edges(sub, [(0, 1), (1, 2)])
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [1, 1, 3]


class TestFiltering:
    def test_partition(self, cora_small):
        _, _, recs, _ = cora_small
        assert _is_partition(filtering_blocks(recs), recs)

    def test_recall_on_clean_data(self, clean_records):
        _, _, recs, truth = clean_records
        assert _pair_recall(filtering_blocks(recs), truth) > 0.85

    def test_prefix_length_formula(self):
        # |t| - ceil(b_t * |t|) + 1
        assert prefix_length(10, 0.8) == 3
        assert prefix_length(0, 0.5) == 0
        assert prefix_length(1, 0.99) == 1

    def test_candidate_pairs_superset_of_matches(self, clean_records):
        _, _, recs, _ = clean_records
        sub = recs[:40]
        t = 0.5
        from repro.embed.similarity import jaccard

        cands = candidate_pairs(sub, t)
        for i in range(len(sub)):
            for k in range(i + 1, len(sub)):
                if jaccard(sub[i].tokens, sub[k].tokens) >= t:
                    assert (i, k) in cands or (k, i) in cands


class TestCanopy:
    def test_partition(self, cora_small):
        _, _, recs, _ = cora_small
        assert _is_partition(canopy_blocks(recs), recs)

    def test_empty(self):
        assert canopy_blocks([]) == []


class TestRegistryOfBlockers:
    def test_all_blockers_registered(self):
        assert set(BLOCKERS) == {"lsh", "filter", "canopy", "none"}

    def test_single_block(self, cora_small):
        _, _, recs, _ = cora_small
        blocks = single_block(recs)
        assert len(blocks) == 1 and len(blocks[0]) == len(recs)

    @pytest.mark.parametrize("name", ["lsh", "filter", "canopy", "none"])
    def test_every_blocker_partitions(self, name, cora_small):
        _, _, recs, _ = cora_small
        assert _is_partition(BLOCKERS[name](recs), recs)

    def test_lsh_blocks_purer_than_no_blocking(self, cora_small):
        """LSH blocks must group related records (Appendix A.3 spirit)."""
        _, _, recs, truth = cora_small
        blocks = lsh_blocks(recs)
        multi = [b for b in blocks if len(b) > 3]
        assert multi, "expected some multi-record blocks"
        # most multi-record blocks should be dominated by few entities
        purities = []
        for b in multi:
            ents = [truth[r.rid] for r in b]
            top = max(np.bincount(np.unique(ents, return_inverse=True)[1]))
            purities.append(top / len(b))
        assert np.mean(purities) > 0.3
