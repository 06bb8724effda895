"""Unit tests for Algorithm 2 (MDG) and record-set regeneration."""
import numpy as np
import pytest

from repro.core import mdg
from repro.core.mdg import (
    ATTEMPTS, DEFAULT_MARGIN, _Guard, _repair, cluster_batch_with_guardrail,
    cluster_with_guardrail, misclustered, regenerate_order,
    structurally_valid,
)
from repro.core.records import Record
from repro.embed.hashing import DEFAULT_DIM, embed_text, tokens
from repro.embed.similarity import cosine_matrix
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


@pytest.fixture()
def two_entities():
    """Two clearly separated entities, 3 records each."""
    a = [_rec(i, f"apple orchard harvest fruit v{i}") for i in range(3)]
    b = [_rec(i + 3, f"neutron star collapse physics v{i}") for i in range(3)]
    return a, b


class TestStructurallyValid:
    def test_valid_partition(self, two_entities):
        a, b = two_entities
        assert structurally_valid(a + b, [a, b])

    def test_dropped_record(self, two_entities):
        a, b = two_entities
        assert not structurally_valid(a + b, [a, b[:-1]])

    def test_duplicated_record(self, two_entities):
        a, b = two_entities
        assert not structurally_valid(a + b, [a, b + [a[0]]])

    def test_foreign_record(self, two_entities):
        a, b = two_entities
        ghost = _rec(99, "ghost record")
        assert not structurally_valid(a + b, [a, b[:-1] + [ghost]])


class TestMisclustered:
    def test_correct_clustering_clean(self, two_entities):
        a, b = two_entities
        assert misclustered([a, b]) == []

    def test_wrong_assignment_flagged(self, two_entities):
        a, b = two_entities
        wrong = [a[:2] + [b[0]], b[1:] + [a[2]]]
        flagged = {r.rid for r in misclustered(wrong)}
        assert b[0].rid in flagged or a[2].rid in flagged

    def test_merge_all_garble_flagged_by_floor(self, two_entities):
        a, b = two_entities
        # a hallucinated merge-everything output has no other cluster
        # for the relative rule — the absolute floor must catch it
        assert misclustered([a + b]) != []

    @pytest.mark.parametrize(
        "gap,flagged",
        [(DEFAULT_MARGIN / 2, False), (DEFAULT_MARGIN * 2, True)],
        ids=["within-margin", "beyond-margin"],
    )
    def test_margin_tolerance(self, gap, flagged):
        # r's intra-cluster sim (to its mate m) is 0.6; its inter-cluster
        # sim (to o, in the other cluster) is 0.6 + gap; m and o lie on
        # opposite sides of r, so only r can be flagged
        def at(rid, cos_sim, side):
            vec = np.array([cos_sim, side * np.sqrt(1 - cos_sim**2)])
            return Record(rid=rid, text="", vec=vec, tokens=frozenset())

        r, m, o = at(0, 1.0, 1), at(1, 0.6, -1), at(2, 0.6 + gap, 1)
        assert [x.rid for x in misclustered([[r, m], [o]])] == (
            [0] if flagged else []
        )

    def test_singletons_skipped(self, two_entities):
        a, b = two_entities
        clusters = [[r] for r in a + b]
        assert misclustered(clusters) == []

    def test_small_input(self, two_entities):
        a, _ = two_entities
        assert misclustered([[a[0]]]) == []


class TestMdgAccepts:
    """The guard accepts an answer (asks no more) only if it is a
    partition of the record set and MDG flags none of its records."""

    @staticmethod
    def _accepts(records, clusters):
        guard = _Guard(records, use_mdg=True)
        guard.offer(clusters)
        return guard.done

    def test_good(self, two_entities):
        a, b = two_entities
        assert self._accepts(a + b, [a, b])

    def test_structural_reject(self, two_entities):
        a, b = two_entities
        assert not self._accepts(a + b, [a])

    def test_similarity_reject(self, two_entities):
        a, b = two_entities
        assert not self._accepts(a + b, [a[:1] + b[:1], a[1:] + b[1:]])

    def test_empty_record_set_accepted(self):
        assert self._accepts([], [])

    def test_rejected_attempt_computes_one_matrix(self, two_entities,
                                                  monkeypatch):
        """Judging an answer and reordering after its rejection share
        one similarity matrix, and the order is the one
        ``regenerate_order`` gives on its own."""
        a, b = two_entities
        wrong = [a[:1] + b[:1], a[1:] + b[1:]]
        want = regenerate_order(wrong, misclustered(wrong))
        shapes = []

        def counting(m):
            shapes.append(m.shape)
            return cosine_matrix(m)

        monkeypatch.setattr(mdg, "cosine_matrix", counting)
        guard = _Guard(a + b, use_mdg=True)
        guard.offer(wrong)
        assert not guard.done and shapes == [(6, DEFAULT_DIM)]
        assert [r.rid for r in guard.order] == [r.rid for r in want]


class TestRegenerateOrder:
    def test_moves_bad_record_next_to_best_cluster(self, two_entities):
        a, b = two_entities
        wrong = [a[:2], b + [a[2]]]  # a[2] stuck in the physics cluster
        order = regenerate_order(wrong, [a[2]])
        ids = [r.rid for r in order]
        # a[2] must now sit adjacent to another apple record
        pos = ids.index(a[2].rid)
        neighbours = {ids[max(0, pos - 1)], ids[min(len(ids) - 1, pos + 1)]}
        assert neighbours & {r.rid for r in a[:2]}

    def test_preserves_membership(self, two_entities):
        a, b = two_entities
        wrong = [a[:2], b + [a[2]]]
        order = regenerate_order(wrong, [a[2]])
        assert sorted(r.rid for r in order) == sorted(r.rid for r in a + b)


class TestRepair:
    def test_restores_dropped(self, two_entities):
        a, b = two_entities
        out = _repair(a + b, [a])  # b entirely dropped
        flat = sorted(r.rid for c in out for r in c)
        assert flat == sorted(r.rid for r in a + b)

    def test_dedupes(self, two_entities):
        a, b = two_entities
        out = _repair(a + b, [a, b + [a[0]]])
        flat = [r.rid for c in out for r in c]
        assert len(flat) == len(set(flat))


class TestClusterWithGuardrail:
    def test_output_is_partition(self, two_entities):
        a, b = two_entities
        truth = {r.rid: 0 for r in a} | {r.rid: 1 for r in b}
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        clusters = cluster_with_guardrail(llm, a + b)
        flat = sorted(r.rid for c in clusters for r in c)
        assert flat == sorted(truth)

    def test_easy_case_is_correct(self, two_entities):
        a, b = two_entities
        truth = {r.rid: 0 for r in a} | {r.rid: 1 for r in b}
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        clusters = cluster_with_guardrail(llm, a + b)
        for c in clusters:
            assert len({truth[r.rid] for r in c}) == 1

    def test_no_mdg_mode_still_partition(self, two_entities):
        a, b = two_entities
        truth = {r.rid: 0 for r in a} | {r.rid: 1 for r in b}
        for seed in range(8):  # across seeds incl. hallucinating draws
            llm = SimulatedLLM(truth, GPT_4O_MINI, seed=seed)
            clusters = cluster_with_guardrail(llm, a + b, use_mdg=False)
            flat = [r.rid for c in clusters for r in c]
            assert sorted(flat) == sorted(truth)
            assert len(flat) == len(set(flat))

    def test_mdg_costs_bounded_retries(self, two_entities):
        a, b = two_entities
        truth = {r.rid: 0 for r in a} | {r.rid: 1 for r in b}
        llm = SimulatedLLM(truth, GPT_4O_MINI, seed=0)
        cluster_with_guardrail(llm, a + b)
        assert llm.ledger.n_calls <= ATTEMPTS


class _DropLast:
    """Stub LLM whose every answer lumps all records but the last one
    into one cluster and drops the last one."""

    def __init__(self):
        self.record_calls = 0
        self.batch_calls = 0

    def cluster_records(self, records, *, salt=0):
        self.record_calls += 1
        return [list(records[:-1])]

    def cluster_batch(self, sets, *, salt=0):
        self.batch_calls += 1
        return [[list(s[:-1])] for s in sets]


def _ids(clusters):
    return sorted(sorted(r.rid for r in c) for c in clusters)


class TestEveryAttemptHallucinates:
    """One guard behind both the per-set and the batched (A.10) path."""

    def test_per_set_falls_back_to_singletons(self, two_entities):
        a, b = two_entities
        llm = _DropLast()
        out = cluster_with_guardrail(llm, a + b)
        assert llm.record_calls == ATTEMPTS
        assert _ids(out) == [[r.rid] for r in a + b]

    def test_batched_falls_back_to_singletons(self, two_entities):
        a, b = two_entities
        rsets = [a, b, a[:2], b[:2], a[1:]]  # 3 chunks of at most 2 sets
        llm = _DropLast()
        outs = cluster_batch_with_guardrail(
            llm, rsets, use_mdg=True, batch_size=2
        )
        assert llm.batch_calls == ATTEMPTS * 3
        assert llm.record_calls == 0
        assert [_ids(o) for o in outs] == [
            [[r.rid] for r in s] for s in rsets
        ]

    def test_no_mdg_per_set_repairs_first_answer(self, two_entities):
        a, b = two_entities
        llm = _DropLast()
        out = cluster_with_guardrail(llm, a + b, use_mdg=False)
        assert llm.record_calls == 1
        assert _ids(out) == _ids([a + b[:-1], b[-1:]])

    def test_no_mdg_batched_repairs_first_answer(self, two_entities):
        a, b = two_entities
        rsets = [a, b, a[:2], b[:2], a[1:]]
        llm = _DropLast()
        outs = cluster_batch_with_guardrail(
            llm, rsets, use_mdg=False, batch_size=2
        )
        assert llm.batch_calls == 3
        assert [_ids(o) for o in outs] == [
            _ids([s[:-1], s[-1:]]) for s in rsets
        ]
