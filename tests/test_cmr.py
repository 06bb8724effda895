"""Unit tests for Algorithm 3 (Cluster Merge) machinery."""
import pytest

from repro.core.cmr import (
    Item, apply_merge_result, build_round_sets, compatible, representative,
)
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


def _item(iid, texts):
    return Item(
        iid=iid, members=[_rec(iid * 10 + i, t) for i, t in enumerate(texts)]
    )


class TestRepresentative:
    def test_singleton(self):
        r = _rec(0, "only one")
        assert representative([r]) is r

    def test_central_member_chosen(self):
        a = _rec(0, "alpha beta gamma delta")
        b = _rec(1, "alpha beta gamma epsilon")
        c = _rec(2, "alpha beta gamma")
        rep = representative([a, b, c])
        assert rep in (a, b, c)

    def test_deterministic(self):
        members = [_rec(i, f"w{i} shared tokens here") for i in range(4)]
        assert representative(members) is representative(members)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Item(iid=0, members=[])


class TestCompatible:
    def test_unknown_pair_compatible(self):
        a, b = _item(0, ["x y"]), _item(1, ["p q"])
        assert compatible(a, [b])

    def test_all_anti_incompatible(self):
        a, b = _item(0, ["x y"]), _item(1, ["p q"])
        a.anti.add(b.iid)
        assert not compatible(a, [b])


class TestBuildRoundSets:
    def _similar_items(self, n):
        return [
            Item(iid=i, members=[_rec(i, f"shared topic words item{i}")])
            for i in range(n)
        ]

    def test_respects_set_size(self):
        items = self._similar_items(12)
        sets = build_round_sets(items, s_s=4)
        assert all(len(s) <= 4 for s in sets)

    def test_each_item_at_most_once(self):
        items = self._similar_items(10)
        sets = build_round_sets(items, s_s=5)
        ids = [it.iid for s in sets for it in s]
        assert len(ids) == len(set(ids))

    def test_no_sets_when_all_anti(self):
        items = self._similar_items(4)
        for a in items:
            a.anti = {b.iid for b in items if b.iid != a.iid}
        assert build_round_sets(items, s_s=4) == []

    def test_sets_have_at_least_two(self):
        items = self._similar_items(7)
        for s in build_round_sets(items, s_s=3):
            assert len(s) >= 2

    def test_dissimilar_items_not_packed(self):
        # two items far below the merge floor never form a set
        a = Item(iid=0, members=[_rec(0, "aa bb cc dd")])
        b = Item(iid=1, members=[_rec(1, "zz yy xx wv")])
        assert build_round_sets([a, b], s_s=4) == []

    def test_random_strategy_ignores_floor(self):
        a = Item(iid=0, members=[_rec(0, "aa bb cc dd")])
        b = Item(iid=1, members=[_rec(1, "zz yy xx wv")])
        sets = build_round_sets([a, b], s_s=4, strategy="random", seed=1)
        assert len(sets) == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_round_sets([], strategy="bogus")

    def test_similarity_chains_similar_adjacent(self):
        groups = ["apple fruit pie", "apple fruit tart",
                  "rocket engine fuel", "rocket engine nozzle"]
        items = [
            Item(iid=i, members=[_rec(i, t)]) for i, t in enumerate(groups)
        ]
        sets = build_round_sets(items, s_s=4, seed=0)
        flat = [it.iid for s in sets for it in s]
        # the two apple items must be adjacent somewhere in the chain
        pos = {iid: i for i, iid in enumerate(flat)}
        assert abs(pos[0] - pos[1]) == 1 or abs(pos[2] - pos[3]) == 1


class TestApplyMergeResult:
    def _round(self):
        a = _item(0, ["apple fruit one"])
        b = _item(1, ["apple fruit two"])
        c = _item(2, ["rocket fuel one"])
        return [a, b, c]

    def test_merge_unions_members(self):
        a, b, c = self._round()
        round_sets = [[a, b]]
        clustering = [[[a.rep, b.rep]]]  # LLM says: same entity
        items, n_merges, _ = apply_merge_result(
            [a, b, c], round_sets, clustering, next_iid=10
        )
        assert n_merges == 1
        merged = max(items, key=lambda it: len(it.members))
        assert {r.rid for r in merged.members} == {
            r.rid for r in a.members + b.members
        }

    def test_non_merge_adds_anti(self):
        a, b, c = self._round()
        round_sets = [[a, b]]
        clustering = [[[a.rep], [b.rep]]]  # kept apart
        items, n_merges, _ = apply_merge_result(
            [a, b, c], round_sets, clustering, next_iid=10
        )
        assert n_merges == 0
        ia = next(it for it in items if a.rep in it.members)
        ib = next(it for it in items if b.rep in it.members)
        assert ib.iid in ia.anti and ia.iid in ib.anti

    def test_unpacked_items_pass_through(self):
        a, b, c = self._round()
        items, _, _ = apply_merge_result(
            [a, b, c], [[a, b]], [[[a.rep, b.rep]]], next_iid=10
        )
        assert any(
            {r.rid for r in it.members} == {r.rid for r in c.members}
            for it in items
        )

    def test_anti_references_remapped(self):
        a, b, c = self._round()
        c.anti.add(a.iid)
        a.anti.add(c.iid)
        items, _, _ = apply_merge_result(
            [a, b, c], [[a, b]], [[[a.rep, b.rep]]], next_iid=10
        )
        merged = next(it for it in items if len(it.members) == 2)
        other = next(it for it in items if len(it.members) == 1)
        assert other.iid in merged.anti
        assert merged.iid in other.anti

    def test_fresh_iids(self):
        a, b, c = self._round()
        items, _, nxt = apply_merge_result(
            [a, b, c], [[a, b]], [[[a.rep], [b.rep]]], next_iid=10
        )
        assert all(it.iid >= 10 for it in items)
        assert nxt == 10 + len(items)
