"""Property tests for the shared union-find.

Keys are non-contiguous and inserted in shuffled order, as CMR item ids
and Spark record ids are. The callers' output orderings rely on the
smaller root surviving every union and on ``groups()`` following key
insertion order, so both are pinned here.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.unionfind import UnionFind


@st.composite
def keys_and_edges(draw):
    keys = draw(
        st.lists(
            st.integers(-(2**40), 2**40), min_size=1, max_size=40, unique=True
        )
    )
    index = st.integers(0, len(keys) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=80))
    return keys, [(keys[i], keys[k]) for i, k in pairs]


def bfs_components(keys, edges):
    """Reference: key → frozenset of its component, by breadth-first search."""
    adj = {k: set() for k in keys}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comp = {}
    for start in keys:
        if start in comp:
            continue
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [n for x in frontier for n in adj[x] if n not in seen]
            seen.update(frontier)
        for k in seen:
            comp[k] = frozenset(seen)
    return comp


@settings(max_examples=300, deadline=None)
@given(keys_and_edges())
@example(([50, 7, 300, -2], [(50, 300), (7, 300), (300, -2), (50, -2)]))
def test_union_find_properties(case):
    keys, edges = case
    uf = UnionFind(keys)
    for a, b in edges:
        ra, rb = uf.find(a), uf.find(b)
        dropped = uf.union(a, b)
        if ra == rb:
            assert dropped is None
        else:
            assert dropped == max(ra, rb)
            assert uf.find(a) == uf.find(b) == min(ra, rb)
        assert uf.union(a, b) is None  # a repeat is a no-op

    ref = bfs_components(keys, edges)
    for k in keys:
        root = uf.find(k)
        assert {x for x in keys if uf.find(x) == root} == ref[k]
        assert root == min(ref[k])

    groups = uf.groups()
    assert list(groups) == list(dict.fromkeys(uf.find(k) for k in keys))
    assert sorted(groups) == sorted({min(c) for c in ref.values()})
    for root, members in groups.items():
        assert members == [k for k in keys if k in ref[root]]

