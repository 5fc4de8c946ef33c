import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail import counting
from regtail.counting import (
    IsolatedPatternVertexError,
    copy_edge_lists,
    count_hom,
    count_labelled,
    count_N11,
    count_paths_signed,
    count_through,
    count_with_edges,
    expected_count,
)
from regtail.graphs import (
    SparsityContext,
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    path,
    petersen,
    validate_pattern,
)
from regtail.verify import connected_regular_graphs

from conftest import (
    disjoint_union,
    oracle_copy_edge_lists,
    oracle_count_hom,
    oracle_count_injective,
    oracle_count_N11,
    oracle_per_edge,
    oracle_simple_paths,
    random_graph,
)


def test_frozen_small_counts():
    assert count_labelled(cycle(4), complete_bipartite(2, 3)) == 24
    assert count_labelled(complete(3), complete(4)) == 24
    assert count_labelled(complete(3), petersen()) == 0
    assert count_labelled(complete(3), complete(3)) == 6
    assert count_labelled(cycle(5), petersen()) == 120
    assert count_labelled(petersen(), petersen()) == 120


def test_frozen_hom_counts():
    assert count_hom(cycle(4), complete(3)) == 18
    assert count_hom(complete(3), complete(3)) == 6
    # closed form: Hom(K2, G) = 2 e(G)
    assert count_hom(from_edge_list(2, [(0, 1)]), petersen()) == 30


def test_pattern_larger_than_host():
    assert count_labelled(complete(4), complete(3)) == 0


def test_pattern_larger_than_host_support(rng):
    # hosts with many isolated vertices: the support, not the vertex
    # count, bounds the pattern order
    patterns = [complete(3), cycle(4), cycle(5), complete_bipartite(2, 3)]
    for _ in range(12):
        support = rng.randint(2, 6)
        g = random_graph(rng, support, 0.7)
        g = disjoint_union(g, empty(rng.randint(1, 3)))
        for h in patterns:
            assert count_labelled(h, g) == oracle_count_injective(h, g)
    # a 5-cycle on 8 vertices has support 5: C5 fits, C6 does not
    g = disjoint_union(cycle(5), empty(3))
    assert count_labelled(cycle(5), g) == 10
    assert count_labelled(cycle(6), g) == 0 == oracle_count_injective(cycle(6), g)


def test_isolated_pattern_vertex():
    h = empty(3)
    with pytest.raises(IsolatedPatternVertexError):
        count_labelled(h, complete(4))
    lonely = from_edge_list(3, [(0, 1)])  # vertex 2 isolated
    # a refused pattern is never cached, so every call refuses it again
    for _ in range(3):
        for count in (count_labelled, count_with_edges, copy_edge_lists):
            with pytest.raises(IsolatedPatternVertexError):
                count(lonely, complete(4))
        with pytest.raises(IsolatedPatternVertexError):
            count_N11(lonely, complete(4), 2)
    # homomorphisms absorb isolated vertices as free choices
    assert count_hom(lonely, complete(4)) == 12 * 4


def test_oracle_equivalence_injective(rng):
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.9))
        if not all(h.degree(v) for v in range(h.vertex_count)):
            continue
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.8))
        assert count_labelled(h, g) == oracle_count_injective(h, g)


def test_oracle_equivalence_hom(rng):
    for _ in range(25):
        h = random_graph(rng, rng.randint(2, 4), rng.uniform(0.4, 0.9))
        g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
        assert count_hom(h, g) == oracle_count_hom(h, g)


def test_count_invariant_under_host_relabelling(rng):
    h = validate_pattern(cycle(4))
    for _ in range(20):
        g = random_graph(rng, 8, 0.4)
        perm = list(range(8))
        rng.shuffle(perm)
        relabelled = from_edge_list(8, [(perm[u], perm[v]) for u, v in g.edges])
        assert count_labelled(h, g) == count_labelled(h, relabelled)


def test_per_edge_sums_to_pattern_edge_multiple(rng):
    k3 = validate_pattern(complete(3))
    for _ in range(20):
        g = random_graph(rng, 8, 0.5)
        report = count_with_edges(k3, g)
        assert report.per_edge is not None
        assert set(report.per_edge) == set(g.edges)
        assert sum(report.per_edge.values()) == 3 * report.total


def test_per_edge_count_k3_in_k5():
    report = count_with_edges(complete(3), complete(5))
    # 6 orderings times 3 third vertices through every edge
    assert report.per_edge == {e: 18 for e in complete(5).edges}


def test_copy_edge_lists_enumerates_labelled_copies():
    lists = copy_edge_lists(complete(3), complete(4))
    assert len(lists) == count_labelled(complete(3), complete(4)) == 24
    for edges in lists:
        assert len(edges) == 3
        assert all(a < b for a, b in edges)
    # each unordered triangle shows up once per automorphism
    assert len({frozenset(edges) for edges in lists}) == 4


def test_count_N11_consistency(rng):
    k3 = validate_pattern(complete(3))
    for _ in range(15):
        g = random_graph(rng, 8, 0.45)
        for D in (2, 3):
            with_low, only_low, mixed = count_N11(k3, g, D)
            assert with_low == only_low + mixed
            assert 0 <= with_low <= count_labelled(k3, g)


def test_count_N11_split_hand_case():
    # two triangles sharing vertex 2; hang two pendants on vertex 2 so it
    # crosses degree threshold 2 while all others stay low
    g = from_edge_list(
        7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (2, 5), (2, 6)]
    )
    with_low, only_low, mixed = count_N11(complete(3), g, 2)
    assert (with_low, only_low, mixed) == (12, 0, 12)


def test_paths_signed_partition_total(rng):
    # summing over all signatures recovers the plain simple-path count
    for _ in range(12):
        g = random_graph(rng, 7, 0.5)
        v1, v2 = 0, 1
        for ell in (1, 2, 3):
            total = sum(
                count_paths_signed(g, s, v1, v2, 2)
                for s in product((0, 1), repeat=ell)
            )
            assert total == len(oracle_simple_paths(g, v1, v2, ell))


def test_paths_signed_matches_oracle_per_signature(rng):
    # each signature's count equals the oracle's simple paths whose i-th
    # edge has class s[i], with degrees read off the edge list
    cases = 0
    for _ in range(60):
        nv = rng.randint(2, 8)
        g = random_graph(rng, nv, rng.uniform(0.2, 0.7))
        degree = Counter(x for e in g.edges for x in e)
        for v1, v2 in product(range(nv), repeat=2):
            for ell in range(1, 5):
                paths = oracle_simple_paths(g, v1, v2, ell)
                for D in (1, 2, 3):
                    low = {v for v in range(nv) if degree[v] <= D}
                    want = Counter(
                        tuple(int(not {a, b} <= low) for a, b in zip(p, p[1:]))
                        for p in paths
                    )
                    for s in product((0, 1), repeat=ell):
                        assert count_paths_signed(g, s, v1, v2, D) == want[s]
                        cases += 1
    assert cases > 150_000


def test_paths_signed_classification():
    # path 0-1-2 with all degrees <= 2: only the all-zero signature counts
    g = path(2)
    assert count_paths_signed(g, (0, 0), 0, 2, 2) == 1
    assert count_paths_signed(g, (0, 1), 0, 2, 2) == 0
    assert count_paths_signed(g, (1, 0), 0, 2, 2) == 0
    # raise threshold pressure: with D=1 the middle vertex is high
    assert count_paths_signed(g, (1, 1), 0, 2, 1) == 1
    assert count_paths_signed(g, (0, 0), 0, 2, 1) == 0


def test_paths_signed_validation():
    g = path(3)
    with pytest.raises(ValueError):
        count_paths_signed(g, (), 0, 1, 2)
    with pytest.raises(ValueError):
        count_paths_signed(g, (2,), 0, 1, 2)
    assert count_paths_signed(g, (0,), 1, 1, 2) == 0


def test_expected_count_formula():
    k3 = validate_pattern(complete(3))
    ctx = SparsityContext(30, 0.2)
    assert expected_count(k3, ctx) == pytest.approx(30 * 29 * 28 * 0.2**3)
    with pytest.raises(ValueError):
        expected_count(k3, SparsityContext(2, 0.2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_disconnected_pattern_multiplies(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(4, 7), 0.6)
    h = disjoint_union(complete(2), complete(2))
    direct = count_labelled(h, g)
    assert direct == oracle_count_injective(h, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_per_edge_nonnegative_and_bounded(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 8), 0.5)
    c4 = validate_pattern(cycle(4))
    report = count_with_edges(c4, g)
    for value in report.per_edge.values():
        assert 0 <= value <= report.total


def _small_patterns(rng):
    """Random patterns with no isolated vertex, some of them disconnected,
    as the spans of edge subsets are. K2 has no edge that avoids its last
    search vertex."""
    out = [
        complete(2),
        disjoint_union(complete(2), complete(2)),
        disjoint_union(complete(3), complete(2)),
        disjoint_union(path(2), complete(2)),
    ]
    while len(out) < 12:
        h = random_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.8))
        if h.edge_count:
            out.append(h.relabelled_span())
    return out


def _small_hosts(rng):
    """A hub with pendant paths, low and high degrees side by side, and
    placements whose last level is empty (a path ends where it must go on),
    then random hosts."""
    hub = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5), (6, 7)]
    return [from_edge_list(8, hub)] + [
        random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.8)) for _ in range(8)
    ]


def test_visitor_modes_match_oracles(rng):
    patterns = _small_patterns(rng)
    assert any(not h.is_connected() for h in patterns)
    for g in _small_hosts(rng):
        for h in patterns:
            report = count_with_edges(h, g)
            assert report.total == oracle_count_injective(h, g)
            assert report.per_edge == oracle_per_edge(h, g)
            assert Counter(copy_edge_lists(h, g)) == oracle_copy_edge_lists(h, g)
            for D in range(1, g.max_degree() + 1):
                assert count_N11(h, g, D) == oracle_count_N11(h, g, D)


def test_count_through_is_what_removing_the_edge_loses(rng):
    patterns = _small_patterns(rng) + [path(3)]
    assert any(not h.is_connected() for h in patterns)
    for g in _small_hosts(rng):
        for h in patterns:
            full = oracle_per_edge(h, g)
            for e in g.edges:
                less = oracle_per_edge(h, g.without_edges({e}))
                lost = {f: k - less.get(f, 0) for f, k in full.items()}
                want = {f: k for f, k in lost.items() if k}
                assert count_through(h, g.adjacency_masks, e) == want


def test_rooted_plans_start_at_the_root_and_stay_connected(rng):
    for h in _small_patterns(rng) + [path(3), cycle(5), petersen()]:
        comps = {v: i for i, c in enumerate(h.connected_components()) for v in c}
        for a, b in h.edges:
            for root in ((a, b), (b, a)):
                order = counting._plan(h, root).order
                assert order[:2] == root
                assert sorted(order) == list(range(h.vertex_count))
                # each vertex but the first of its component in the order
                # has a pattern neighbour placed before it
                seen = set()
                for i, u in enumerate(order):
                    if comps[u] in seen:
                        assert h.adjacency_masks[u] & sum(1 << w for w in order[:i])
                    seen.add(comps[u])


def test_leaf_masks_are_nonempty_and_cover_every_copy(rng):
    hosts = [from_edge_list(6, [(0, 1), (1, 2), (3, 4)]), complete(4)]
    hosts += [random_graph(rng, 6, 0.5) for _ in range(4)]
    for g in hosts:
        for h in _small_patterns(rng):
            masks = []
            c = counting._compile(h)
            total = counting._search(c, g.adjacency_masks, lambda a, m: masks.append(m))
            assert all(masks)
            assert sum(m.bit_count() for m in masks) == total
            assert total == oracle_count_injective(h, g)


def test_plan_built_once_per_distinct_pattern(monkeypatch):
    counting._compile.cache_clear()
    planned = []
    plan = counting._plan
    monkeypatch.setattr(
        counting, "_plan", lambda h, root=None: planned.append(h) or plan(h, root)
    )
    g = complete(6)
    for _ in range(3):
        for h in (complete(3), cycle(4), validate_pattern(cycle(4))):
            count_labelled(h, g)
            count_with_edges(h, g)
            count_N11(h, g, 3)
    assert planned == [complete(3), cycle(4)]
    # the catalogue dedup compares candidates against a bucket's first
    # member, which is the kernel's pattern and is planned once
    planned.clear()
    hits = counting._compile.cache_info().hits
    cubic = connected_regular_graphs(8, 3)
    assert len(cubic) == 5
    assert planned and len(planned) == len(set(planned))
    assert set(planned) <= set(cubic)
    assert counting._compile.cache_info().hits > hits


def test_plan_cache_stays_bounded():
    bound = counting._compile.cache_info().maxsize
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    labelled = (
        from_edge_list(5, [e for i, e in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    )
    patterns = [h for h in labelled if all(h.adjacency_masks)][: bound + 40]
    assert len(patterns) == bound + 40
    for h in patterns:
        count_labelled(h, complete(5))
        assert counting._compile.cache_info().currsize <= bound
    assert counting._compile.cache_info().currsize == bound


def test_hom_with_isolated_pattern_vertices(rng):
    patterns = [empty(1), empty(3), from_edge_list(3, [(0, 1)])]
    patterns += [random_graph(rng, rng.randint(2, 4), 0.4) for _ in range(10)]
    assert any(0 in h.adjacency_masks for h in patterns)
    for h in patterns:
        for _ in range(3):
            g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            assert count_hom(h, g) == oracle_count_hom(h, g)
