import json
import random
import sys
import tracemalloc
from collections import Counter
from itertools import product
from math import factorial, nan
from pathlib import Path

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
    signed_path_counts,
)
from regtail.graphs import (
    Graph,
    SparsityContext,
    bits,
    complete,
    complete_bipartite,
    cycle,
    empty,
    expected_count,
    from_edge_list,
    layers,
    low_degree_mask,
    path,
    petersen,
    validate_pattern,
)
from regtail.ratefn import _orbit_table

from conftest import (
    connected_regular_graphs,
    disjoint_union,
    oracle_copy_edge_lists,
    oracle_count_hom,
    oracle_count_injective,
    oracle_count_N11,
    oracle_count_through,
    oracle_injective_maps,
    oracle_low_low_masks,
    oracle_per_edge,
    oracle_simple_paths,
    random_graph,
    random_regular_graph,
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


def test_count_N11_refuses_threshold_below_one():
    with pytest.raises(ValueError, match="D must be >= 1, got 0"):
        count_N11(complete(3), complete(4), 0)
    # a NaN threshold would mark no vertex low and return (0, 0, 0)
    with pytest.raises(ValueError, match="^D must be >= 1, got nan$"):
        count_N11(complete(3), complete(4), nan)


def test_layers_match_edge_relaxation(rng):
    # the oracle relaxes every edge until nothing changes; an unreachable
    # vertex keeps the vertex count, and is in no layer
    disconnected = 0
    for _ in range(60):
        nv = rng.randint(1, 9)
        g = random_graph(rng, nv, rng.uniform(0.1, 0.6))
        if rng.random() < 0.3:
            g = disjoint_union(g, cycle(rng.randint(3, 5)))
        disconnected += not g.is_connected()
        n = g.vertex_count
        for v in range(n):
            dist = [n] * n
            dist[v] = 0
            changed = True
            while changed:
                changed = False
                for a, b in g.edges:
                    for x, y in ((a, b), (b, a)):
                        if dist[x] + 1 < dist[y]:
                            dist[y], changed = dist[x] + 1, True
            depth = max(d for d in dist if d < n)
            want = [sum(1 << x for x in range(n) if dist[x] == d) for d in range(depth + 1)]
            assert list(layers(g.adjacency_masks, 1 << v)) == want
    assert disconnected > 10


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


def test_signed_path_counts_match_oracle_and_single_query(rng):
    # one walk per start vertex tallies every signature towards the vertices
    # of ``ends``, a random mask or every vertex; given a signature, only
    # the codes of its prefixes. The oracle's classified paths pin every
    # entry, and the walk makes none that reads 0. The single query agrees
    # on one threshold and one endpoint per start and signature, rotating
    for _ in range(40):
        nv = rng.randint(1, 9)
        g = random_graph(rng, nv, rng.uniform(0.25, 0.55))
        gmask = g.adjacency_masks
        degree = Counter(x for e in g.edges for x in e)
        for v1 in range(nv):
            paths = [
                p for v2 in range(nv) for ell in range(1, 6)
                for p in oracle_simple_paths(g, v1, v2, ell)
            ]
            for D in (1, 2, 3):
                low = {v for v in range(nv) if degree[v] <= D}
                want = Counter(
                    (tuple(int(not {a, b} <= low) for a, b in zip(p, p[1:])), p[-1])
                    for p in paths
                )
                maxlen = rng.randint(1, 5)
                for ends in (rng.randrange(1 << nv), (1 << nv) - 1):
                    for sig in (None, tuple(rng.randrange(2) for _ in range(maxlen))):
                        tally = signed_path_counts(
                            gmask, low_degree_mask(gmask, D), v1, maxlen, ends, sig
                        )
                        expect = {}
                        for ell in range(1, maxlen + 1):
                            signatures = product((0, 1), repeat=ell)
                            for code, s in enumerate(signatures, 1 << ell):
                                if sig is not None and s != sig[:ell]:
                                    continue
                                for v2 in bits(ends):
                                    if want[s, v2]:
                                        expect[code, v2] = want[s, v2]
                        assert tally == expect
                for ell in range(1, 6):
                    signatures = product((0, 1), repeat=ell)
                    for code, s in enumerate(signatures, 1 << ell):
                        if D == 1 + v1 % 3:
                            v2 = (v1 + code) % nv
                            assert count_paths_signed(g, s, v1, v2, D) == want[s, v2]


def test_count_N11_searches_only_low_low_edges(rng, monkeypatch):
    # every search is pinned to one low-low edge per arc orbit, and one
    # injective total runs on the low-low subgraph; none covers the whole host
    patterns = [cycle(3), cycle(4), cycle(5), path(2), from_edge_list(4, [(0, 1), (2, 3)])]
    hosts = [random_graph(rng, 8, 0.5) for _ in range(8)]
    for h in patterns:
        for root, _ in counting._arc_orbits(h):
            counting._compile(h, root)  # plans search h in itself; warm them
    searched, totals = [], []
    search, injective = counting._search, counting._injective
    monkeypatch.setattr(
        counting, "_search",
        lambda c, gmask, *a, pin=(), **k: searched.append((list(gmask), pin))
        or search(c, gmask, *a, pin=pin, **k),
    )
    monkeypatch.setattr(
        counting, "_injective",
        lambda h, gmask, *a: totals.append(list(gmask)) or injective(h, gmask, *a),
    )
    pinned_any = 0
    for g in hosts:
        for h in patterns:
            for D in (1, 2, 3, 4):
                searched.clear()
                totals.clear()
                low_low = oracle_low_low_masks(g, D)
                got = count_N11(h, g, D)
                pins = [pin for _, pin in searched if pin]
                assert totals == [low_low]
                assert all(m == low_low for m, pin in searched if not pin)
                assert all(len(pin) == 2 and low_low[pin[0]] >> pin[1] & 1 for pin in pins)
                assert len(pins) == len(counting._arc_orbits(h)) * sum(
                    low_low[a] >> b & 1 for a, b in g.edges
                )
                pinned_any += bool(pins)
                assert got == oracle_count_N11(h, g, D)
    assert pinned_any


@pytest.mark.parametrize(
    "h, g, D",
    [
        # no low-low edge: the low part of K2,4 is independent
        (cycle(4), complete_bipartite(2, 4), 2),
        (path(2), complete_bipartite(2, 4), 2),
        # every edge low-low
        (cycle(4), cycle(6), 2),
        (path(2), cycle(6), 2),
        (complete(3), complete(4), 3),
        (from_edge_list(4, [(0, 1), (2, 3)]), complete(4), 3),
        # isolated host vertices
        (complete(3), disjoint_union(complete(3), empty(3)), 2),
        (path(2), disjoint_union(path(3), empty(2)), 1),
        # the empty host, with and without vertices
        (complete(3), empty(0), 2),
        (path(1), empty(4), 1),
        # a pattern larger than its host
        (cycle(6), complete(4), 3),
        (complete(4), path(2), 2),
    ],
)
def test_count_N11_edge_cases_match_oracle(h, g, D):
    assert count_N11(h, g, D) == oracle_count_N11(h, g, D)


@pytest.mark.parametrize("ell", [4, 6])
def test_count_N11_matches_the_host_difference_on_hub_rings(ell):
    # copies with some low-low edge are the host's copies less those of the
    # host without its low-low edges
    from regtail.verify import _hub_ring_graph

    h = cycle(ell)
    for k in range(5, 12):
        g = _hub_ring_graph(k)
        low_low = oracle_low_low_masks(g, 3)
        ll = [(a, b) for a, b in g.edges if low_low[a] >> b & 1]
        kept = [e for e in g.edges if e not in ll]
        n11 = count_labelled(h, g) - count_labelled(h, from_edge_list(g.vertex_count, kept))
        tilde = count_labelled(h, from_edge_list(g.vertex_count, ll))
        assert count_N11(h, g, 3) == (n11, tilde, n11 - tilde)
        assert n11 > 0


def test_paths_signed_classification():
    # path 0-1-2 with all degrees <= 2: only the all-zero signature counts
    g = path(2)
    assert count_paths_signed(g, (0, 0), 0, 2, 2) == 1
    assert count_paths_signed(g, (0, 1), 0, 2, 2) == 0
    assert count_paths_signed(g, (1, 0), 0, 2, 2) == 0
    # raise threshold pressure: with D=1 the middle vertex is high
    assert count_paths_signed(g, (1, 1), 0, 2, 1) == 1
    assert count_paths_signed(g, (0, 0), 0, 2, 1) == 0


def test_paths_signed_long_signature():
    # the tally holds entries only for the codes the walk reaches, so a
    # 70-edge signature costs at most 70 entries rather than 2**71 codes
    g = path(70)
    assert count_paths_signed(g, (0,) * 70, 0, 70, 2) == 1
    assert count_paths_signed(g, (1,) * 70, 0, 70, 2) == 0


def test_paths_signed_refuses_a_signature_above_the_stack_limit():
    # the walk recurses once per signature edge, so a signature is held to
    # the pattern vertex limit before any walk
    assert counting.MAX_PATTERN_VERTICES == 800
    assert count_paths_signed(path(800), (0,) * 800, 0, 800, 2) == 1
    with pytest.raises(ValueError) as info:
        count_paths_signed(path(1100), (0,) * 1100, 0, 1100, 2)
    assert str(info.value) == "signature has 1100 edges, above the limit of 800"


def test_paths_signed_validation():
    g = path(3)
    with pytest.raises(ValueError):
        count_paths_signed(g, (), 0, 1, 2)
    with pytest.raises(ValueError):
        count_paths_signed(g, (2,), 0, 1, 2)
    # each entry must be the integer 0 or 1: a float is refused, not
    # truncated to a class, even when it equals 0 or 1
    for s in ((0.5,), (1.0000001,), (1.0,), (0, 0.0)):
        with pytest.raises(ValueError, match="0/1 sequence"):
            count_paths_signed(g, s, 0, 1, 2)
    assert count_paths_signed(g, (True,), 0, 1, 1) == 1  # bool is an int
    for v1, v2 in ((0, 4), (-1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            count_paths_signed(g, (0,), v1, v2, 2)
    assert count_paths_signed(g, (0,), 1, 1, 2) == 0
    # the degree threshold is checked as count_N11 checks it
    for D in (nan, 0, 0.5, -1):
        with pytest.raises(ValueError, match=f"^D must be >= 1, got {D}$"):
            count_paths_signed(g, (0,), 0, 1, D)


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
    # a path and K4 minus an edge have several orbits of oriented edges
    k4_minus_edge = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    patterns = _small_patterns(rng) + [path(3), k4_minus_edge]
    assert len(counting._arc_orbits(k4_minus_edge)) == 3
    assert any(not h.is_connected() for h in patterns)
    for g in _small_hosts(rng):
        for h in patterns:
            full = oracle_per_edge(h, g)
            for e in g.edges:
                rest = [f for f in g.edges if f != e]
                less = oracle_per_edge(h, from_edge_list(g.vertex_count, rest))
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
            assert sum(m.bit_count() for m in masks) * c.weight == total
            assert total == oracle_count_injective(h, g)


def test_exists_returns_a_map_honouring_the_pins(rng):
    k4_minus_edge = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    patterns = _small_patterns(rng) + [path(3), k4_minus_edge]
    found = missed = 0
    for g in _small_hosts(rng):
        gmask = g.adjacency_masks
        for h in patterns:
            maps = set(oracle_injective_maps(h, g))
            c = counting._compile(h)
            # a broken plan keeps one map per image edge set, so one exists
            # iff any does; an unbroken one honours any pins, and a rooted
            # one pins to its root arc
            runs = [(c, ())]
            for _ in range(4):
                size = rng.randint(1, min(3, h.vertex_count))
                pin = tuple(rng.randrange(g.vertex_count) for _ in range(size))
                runs.append((counting._unbroken(c), pin))
                root = rng.choice(h.edges)
                runs.append((counting._compile(h, root), pin[:2]))
            for plan, pin in runs:
                pinned = list(zip(plan.order, pin))
                honour = {m for m in maps if all(m[u] == x for u, x in pinned)}
                got = counting._exists(plan, gmask, pin)
                assert (got is None) == (not honour)
                assert got is None or got in honour
                found += got is not None
                missed += got is None
    assert found > 100 and missed > 100
    nothing = counting._compile(empty(0))
    assert counting._exists(nothing, complete(3).adjacency_masks) == ()


def _leaf_shape(c) -> tuple[bool, bool]:
    """Whether the penultimate search vertex of plan c is a pattern
    neighbour of the last one, and whether it is one of its lows."""
    x = c.order[-2]
    return x in c.backs[-1], x in c.lows[-1]


def test_fused_last_level_matches_oracles_in_every_shape(rng):
    # the penultimate vertex bounds the last one's images by adjacency, by
    # order, by both or by injectivity alone: K3 and K2 (yes, yes), C4 and
    # C5 (yes, no), P3 (no, yes), P4 (no, no); 2K2 spans two components
    patterns = [complete(2), complete(3), cycle(4), cycle(5), path(2), path(3),
                disjoint_union(complete(2), complete(2))]
    shapes = [_leaf_shape(counting._compile(h)) for h in patterns]
    assert set(shapes) == set(product((True, False), repeat=2))
    assert shapes[2:6] == [(True, False), (True, False), (False, True), (False, False)]
    rooted = set()
    for g in _small_hosts(rng):
        gmask = g.adjacency_masks
        for h in patterns:
            maps = set(oracle_injective_maps(h, g))
            assert count_labelled(h, g) == len(maps)
            assert count_hom(h, g) == oracle_count_hom(h, g)
            report = count_with_edges(h, g)
            assert report.total == len(maps)
            assert report.per_edge == oracle_per_edge(h, g)
            assert Counter(copy_edge_lists(h, g)) == oracle_copy_edge_lists(h, g)
            through = oracle_count_through(h, g)
            for e in g.edges:
                assert count_through(h, gmask, e) == through[e]
            c = counting._compile(h)
            runs = [(c, ()), (counting._unbroken(c), ())]
            for a, b in h.edges:
                for root in (a, b), (b, a):
                    r = counting._compile(h, root)
                    rooted.add(_leaf_shape(r))
                    runs += [(r, e) for e in g.edges[:2]]
                    runs += [(r, e[::-1]) for e in g.edges[:2]]
            # every position pinned, the last two included
            everywhere = tuple(reversed(range(g.vertex_count)))[:h.vertex_count]
            runs.append((counting._unbroken(c), everywhere))
            for plan, pin in runs:
                pinned = list(zip(plan.order, pin))
                honour = {m for m in maps if all(m[u] == x for u, x in pinned)}
                got = counting._exists(plan, gmask, pin)
                assert (got is None) == (not honour)
                assert got is None or got in honour
    # rooted at an arc, P3 ends its order beside or away from the root
    assert {(True, False), (False, False)} <= rooted


def test_kernel_enters_no_frame_per_last_level_candidate():
    # the last level is read inside the penultimate one: the recursion
    # enters no frame for a last-level candidate, in any mode. The house (a
    # square 0123 with a roof 4 on 01) is no cycle, so every mode runs the
    # kernel; its plan is built first, as planning runs pinned searches
    h = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
    g = random_graph(random.Random(7), 40, 0.2)
    counting._compile(h)
    code = counting._search.__code__
    levels: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec" \
                and frame.f_code.co_filename == code.co_filename:
            levels[frame.f_locals["i"]] += 1

    sys.setprofile(profile)
    try:
        total = count_labelled(h, g)
        report = count_with_edges(h, g)
        hom = count_hom(h, g)
    finally:
        sys.setprofile(None)
    assert total == report.total > 0 and hom > total
    assert sorted(levels) == [0, 1, 2, 3]
    assert levels[0] == 3


def _group(gens, k: int) -> set[tuple[int, ...]]:
    """Every product of the permutations ``gens`` of range(k)."""
    todo = [tuple(range(k))]
    group = set(todo)
    for s in todo:
        for g in gens:
            t = tuple(g[x] for x in s)
            if t not in group:
                group.add(t)
                todo.append(t)
    return group


def _circulant(n: int, steps) -> Graph:
    """Vertex i joined to i + s and i - s mod n for every step s."""
    pairs = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return from_edge_list(n, pairs)


def test_found_automorphisms_are_a_strong_generating_set(rng):
    k4_minus_edge = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    patterns = [complete(3), cycle(4), complete(4), cycle(5), cycle(6),
                complete_bipartite(3, 3), path(3), k4_minus_edge]
    patterns += [h for h in _small_patterns(rng) if not h.is_connected()]
    for h in list(patterns):
        perm = list(range(h.vertex_count))
        rng.shuffle(perm)
        pairs = [(perm[u], perm[v]) for u, v in h.edges]
        patterns.append(from_edge_list(h.vertex_count, pairs))
    assert any(not h.is_connected() for h in patterns)
    for h in patterns:
        c, k = counting._plan(h), h.vertex_count
        aut = set(oracle_injective_maps(h, h))
        # a generator found at position i fixes order[:i] and moves order[i]
        moved = [min(i for i, u in enumerate(c.order) if g[u] != u) for g in c.gens]
        assert moved == sorted(moved)
        assert all(g in aut for g in c.gens)
        for i in range(k):
            fixing = {s for s in aut if all(s[u] == u for u in c.order[:i])}
            assert _group([g for g, j in zip(c.gens, moved) if j >= i], k) == fixing
        assert len(aut) == c.weight
        # the first arc of each orbit of the group, in edge order
        firsts: dict = {}
        for a, b in h.edges:
            for x, y in (a, b), (b, a):
                firsts.setdefault(frozenset((s[x], s[y]) for s in aut), (x, y))
        assert counting._arc_orbits(h) == tuple((arc, len(o)) for o, arc in firsts.items())


FROZEN = Path(__file__).parent / "data" / "regular_graphs_frozen.json"


def test_plan_weight_is_the_automorphism_count():
    # the copies of a pattern in itself are its automorphisms
    named = [complete(3), cycle(4), complete(4), cycle(5), cycle(6),
             complete_bipartite(3, 3), petersen()]
    for h in named:
        # every built-in pattern is arc-transitive: one arc orbit
        assert counting._arc_orbits(h) == ((h.edges[0], 2 * h.edge_count),)
        for _, span, _ in _orbit_table(validate_pattern(h)):
            if span.edge_count:
                assert counting._compile(span).weight == len(copy_edge_lists(span, span))
    frozen = json.loads(FROZEN.read_text())
    graphs = [_circulant(10, (1, 2)), _circulant(12, (1, 2, 3)),
              complete_bipartite(4, 4), petersen()]
    for key, family in frozen.items():
        n = int(key.split(",")[0])
        graphs += [from_edge_list(n, [tuple(e) for e in edges]) for edges in family]
    assert len(graphs) == 4 + 94
    # component sizes, the two rims of the prism C7 x K2 and rigid cubic
    # graphs make the fixed neighbours and the layer sizes turn candidates away
    rims = disjoint_union(cycle(7), cycle(7))
    prism = from_edge_list(14, list(rims.edges) + [(i, 7 + i) for i in range(7)])
    rng = random.Random(23)
    graphs += [disjoint_union(disjoint_union(cycle(5), cycle(5)), cycle(6)),
               disjoint_union(cycle(7), cycle(8)), prism]
    graphs += [random_regular_graph(rng, nv, 3) for nv in (20, 30, 40)]
    for g in graphs:
        c, autos = counting._compile(g), len(copy_edge_lists(g, g))
        assert c.weight == autos == len(_group(c.gens, g.vertex_count))


def test_plan_searches_once_per_orbit_not_per_vertex(monkeypatch):
    # the automorphisms found at a position place the vertices they reach
    # without a search, and only the candidates left need their layer
    # sizes; the arc orbits need no search past the plan's
    calls, bfs = [], []
    exists, walk = counting._exists, counting.layers
    monkeypatch.setattr(counting, "_exists", lambda *a: calls.append(a) or exists(*a))
    monkeypatch.setattr(counting, "layers", lambda *a: bfs.append(a) or walk(*a))
    for h, bound, bfs_bound in ((petersen(), 7, 8), (_circulant(10, (1, 2)), 6, 5),
                                (cycle(800), 3, 4)):
        calls.clear()
        bfs.clear()
        counting._plan(h)
        assert len(calls) <= bound
        assert len(bfs) <= bfs_bound
    for h in (petersen(), _circulant(10, (1, 2))):
        counting._compile(h)
        calls.clear()
        assert counting._arc_orbits.__wrapped__(h)
        assert calls == []


def test_plan_never_lists_the_automorphism_group():
    matching = from_edge_list(20, [(2 * i, 2 * i + 1) for i in range(10)])
    tracemalloc.start()
    try:
        assert counting._plan(complete(12)).weight == factorial(12)
        assert counting._plan(matching).weight == 2**10 * factorial(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_counts_invariant_under_pattern_relabelling(seed):
    # the symmetry-breaking conditions depend on the pattern's labels
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9)).relabelled_span()
    g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.8))
    perm = list(range(h.vertex_count))
    rng.shuffle(perm)
    relabelled = from_edge_list(h.vertex_count, [(perm[u], perm[v]) for u, v in h.edges])
    assert count_labelled(h, g) == count_labelled(relabelled, g)
    assert count_with_edges(h, g) == count_with_edges(relabelled, g)


def test_plan_built_once_per_distinct_pattern(monkeypatch):
    # _arc_orbits reads the plain plan; K3 and C4 totals take no plan
    counting._compile.cache_clear()
    counting._arc_orbits.cache_clear()
    planned = []
    plan = counting._plan
    monkeypatch.setattr(
        counting, "_plan",
        lambda h, root=None: planned.append((h, root)) or plan(h, root),
    )
    # K6 has no low-low edge at D = 3; the 6-cycle with a chord has some
    hosts = (complete(6), from_edge_list(6, [*cycle(6).edges, (0, 3)]))
    for _ in range(3):
        for h in (complete(3), cycle(4), validate_pattern(cycle(4))):
            for g in hosts:
                count_labelled(h, g)
                count_with_edges(h, g)
                count_N11(h, g, 3)
    # each (pattern, root) plan is built once: the plain plan, then one per
    # orbit of oriented pattern edges, on the first host with low-low edges
    expect = []
    for h in (complete(3), cycle(4)):
        expect += [(h, None)] + [(h, root) for root, _ in counting._arc_orbits(h)]
    assert planned == expect
    # the catalogue dedup compares candidates against a bucket's first
    # member, which is the kernel's pattern and is planned once
    planned.clear()
    hits = counting._compile.cache_info().hits
    cubic = connected_regular_graphs(8, 3)
    assert len(cubic) == 5
    assert planned and len(planned) == len(set(planned))
    assert set(planned) <= {(g, None) for g in cubic}
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
