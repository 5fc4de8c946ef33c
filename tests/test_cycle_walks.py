"""The closed-walk route for the short cycles C3, C4 and C5.

``count_labelled``, ``count_hom``, ``count_with_edges`` and ``count_through``
read these counts off walk identities instead of the backtracking kernel.
They are pinned here against the naive oracles on small hosts and against
the kernel itself, called directly, on large ones.
"""

import random

import pytest

from regtail import counting
from regtail.counting import (
    IsolatedPatternVertexError,
    count_hom,
    count_labelled,
    count_through,
    count_with_edges,
)
from regtail.graphs import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    parse_edge_list,
    path,
    validate_pattern,
)

from conftest import (
    disjoint_union,
    format_edge_list,
    oracle_count_hom,
    oracle_count_injective,
    oracle_count_through,
    oracle_per_edge,
    random_graph,
)

CYCLES = [cycle(k) for k in (3, 4, 5)]


def kernel_labelled(h, g):
    return counting._search(counting._compile(h), g.adjacency_masks)


def kernel_hom(h, g):
    return counting._search(counting._compile(h), g.adjacency_masks, injective=False)


def kernel_per_edge(h, g):
    c, per = counting._compile(h), {e: 0 for e in g.edges}
    counting._search(c, g.adjacency_masks, counting._tally(c, per, c.weight))
    return per


def planted_host(rng, n, p, clique):
    """G(n, p) together with a clique on ``clique`` random vertices."""
    g = random_graph(rng, n, p)
    vs = sorted(rng.sample(range(n), clique))
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    return from_edge_list(n, list(g.edges) + pairs)


def forbid_search(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("_search called")

    monkeypatch.setattr(counting, "_search", kernel)


def assert_matches_kernel(g, hom=True):
    """Every count the route serves: C3 to C5 totals and C3, C4 per edge."""
    for h in CYCLES:
        assert count_labelled(h, g) == kernel_labelled(h, g)
        if hom:
            assert count_hom(h, g) == kernel_hom(h, g)
    for h in CYCLES[:2]:
        report = count_with_edges(h, g)
        assert report.total == count_labelled(h, g)
        assert report.per_edge == kernel_per_edge(h, g)


def test_route_reads_only_order_and_degrees():
    assert [counting._short_cycle(h) for h in CYCLES] == [3, 4, 5]
    house = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
    stay = [cycle(6), path(4), disjoint_union(cycle(3), cycle(3)),
            disjoint_union(cycle(4), empty(1)), complete(4), house, empty(0)]
    assert [counting._short_cycle(h) for h in stay] == [0] * len(stay)


def test_cycles_match_the_oracles_on_small_hosts():
    rng = random.Random(29)
    hosts = [empty(0), empty(1), empty(4), disjoint_union(complete(4), empty(3))]
    hosts += [random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.9))
              for _ in range(30)]
    for g in hosts:
        for h in CYCLES:
            assert count_labelled(h, g) == oracle_count_injective(h, g)
            report = count_with_edges(h, g)
            assert report.total == count_labelled(h, g)
            assert report.per_edge == oracle_per_edge(h, g)
            through = oracle_count_through(h, g)
            for e in g.edges:
                assert count_through(h, g.adjacency_masks, e) == through[e]
            if g.vertex_count <= 7:
                assert count_hom(h, g) == oracle_count_hom(h, g)


def test_cycles_match_the_kernel_on_large_hosts():
    rng = random.Random(0)
    sparse = random_graph(rng, 1000, 0.01)
    assert_matches_kernel(sparse, hom=False)
    for h in CYCLES[:2]:
        assert count_hom(h, sparse) == kernel_hom(h, sparse)
    assert_matches_kernel(planted_host(rng, 300, 0.05, 20))


def test_homomorphisms_are_traces_of_adjacency_powers():
    np = pytest.importorskip("numpy")
    rng = random.Random(17)
    for g in (random_graph(rng, 60, 0.2), planted_host(rng, 40, 0.1, 12)):
        a = np.zeros((g.vertex_count,) * 2, dtype=np.int64)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1
        for h in CYCLES:
            k = h.vertex_count
            assert count_hom(h, g) == int(np.trace(np.linalg.matrix_power(a, k)))


@pytest.mark.parametrize("n", range(1, 13))
def test_cycles_match_the_kernel_on_cliques(n):
    assert_matches_kernel(complete(n))


@pytest.mark.parametrize("a, b", [(1, 1), (1, 5), (2, 2), (2, 7), (3, 3), (4, 6)])
def test_cycles_match_the_kernel_on_complete_bipartite_hosts(a, b):
    g = complete_bipartite(a, b)
    assert_matches_kernel(g)
    # no odd cycle: C3 and C5 have no homomorphism either
    assert count_hom(cycle(3), g) == count_hom(cycle(5), g) == 0


def test_relabelled_cycle_pattern_files_take_the_route(monkeypatch):
    rng = random.Random(5)
    g = random_graph(rng, 12, 0.4)
    want = {k: (kernel_labelled(cycle(k), g), kernel_hom(cycle(k), g)) for k in (3, 4, 5)}
    forbid_search(monkeypatch)
    for k in (3, 4, 5):
        for _ in range(4):
            perm = rng.sample(range(k), k)
            text = format_edge_list(
                from_edge_list(k, [(perm[u], perm[v]) for u, v in cycle(k).edges]))
            h = validate_pattern(parse_edge_list(text))
            assert (count_labelled(h, g), count_hom(h, g)) == want[k]


def test_cycle_counts_make_no_kernel_call(monkeypatch):
    g = planted_host(random.Random(3), 40, 0.2, 6)
    for h in CYCLES:
        counting._compile(h)
    with_kernel = [(count_labelled(h, g), count_hom(h, g)) for h in CYCLES]
    per = [count_with_edges(h, g) for h in CYCLES[:2]]
    through = [count_through(CYCLES[0], g.adjacency_masks, e) for e in g.edges]
    forbid_search(monkeypatch)
    assert [(count_labelled(h, g), count_hom(h, g)) for h in CYCLES] == with_kernel
    assert [count_with_edges(h, g) for h in CYCLES[:2]] == per
    assert [count_through(CYCLES[0], g.adjacency_masks, e) for e in g.edges] == through
    # C5 per edge and C4 through one edge stay on the kernel
    with pytest.raises(AssertionError, match="_search called"):
        count_with_edges(cycle(5), g)
    with pytest.raises(AssertionError, match="_search called"):
        count_through(cycle(4), g.adjacency_masks, g.edges[0])


def test_other_patterns_stay_on_the_kernel(monkeypatch):
    rng = random.Random(11)
    g = random_graph(rng, 7, 0.6)
    c4_iso = disjoint_union(cycle(4), empty(1))
    patterns = [disjoint_union(cycle(3), cycle(3)), cycle(6), path(4)]
    calls = []
    search = counting._search
    monkeypatch.setattr(counting, "_search", lambda *a, **k: calls.append(1) or search(*a, **k))
    for h in patterns:
        del calls[:]
        assert count_labelled(h, g) == oracle_count_injective(h, g)
        assert count_with_edges(h, g).per_edge == oracle_per_edge(h, g)
        assert calls
    # an isolated pattern vertex is still refused, and maps anywhere under hom
    with pytest.raises(IsolatedPatternVertexError):
        count_labelled(c4_iso, g)
    with pytest.raises(IsolatedPatternVertexError):
        count_with_edges(c4_iso, g)
    assert count_hom(c4_iso, g) == count_hom(cycle(4), g) * g.vertex_count
    small = random_graph(rng, 5, 0.6)
    assert count_hom(c4_iso, small) == oracle_count_hom(c4_iso, small)


# every route of the injective total: the walks for C3 to C5, the kernel
# for K4 and C6
INJECTIVE = [*CYCLES, complete(4), cycle(6)]


def test_injective_total_matches_the_kernel_and_the_oracle():
    rng = random.Random(32)
    hosts = [
        empty(0), empty(1), empty(6),
        disjoint_union(complete(4), empty(3)),
        # fewer than v(H) vertices of degree >= 2 for some of the patterns
        complete_bipartite(1, 6),
        from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        disjoint_union(complete(3), path(1)),
        disjoint_union(cycle(4), empty(2)),
        disjoint_union(path(3), complete_bipartite(1, 3)),
    ]
    hosts += [random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.9))
              for _ in range(30)]
    for g in hosts:
        for h in INJECTIVE:
            want = oracle_count_injective(h, g)
            assert counting._injective(h, g.adjacency_masks) == want
            assert counting._injective(h, list(g.adjacency_masks), g.edges) == want
            assert kernel_labelled(h, g) == want


def test_injective_total_reads_the_edges_off_the_masks():
    g = planted_host(random.Random(8), 200, 0.05, 12)
    for h in INJECTIVE[:4]:
        assert counting._injective(h, list(g.adjacency_masks)) == kernel_labelled(h, g)


def test_injective_total_exits_below_the_degree_floor(monkeypatch):
    def walk(*args):
        raise AssertionError("_cycle_walks called")

    # k - 1 vertices of degree >= 2, any number of leaves and isolated ones
    hosts = {
        3: disjoint_union(path(3), path(1)),
        4: disjoint_union(complete(3), complete_bipartite(1, 1)),
        5: disjoint_union(cycle(4), empty(3)),
    }
    forbid_search(monkeypatch)
    monkeypatch.setattr(counting, "_cycle_walks", walk)
    for h in CYCLES:
        g = hosts[h.vertex_count]
        assert counting._injective(h, g.adjacency_masks, g.edges) == 0
        assert counting._injective(h, g.adjacency_masks) == 0
