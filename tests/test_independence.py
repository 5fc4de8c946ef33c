import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail.decompose import double_cover
from regtail.graphs import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    path,
    petersen,
    span_of_edges,
    star,
)
from regtail.independence import (
    GraphTooLargeError,
    _independent_polys,
    fractional_independence,
    independence_polynomial,
    independent_set_counts,
    tilted_root,
)

from conftest import (
    oracle_fractional_independence,
    oracle_independent_counts,
    random_graph,
)


def test_counts_vs_oracle(rng):
    assert independent_set_counts(empty(0)) == [1]
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 10), rng.uniform(0.1, 0.9))
        assert independent_set_counts(g) == oracle_independent_counts(g)
        if g.vertex_count <= 8:
            # isolated vertices appended after the last one
            g = from_edge_list(g.vertex_count + rng.randint(1, 2), g.edges)
            assert independent_set_counts(g) == oracle_independent_counts(g)


def test_every_memo_entry_is_its_induced_polynomial(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.9))
        memo = _independent_polys(g.adjacency_masks)
        assert (1 << g.vertex_count) - 1 in memo
        for s, coeffs in memo.items():
            keep = [v for v in range(g.vertex_count) if s >> v & 1]
            pos = {v: i for i, v in enumerate(keep)}
            induced = from_edge_list(
                len(keep),
                [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos],
            )
            assert coeffs == oracle_independent_counts(induced)


def test_counts_closed_forms():
    # complete graph: only singletons beyond the empty set
    assert independent_set_counts(complete(5)) == [1, 5]
    # edgeless graph: binomials
    assert independent_set_counts(empty(4)) == [1, 4, 6, 4, 1]
    assert independent_set_counts(complete(3)) == [1, 3]
    assert independent_set_counts(cycle(5)) == [1, 5, 5]
    assert independent_set_counts(complete_bipartite(2, 3)) == [1, 5, 4, 1]
    assert independent_set_counts(petersen()) == [1, 10, 30, 30, 5]


def test_path_totals_are_fibonacci():
    # total independent sets of the k-edge path follow the Fibonacci recurrence
    totals = [sum(independent_set_counts(path(k))) for k in range(1, 9)]
    for a, b, c in zip(totals, totals[1:], totals[2:]):
        assert c == a + b
    assert totals[0] == 3 and totals[1] == 5


def test_cycle_totals_are_lucas():
    totals = [sum(independent_set_counts(cycle(k))) for k in range(3, 10)]
    for a, b, c in zip(totals, totals[1:], totals[2:]):
        assert c == a + b
    assert totals[0] == 4 and totals[1] == 7


def test_counts_size_cap(rng):
    assert independent_set_counts(empty(24))[-1] == 1
    for g in (empty(25), random_graph(rng, 25, 0.3)):
        with pytest.raises(GraphTooLargeError, match="capped at 24"):
            independent_set_counts(g)


def test_polynomial_evaluation():
    # triangle: P(x) = 1 + 3x
    assert independence_polynomial(complete(3), 2.0) == pytest.approx(7.0)
    assert independence_polynomial(complete(3), Fraction(1, 3)) == Fraction(2)
    # C4: P(x) = 1 + 4x + 2x^2
    assert independence_polynomial(cycle(4), 1.0) == pytest.approx(7.0)
    assert independence_polynomial(cycle(4), 0.0) == pytest.approx(1.0)


def test_tilted_root_triangle_closed_form():
    # 1 + 3x = 1 + delta means x = delta / 3
    for delta in (0.1, 1.0, 2.5, 10.0):
        assert tilted_root(complete(3), delta) == pytest.approx(
            delta / 3, abs=1e-13
        )


def test_tilted_root_c4_closed_form():
    # 2x^2 + 4x = delta, positive branch
    for delta in (0.5, 1.0, 4.0):
        expect = (-4 + (16 + 8 * delta) ** 0.5) / 4
        assert tilted_root(cycle(4), delta) == pytest.approx(expect, abs=1e-12)


def test_tilted_root_residual_and_monotonicity(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        prev = 0.0
        for delta in (0.1, 0.5, 1.0, 3.0, 10.0):
            x = tilted_root(g, delta)
            assert x > prev  # strictly increasing in delta
            prev = x
            residual = abs(independence_polynomial(g, x) - (1.0 + delta))
            assert residual <= 1e-12 * (1.0 + delta)


def test_tilted_root_validation():
    with pytest.raises(ValueError):
        tilted_root(complete(3), 0.0)
    with pytest.raises(ValueError):
        tilted_root(complete(3), -1.0)
    with pytest.raises(ValueError):
        tilted_root(empty(0), 1.0)


def test_tilted_root_refuses_nan():
    with pytest.raises(ValueError, match="^delta must be positive, got nan$"):
        tilted_root(complete(3), float("nan"))


def test_fractional_independence_vs_oracle(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.9))
        assert fractional_independence(g).value == oracle_fractional_independence(g)


def test_fractional_is_half_alpha_of_double_cover(rng):
    # alpha*(G) = alpha(G x K2) / 2, with alpha of the cover by brute force
    for _ in range(15):
        g = random_graph(rng, rng.randint(0, 7), rng.uniform(0.1, 0.9))
        cover_alpha = len(oracle_independent_counts(double_cover(g))) - 1
        assert 2 * fractional_independence(g).value == cover_alpha


def test_fractional_witness_feasible_and_tight(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.8))
        res = fractional_independence(g)
        assert len(res.witness) == g.vertex_count
        for x in res.witness:
            assert x in (Fraction(0), Fraction(1, 2), Fraction(1))
        for u, v in g.edges:
            assert res.witness[u] + res.witness[v] <= 1
        assert sum(res.witness) == res.value


def test_fractional_regular_graphs_hit_half_vertex_count():
    # odd cycles force the half-integral optimum; bipartite ones reach it
    # with an integral side
    for g in (complete(3), cycle(5), cycle(4), cycle(6), petersen(), complete(4)):
        res = fractional_independence(g)
        assert res.value == Fraction(g.vertex_count, 2)


def test_fractional_known_values():
    assert fractional_independence(star(5)).value == Fraction(5)
    assert fractional_independence(path(3)).value == Fraction(2)
    assert fractional_independence(complete_bipartite(3, 4)).value == Fraction(4)
    assert fractional_independence(empty(0)).value == Fraction(0)


def test_fractional_size_cap(rng):
    assert fractional_independence(empty(16)).value == 16
    for g in (empty(17), random_graph(rng, 17, 0.3)):
        with pytest.raises(GraphTooLargeError, match="capped at 16"):
            fractional_independence(g)


def test_fractional_independence_of_edge_spans():
    # for every nonempty edge subset A of a Delta-regular H,
    # alpha*(span A) <= v_A - |A| / Delta, in exact rationals
    for h, delta in ((complete(4), 3), (cycle(5), 2), (cycle(6), 2),
                     (complete_bipartite(3, 3), 3)):
        edges = h.edges
        for mask in range(1, 1 << len(edges)):
            chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
            span = span_of_edges(chosen)
            bound = span.vertex_count - Fraction(len(chosen), delta)
            assert fractional_independence(span).value <= bound


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_fractional_at_least_integral(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), 0.5)
    counts = independent_set_counts(g)
    integral_alpha = len(counts) - 1
    while counts[integral_alpha] == 0:
        integral_alpha -= 1
    assert fractional_independence(g).value >= integral_alpha
