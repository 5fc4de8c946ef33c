import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    oracle_conditional_expectation,
    oracle_conditional_gain,
    oracle_edge_orbits,
)
from regtail.counting import count_labelled
from regtail.graphs import (
    Graph,
    SparsityContext,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    petersen,
    span_of_edges,
    validate_pattern,
)
from regtail.independence import tilted_root
from regtail.ratefn import (
    InfeasibleFamilyError,
    UnsupportedRegimeError,
    _edge_orbits,
    asymptotic_conditional_gain,
    classify_regime,
    conditional_expectation_and_gain,
    exact_conditional_expectation,
    plant,
    rate_function,
    variational_upper_bound,
)

K3 = validate_pattern(complete(3))
C4 = validate_pattern(cycle(4))


def test_regime_boundaries():
    # density scale n p^(degree/2) against sqrt(n) and log-power floor
    assert classify_regime(K3, SparsityContext(100, 0.5)).tag == "dense-localized"
    assert (
        classify_regime(K3, SparsityContext(16, 0.25)).tag == "clique-only-boundary"
    )
    assert (
        classify_regime(K3, SparsityContext(10**4, 0.005)).tag == "sparse-localized"
    )
    assert classify_regime(K3, SparsityContext(10**4, 5e-4)).tag == "poisson"


def test_regime_echoes_scales():
    r = classify_regime(K3, SparsityContext(10**4, 0.005))
    assert r.density_scale == pytest.approx(50.0)
    assert r.sqrt_n == pytest.approx(100.0)
    assert r.poisson_ceiling == pytest.approx(math.log(10**4))


def test_rate_dense_takes_minimum():
    ctx = SparsityContext(100, 0.5)
    value, regime = rate_function(K3, 1.0, ctx)
    assert regime.tag == "dense-localized"
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    value10, _ = rate_function(K3, 10.0, ctx)
    assert value10 == pytest.approx(0.5 * 10.0 ** (2.0 / 3.0), abs=1e-12)
    vc4, _ = rate_function(C4, 1.0, ctx)
    assert vc4 == pytest.approx(min(tilted_root(C4, 1.0), 0.5), abs=1e-12)
    assert vc4 == pytest.approx(0.22474487139158905, abs=1e-10)


def test_rate_sparse_is_clique_cost():
    ctx = SparsityContext(10**4, 0.005)
    value, regime = rate_function(K3, 1.0, ctx)
    assert regime.tag == "sparse-localized"
    assert value == pytest.approx(0.5)
    value, _ = rate_function(K3, 8.0, ctx)
    assert value == pytest.approx(0.5 * 8.0 ** (2.0 / 3.0))


def test_rate_refuses_out_of_scope_regimes():
    with pytest.raises(UnsupportedRegimeError):
        rate_function(K3, 1.0, SparsityContext(10**4, 5e-4))
    with pytest.raises(UnsupportedRegimeError):
        rate_function(K3, 1.0, SparsityContext(16, 0.25))
    with pytest.raises(ValueError):
        rate_function(K3, 0.0, SparsityContext(100, 0.5))


def oracle_completion_expectation(g, h, ctx):
    """Average N(h, g + S) over all completions S of the missing edges,
    weighted by the exact Fraction edge probability."""
    p = Fraction(ctx.p)
    n = ctx.n
    missing = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if (u, v) not in g.edge_set()
    ]
    total = Fraction(0)
    for k in range(len(missing) + 1):
        for extra in combinations(missing, k):
            host = from_edge_list(n, list(g.edges) + list(extra))
            cnt = count_labelled(h, host)
            if cnt:
                total += (
                    p**k * (1 - p) ** (len(missing) - k) * cnt
                )
    return total


def test_exact_conditional_expectation_vs_completion_oracle():
    ctx = SparsityContext(5, 0.3)
    for edges in ([], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]):
        g = from_edge_list(5, edges)
        got = exact_conditional_expectation(g, K3, ctx, exact=True)
        assert isinstance(got, Fraction)
        assert got == oracle_completion_expectation(g, K3, ctx)
        assert exact_conditional_expectation(g, K3, ctx) == pytest.approx(
            float(got)
        )


def test_exact_conditional_expectation_empty_graph_is_unconditional():
    ctx = SparsityContext(30, 0.2)
    g = from_edge_list(30, [])
    expect = 30 * 29 * 28 * Fraction(0.2) ** 3
    assert exact_conditional_expectation(g, K3, ctx, exact=True) == expect


def test_exact_conditional_expectation_validation():
    ctx = SparsityContext(10, 0.2)
    with pytest.raises(ValueError):
        exact_conditional_expectation(from_edge_list(9, []), K3, ctx)
    with pytest.raises(ValueError):
        exact_conditional_expectation(
            from_edge_list(2, []), K3, SparsityContext(2, 0.2)
        )


SMALL_PATTERNS = {
    "k3": complete(3),
    "c4": cycle(4),
    "c5": cycle(5),
    "k4": complete(4),
    "c6": cycle(6),
    "k33": complete_bipartite(3, 3),
}


def planted_host(seed: int, n: int, clique: int) -> Graph:
    """Sparse random edges on n vertices plus a clique on random vertices."""
    rng = random.Random(seed)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    block = rng.sample(range(n), clique)
    edges |= {tuple(sorted(e)) for e in combinations(block, 2)}
    return from_edge_list(n, sorted(edges))


@pytest.mark.parametrize(
    "h, aut, orbits",
    [
        pytest.param(complete(4), 24, 11, id="k4"),
        pytest.param(cycle(6), 12, 13, id="c6"),
        pytest.param(complete_bipartite(3, 3), 72, 26, id="k33"),
        pytest.param(petersen(), 120, 396, id="petersen"),
    ],
)
def test_edge_orbit_counts(h, aut, orbits):
    assert count_labelled(h, h) == aut
    got = _edge_orbits(h)
    assert len(got) == orbits
    assert sum(size for _, size in got) == 2**h.edge_count
    assert all(aut % size == 0 for _, size in got)


@pytest.mark.parametrize("name", sorted(SMALL_PATTERNS))
def test_edge_orbits_match_brute_force(name):
    # ascending least masks, sizes from the full vertex-permutation group
    h = SMALL_PATTERNS[name]
    expect = [(min(orbit), len(orbit)) for orbit in oracle_edge_orbits(h)]
    assert _edge_orbits(h) == expect


@pytest.mark.parametrize("name", sorted(SMALL_PATTERNS))
@pytest.mark.parametrize("seed", [0, 1])
def test_orbit_sum_matches_per_subset_oracle(name, seed):
    h = validate_pattern(SMALL_PATTERNS[name])
    n = 12
    g = planted_host(seed, n, clique=5 + seed)
    for p in (0.1, 0.3):
        ctx = SparsityContext(n, p)
        got = exact_conditional_expectation(g, h, ctx, exact=True)
        assert got == oracle_conditional_expectation(g, h, n, p)
        gain = asymptotic_conditional_gain(g, h, ctx)
        assert gain == pytest.approx(
            oracle_conditional_gain(g, h, n, p), rel=1e-12
        )


def test_float_sum_order_is_ascending_orbit_mask():
    # the float path adds one term per orbit, least mask first, with the
    # orbit size folded into the integer factor
    h = validate_pattern(complete_bipartite(3, 3))
    n, p = 12, 0.3
    g = planted_host(2, n, clique=6)
    q = 1 / p - 1
    total = 0.0
    for orbit in oracle_edge_orbits(h):
        mask = min(orbit)
        chosen = [e for i, e in enumerate(h.edges) if mask >> i & 1]
        span = span_of_edges(chosen)
        cnt = count_labelled(span, g)
        if cnt:
            va = span.vertex_count
            total += q ** len(chosen) * (
                cnt * len(orbit) * math.perm(n - va, h.v_h - va)
            )
    got = exact_conditional_expectation(g, h, SparsityContext(n, p))
    assert got == p**h.e_h * total


@pytest.mark.parametrize("name", ["k4", "c6", "k33"])
def test_one_walk_feeds_both_sums_bit_identically(name, monkeypatch):
    import regtail.ratefn as ratefn

    h = validate_pattern(SMALL_PATTERNS[name])
    n = 12
    g = planted_host(3, n, clique=6)
    ctx = SparsityContext(n, 0.3)
    walks = []
    real = ratefn._subset_terms
    monkeypatch.setattr(
        ratefn, "_subset_terms", lambda g, h: walks.append(1) or real(g, h)
    )
    for exact in (False, True):
        walks.clear()
        value, gain = conditional_expectation_and_gain(g, h, ctx, exact=exact)
        assert len(walks) == 1
        assert value == exact_conditional_expectation(g, h, ctx, exact=exact)
        assert gain == asymptotic_conditional_gain(g, h, ctx)


def test_gain_single_edge_closed_form():
    # one planted edge: three single-edge pattern subsets, two labelled
    # placements each, n^(3-2) p^(3-1) completions
    n, p = 50, 0.1
    ctx = SparsityContext(n, p)
    g = from_edge_list(n, [(0, 1)])
    assert asymptotic_conditional_gain(g, K3, ctx) == pytest.approx(
        6 * (1 - p) * n * p**2
    )


def test_gain_empty_graph_is_zero():
    ctx = SparsityContext(20, 0.3)
    assert asymptotic_conditional_gain(from_edge_list(20, []), K3, ctx) == 0.0


def test_gain_tracks_exact_difference():
    # the sum with plain powers of n upper-bounds the exact surplus and,
    # for a triangle-free plant at small p, lands within a few percent
    ctx = SparsityContext(100, 0.05)
    g = from_edge_list(100, [(0, 1), (1, 2), (2, 3)])
    exact = exact_conditional_expectation(g, K3, ctx, exact=True)
    base = Fraction(100 * 99 * 98) * Fraction(ctx.p) ** 3
    surplus = float(exact - base)
    gain = asymptotic_conditional_gain(g, K3, ctx)
    assert gain >= surplus - 1e-9
    assert gain == pytest.approx(surplus, rel=0.05)


def test_plant_clique_and_bipartite_closed_forms():
    ctx = SparsityContext(50, 0.1)
    clique = plant(("clique", 7), ctx)
    assert clique.realized.vertex_count == 50
    assert clique.realized.edge_count == 21
    bip = plant(("bipartite", 3, 4), ctx)
    assert bip.realized.edge_count == 12
    assert bip.realized.max_degree() == 4


def test_plant_hub_touches_everything():
    ctx = SparsityContext(30, 0.1)
    hub = plant(("hub", 4), ctx)
    g = hub.realized
    assert g.edge_count == 4 * 26 + 6
    for v in range(4):
        assert g.degree(v) == 29
    for v in range(4, 30):
        assert g.degree(v) == 4


def test_plant_union_uses_fresh_blocks():
    ctx = SparsityContext(40, 0.1)
    ps = plant(("union", (("clique", 5), ("bipartite", 2, 3))), ctx)
    g = ps.realized
    assert g.edge_count == 10 + 6
    # blocks are vertex-disjoint: degrees 4 on the clique, then 3,3,2,2,2
    assert sorted(g.degree(v) for v in range(10)) == [2, 2, 2, 3, 3, 4, 4, 4, 4, 4]


def test_plant_cap_is_checked_before_any_edge_is_built(monkeypatch):
    import regtail.ratefn as ratefn

    ctx = SparsityContext(10, 0.1)
    monkeypatch.setattr(ratefn, "MAX_PLANTED_EDGES", 10)
    assert plant(("clique", 5), ctx).realized.edge_count == 10

    def no_edges(*args):
        raise AssertionError(f"edge list of {args} requested")

    monkeypatch.setattr(ratefn, "_block_edges", no_edges)
    for kind in (("clique", 6), ("hub", 2), ("bipartite", 3, 4),
                 ("union", (("clique", 4), ("bipartite", 2, 3)))):
        with pytest.raises(ValueError, match="above the limit of 10"):
            plant(kind, ctx)
    family = [("clique", 3), ("clique", 6)]
    with pytest.raises(ValueError, match="above the limit of 10"):
        variational_upper_bound(K3, 1.0, ctx, family)


def test_plant_errors():
    ctx = SparsityContext(10, 0.1)
    with pytest.raises(ValueError):
        plant(("hub", 11), ctx)
    with pytest.raises(ValueError):
        plant(("clique", 20), ctx)
    with pytest.raises(ValueError):
        plant(("ring", 3), ctx)
    with pytest.raises(ValueError):
        plant(("union", (("hub", 2),)), ctx)
    with pytest.raises(ValueError):
        plant(("union", (("clique", 6), ("clique", 6))), ctx)


def test_variational_bound_picks_cheapest_feasible():
    ctx = SparsityContext(60, 0.15)
    delta = 0.5
    family = [("clique", m) for m in range(3, 12)]
    cost, ps = variational_upper_bound(K3, delta, ctx, family)
    assert cost == pytest.approx(ps.realized.edge_count / (60.0**2 * 0.15**2))
    threshold = (1 + delta) * 60.0**3 * 0.15**3
    assert exact_conditional_expectation(ps.realized, K3, ctx) >= threshold
    # every strictly smaller clique in the family must be infeasible
    (_, m_star) = ps.descriptor
    for m in range(3, m_star):
        value = exact_conditional_expectation(
            plant(("clique", m), ctx).realized, K3, ctx
        )
        assert value < threshold


def test_variational_bound_tie_breaks_lexicographically():
    ctx = SparsityContext(60, 0.15)
    delta = 0.05  # small enough that a 12-edge block clears the threshold
    # both orientations plant isomorphic graphs at identical cost
    family = [("bipartite", 4, 3), ("bipartite", 3, 4)]
    cost, ps = variational_upper_bound(K3, delta, ctx, family)
    assert ps.descriptor == ("bipartite", 3, 4)
    assert cost == pytest.approx(12.0 / (60.0**2 * 0.15**2))


def test_variational_bound_errors():
    ctx = SparsityContext(60, 0.15)
    with pytest.raises(ValueError):
        variational_upper_bound(K3, 1.0, ctx, [])
    with pytest.raises(ValueError):
        variational_upper_bound(K3, -1.0, ctx, [("clique", 5)])
    with pytest.raises(InfeasibleFamilyError):
        variational_upper_bound(K3, 50.0, ctx, [("clique", 3)])
