import json
import re
from math import perm

import numpy as np
import pytest

from regtail import counting, sim
from regtail.graphs import (
    SparsityContext,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    petersen,
    validate_pattern,
)
from regtail.counting import count_hom, count_labelled
from regtail.ratefn import exact_conditional_expectation, plant
from regtail.sim import (
    McEstimate,
    RngSpec,
    mc_conditional_mean,
    mc_mean_count,
    sample_gnp,
    tail_threshold,
    upper_tail_frequency,
)

from conftest import oracle_philox_stream

K3 = validate_pattern(complete(3))


STREAM_INDICES = [0, 1, 7, 1999, 2**64 + 3]


@pytest.mark.parametrize("seed", [0, 42, 2**100 + 5])
def test_streams_equal_jumped_oracle(seed):
    spec = RngSpec(seed)
    for t in STREAM_INDICES:
        want = oracle_philox_stream(seed, t).random(45)
        assert (spec.stream(t).random(45) == want).all()
    # the reused generator: each reset discards the previous draws, including
    # values left in the bit generator's buffer by an odd-length draw
    for t, gen in zip(STREAM_INDICES, sim._streams(spec, STREAM_INDICES)):
        assert (gen.random(45) == oracle_philox_stream(seed, t).random(45)).all()
        gen.integers(0, 7, size=3)


@pytest.mark.parametrize("index", [-1, 2**128])
def test_stream_index_outside_the_counter_is_refused(index):
    message = re.escape(f"stream index must lie in [0, 2**128), got {index}")
    with pytest.raises(ValueError, match=message):
        RngSpec(3).stream(index)
    with pytest.raises(ValueError, match=message):
        sample_gnp(5, 0.5, 0, index=index)


@pytest.mark.parametrize("index", [2**63 + 1, 2**64 - 1, 2**127 + 3 * 2**64 + 1, 2**128 - 1])
def test_high_stream_indices_keep_every_counter_word(index):
    # words of 2**63 and above, which a float64 would round
    spec = RngSpec(3)
    counter = np.array([0, 0, index % 2**64, index >> 64], dtype=np.uint64)
    want = np.random.Philox(key=3, counter=counter).random_raw(8)
    assert (spec.stream(index).bit_generator.random_raw(8) == want).all()
    (gen,) = sim._streams(spec, [index])
    assert (gen.bit_generator.random_raw(8) == want).all()
    g = sample_gnp(9, 0.5, spec, index=index)
    (gen,) = sim._streams(spec, [index])
    assert g == from_edge_list(9, sim._kept_pairs(gen, sim._pairs(9), 0.5))


def test_stream_index_is_an_integer():
    # a numpy integer names the same stream; a float names none
    want = RngSpec(3).stream(5).random(4)
    assert (RngSpec(3).stream(np.int64(5)).random(4) == want).all()
    assert (RngSpec(3).stream(np.uint64(5)).random(4) == want).all()
    with pytest.raises(TypeError):
        RngSpec(3).stream(1.5)


# name -> (pattern, counted from the homomorphism basis at small n)
TRIAL_PATTERNS = {
    "k3": (K3, True),
    **{f"c{k}": (validate_pattern(cycle(k)), True) for k in range(4, 8)},
    "k4": (validate_pattern(complete(4)), False),
    "k33": (validate_pattern(complete_bipartite(3, 3)), False),
}
PLANTED = [(0, 1), (1, 2), (0, 2), (5, 9), (3, 7), (7, 8)]


def _with_planted(n, planted_edges):
    return None if planted_edges is None else from_edge_list(n, planted_edges)


def _sample_counts(h, n, p, trials, seed, planted=None):
    """count_labelled of each trial's sample unioned with ``planted``."""
    extra = list(planted.edges) if planted is not None else []
    return [
        count_labelled(h, from_edge_list(
            n, [*sample_gnp(n, p, seed, index=t).edges, *extra]))
        for t in range(trials)
    ]


@pytest.mark.parametrize("planted_edges", [None, PLANTED], ids=["gnp", "planted"])
@pytest.mark.parametrize("name", sorted(TRIAL_PATTERNS))
def test_trial_counts_match_count_labelled_of_samples(name, planted_edges):
    h, takes_basis = TRIAL_PATTERNS[name]
    n, p, seed, trials = 12, 0.35, 11, 30
    assert sim._takes_basis(h, n) is takes_basis
    planted = _with_planted(n, planted_edges)
    counts = sim._trial_counts(h, n, p, trials, seed, planted)
    assert counts == _sample_counts(h, n, p, trials, seed, planted)
    assert all(type(c) is int for c in counts)
    assert len(set(counts)) > 1


@pytest.mark.parametrize("planted_edges", [None, PLANTED], ids=["gnp", "planted"])
@pytest.mark.parametrize("name", ["k3", "c4", "c5", "c7"])
def test_trial_counts_do_not_depend_on_the_block_size(monkeypatch, name, planted_edges):
    h, _ = TRIAL_PATTERNS[name]
    n, p, seed, trials = 12, 0.35, 5, 9
    assert sim._takes_basis(h, n)
    planted = _with_planted(n, planted_edges)
    want = _sample_counts(h, n, p, trials, seed, planted)
    # one trial per block; blocks of 4, the last one short; one block of all
    for block in (1, 4, trials):
        monkeypatch.setattr(sim, "BLOCK_ENTRIES", block * n * n)
        assert sim._block_size(n) == block
        assert sim._trial_counts(h, n, p, trials, seed, planted) == want


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("planted_edges", [None, PLANTED], ids=["gnp", "planted"])
@pytest.mark.parametrize("name", sorted(TRIAL_PATTERNS))
def test_trial_counts_at_p_zero_and_one(name, planted_edges, p):
    h, _ = TRIAL_PATTERNS[name]
    n = 10
    planted = _with_planted(n, planted_edges)
    counts = sim._trial_counts(h, n, p, 3, 4, planted)
    if p == 1.0:
        want = perm(n, h.vertex_count)
    else:
        want = 0 if planted is None else count_labelled(h, planted)
    assert counts == [want] * 3
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("name", sorted(TRIAL_PATTERNS))
def test_trial_counts_vanish_below_pattern_order(name):
    h, _ = TRIAL_PATTERNS[name]
    for n in range(h.vertex_count):
        counts = sim._trial_counts(h, n, 1.0, 2, 3)
        assert counts == [0, 0]
        assert all(type(c) is int for c in counts)


def _basis_value(h, g) -> int:
    """sum of weight * hom(quotient, g) over the basis of h, by the kernel."""
    return sum(
        weight * count_hom(from_edge_list(max(map(max, q)) + 1, q), g)
        for q, weight in sim._hom_basis(h)
    )


@pytest.mark.parametrize("name", ["k3", "c4", "c5", "c6", "c7"])
def test_hom_basis_counts_injective_maps(name):
    h, _ = TRIAL_PATTERNS[name]
    v = h.vertex_count
    # on K_m every injective vertex map is a copy
    for m in (v - 1, v, v + 1):
        assert _basis_value(h, complete(m)) == perm(m, v)
    # on h itself the copies are the automorphisms: 2k for C_k
    assert _basis_value(h, h) == 2 * v


def test_hom_basis_term_counts_and_c4_terms():
    sizes = {name: len(sim._hom_basis(TRIAL_PATTERNS[name][0]))
             for name in ("k3", "c4", "c5", "c6", "c7")}
    assert sizes == {"k3": 1, "c4": 4, "c5": 7, "c6": 25, "c7": 69}
    # tr A^4 - 2 sum d^2 + 2m: C4 itself, the two labelled paths P3 (one per
    # pair of opposite vertices merged), and K2 from merging both pairs
    c4 = dict(sim._hom_basis(TRIAL_PATTERNS["c4"][0]))
    assert c4 == {
        ((0, 1), (0, 3), (1, 2), (2, 3)): 1,
        ((0, 1), (0, 2)): -1,
        ((0, 1), (1, 2)): -1,
        ((0, 1),): 1,
    }
    g = sample_gnp(15, 0.4, 2)
    a = np.zeros((15, 15), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    d = a.sum(axis=1)
    want = int(np.trace(np.linalg.matrix_power(a, 4))) - 2 * int(d @ d) + 2 * g.edge_count
    assert count_labelled(TRIAL_PATTERNS["c4"][0], g) == want
    assert sim._trial_counts(TRIAL_PATTERNS["c4"][0], 15, 0.4, 2, 2)[0] == want


def test_kernel_serves_non_cycles_long_cycles_and_large_n(monkeypatch):
    def no_partitions(k):
        raise AssertionError(f"partitions of {k} elements enumerated")

    monkeypatch.setattr(sim, "_set_partitions", no_partitions)
    for g in (petersen(), complete(4), complete_bipartite(3, 3), cycle(8)):
        h = validate_pattern(g)
        assert not sim._takes_basis(h, 12)
    c4 = TRIAL_PATTERNS["c4"][0]
    assert sim._takes_basis(c4, sim.BASIS_MAX_VERTICES)
    assert not sim._takes_basis(c4, sim.BASIS_MAX_VERTICES + 1)
    # deciding (and running) Petersen walks none of its Bell(10) partitions
    counts = sim._trial_counts(validate_pattern(petersen()), 12, 0.5, 2, 1)
    assert all(type(c) is int for c in counts)


def test_basis_starts_at_twice_the_cycle_order_less_two(monkeypatch):
    # below 2(v - 1) vertices the kernel is cheaper: C6 and C7 at n = 8
    for name in ("k3", "c4", "c5", "c6", "c7"):
        h = TRIAL_PATTERNS[name][0]
        low = 2 * (h.vertex_count - 1)
        assert not sim._takes_basis(h, low - 1)
        assert sim._takes_basis(h, low)
    c7 = TRIAL_PATTERNS["c7"][0]
    assert [n for n in range(8, 13) if sim._takes_basis(c7, n)] == [12]
    # the Monte Carlo steps of the benchmark stay on the basis
    assert sim._takes_basis(K3, 20) and sim._takes_basis(K3, 30)
    assert sim._takes_basis(TRIAL_PATTERNS["c4"][0], 16)
    # and a sample that the kernel now takes keeps its counts
    kernel = sim._trial_counts(TRIAL_PATTERNS["c6"][0], 8, 0.5, 20, 3)
    assert len(set(kernel)) > 1
    monkeypatch.setattr(sim, "_takes_basis", lambda h, n: True)
    assert sim._trial_counts(TRIAL_PATTERNS["c6"][0], 8, 0.5, 20, 3) == kernel


def test_basis_block_shape_depends_on_n_only(monkeypatch):
    shapes = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        shapes.append(operands[0].shape)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(sim.np, "einsum", spy)
    for n in (5, 20, 64):
        block = sim._block_size(n)
        assert block * n * n <= sim.BLOCK_ENTRIES
        for trials in (2, 25, 700):
            shapes.clear()
            sim._trial_counts(K3, n, 0.3, trials, 1)
            assert max(shapes) == (min(block, trials), n, n)
    assert [sim._block_size(n) for n in (5, 20, 64, 128)] == [655, 40, 4, 1]


def test_sample_gnp_reproducible():
    a = sample_gnp(20, 0.3, 42)
    b = sample_gnp(20, 0.3, 42)
    assert a.edge_set() == b.edge_set()
    c = sample_gnp(20, 0.3, 43)
    assert a.edge_set() != c.edge_set()  # overwhelmingly likely


def test_sample_gnp_trial_streams_differ():
    a = sample_gnp(20, 0.3, 42, index=0)
    b = sample_gnp(20, 0.3, 42, index=1)
    assert a.edge_set() != b.edge_set()


def test_sample_gnp_extremes():
    assert sample_gnp(10, 0.0, 1).edge_count == 0
    assert sample_gnp(10, 1.0, 1).edge_count == 45
    assert sample_gnp(0, 0.5, 1).vertex_count == 0
    with pytest.raises(ValueError):
        sample_gnp(10, 1.5, 1)
    with pytest.raises(ValueError):
        sample_gnp(-1, 0.5, 1)


@pytest.mark.parametrize("n", [float("nan"), 5.5, 5.0, "5"])
def test_sample_gnp_refuses_an_n_that_is_not_an_integer(n):
    # as SparsityContext does: a float is refused before numpy sees it
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        sample_gnp(n, 0.5, 0)
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        upper_tail_frequency(K3, n, 0.5, 0.1, 2, 0)


def test_sample_gnp_refuses_n_above_limit():
    with pytest.raises(ValueError, match="sampling limit"):
        sample_gnp(sim.MAX_SAMPLE_VERTICES + 1, 0.5, 1)


def test_mc_mean_determinism():
    est1 = mc_mean_count(K3, 15, 0.25, 50, 7)
    est2 = mc_mean_count(K3, 15, 0.25, 50, 7)
    assert est1 == est2
    assert mc_mean_count(K3, 15, 0.25, 50, 8) != est1


def test_mc_prefix_means_agree():
    # per-trial streams are independent of batch size, so a shorter run is
    # a strict prefix of a longer one
    from regtail.counting import count_labelled

    short = [
        count_labelled(K3, sample_gnp(15, 0.25, 7, index=t)) for t in range(10)
    ]
    long = [
        count_labelled(K3, sample_gnp(15, 0.25, 7, index=t)) for t in range(20)
    ]
    assert long[:10] == short
    est = mc_mean_count(K3, 15, 0.25, 10, 7)
    assert est.mean == pytest.approx(sum(short) / 10)


def test_mc_mean_tracks_expectation():
    n, p, trials = 15, 0.3, 400
    est = mc_mean_count(K3, n, p, trials, 123)
    expect = n * (n - 1) * (n - 2) * p**3
    assert est.trials == trials
    assert est.std_error > 0
    assert abs(est.mean - expect) <= 5 * est.std_error


def test_mc_mean_validation():
    with pytest.raises(ValueError):
        mc_mean_count(K3, 10, 0.2, 1, 1)


def test_conditional_mean_exceeds_unconditional():
    ctx = SparsityContext(15, 0.25)
    planted = plant(("clique", 5), ctx).realized
    cond = mc_conditional_mean(planted, K3, ctx, 300, 9)
    flat = mc_mean_count(K3, 15, 0.25, 300, 9)
    assert cond.mean > flat.mean
    # and tracks the exact conditional expectation within noise
    expect = exact_conditional_expectation(planted, K3, ctx)
    assert abs(cond.mean - expect) <= 5 * cond.std_error


def test_conditional_mean_on_complete_plant_has_zero_error():
    # planting every edge forces the same deterministic count each trial
    ctx = SparsityContext(8, 0.3)
    planted = from_edge_list(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    est = mc_conditional_mean(planted, K3, ctx, 10, 5)
    assert est.mean == pytest.approx(8 * 7 * 6)
    assert est.std_error == 0.0


def test_conditional_mean_validation():
    ctx = SparsityContext(10, 0.2)
    with pytest.raises(ValueError):
        mc_conditional_mean(from_edge_list(9, []), K3, ctx, 10, 1)
    with pytest.raises(ValueError):
        mc_conditional_mean(from_edge_list(10, []), K3, ctx, 1, 1)


def test_upper_tail_frequency_bounds():
    est = upper_tail_frequency(K3, 12, 0.3, 0.2, 200, 31)
    assert 0.0 <= est.mean <= 1.0
    assert est.trials == 200
    # impossible threshold: the scale count can never be cleared by zero copies
    none = upper_tail_frequency(K3, 12, 0.3, 1e9, 50, 31)
    assert none.mean == 0.0
    assert none.std_error == 0.0
    with pytest.raises(ValueError):
        upper_tail_frequency(K3, 12, 0.3, 0.2, 1, 31)


def test_tail_threshold_is_the_one_formula(monkeypatch, capsys):
    from regtail.cli import main

    assert tail_threshold(K3, 10, 1.0, 0.5) == 1500.0
    assert main(["simulate", "--pattern", "k3", "--n", "12", "--p", "0.3",
                 "--trials", "20", "--seed", "3", "--tail-delta", "0.2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["threshold"] == tail_threshold(K3, 12, 0.3, 0.2)
    # a threshold of zero copies is cleared by every trial
    monkeypatch.setattr(sim, "tail_threshold", lambda *args: 0.0)
    assert upper_tail_frequency(K3, 12, 0.3, 0.2, 20, 3).mean == 1.0


def test_upper_tail_threshold_uses_plain_powers():
    # delta just below zero copies... tiny delta with p = 1 host: count is
    # n(n-1)(n-2) < n^3, so the frequency at delta = 0 is 0, not 1
    est = upper_tail_frequency(K3, 10, 1.0, 0.0, 5, 2)
    assert est.mean == 0.0


@pytest.mark.parametrize("delta", [float("nan"), -0.5])
def test_upper_tail_refuses_nan_and_negative_delta(monkeypatch, delta):
    # a NaN threshold would read as never reached, a negative one as cleared
    # by most samples; both are refused before any trial is drawn
    monkeypatch.setattr(sim, "_trial_counts", lambda *args, **kw: pytest.fail("drew"))
    with pytest.raises(ValueError, match=f"^delta must be >= 0, got {delta}$"):
        upper_tail_frequency(K3, 12, 0.3, delta, 10, 1)


@pytest.mark.parametrize("p, delta", [(0.2, 1e305), (0.0, 1e308)], ids=["inf", "nan"])
def test_upper_tail_refuses_a_threshold_past_the_float_range(monkeypatch, p, delta):
    # (1 + delta) n^3 overflows before p^3 could bring it back, or p = 0 makes
    # it NaN; either is refused before any trial is drawn
    monkeypatch.setattr(sim, "_trial_counts", lambda *args, **kw: pytest.fail("drew"))
    with pytest.raises(OverflowError, match="outside the float range$"):
        upper_tail_frequency(K3, 30, p, delta, 10, 1)


def test_estimators_sum_integer_counts(monkeypatch):
    seen = []
    estimate = sim._estimate
    monkeypatch.setattr(
        sim, "_estimate", lambda values: seen.append(values) or estimate(values)
    )
    ctx = SparsityContext(10, 0.3)
    mc_mean_count(K3, 10, 0.3, 5, 1)
    mc_conditional_mean(from_edge_list(10, [(0, 1)]), K3, ctx, 5, 1)
    upper_tail_frequency(K3, 10, 0.3, 0.1, 5, 1)
    assert len(seen) == 3
    assert all(type(x) is int for values in seen for x in values)


def _kernel_trials(h, n, p, trials, seed, planted):
    """The kernel's count of each trial's sample unioned with ``planted``."""
    plan = counting._compile(h)
    extra = list(planted.edges) if planted is not None else []
    return [
        counting._search(plan, from_edge_list(
            n, [*sample_gnp(n, p, seed, index=t).edges, *extra]).adjacency_masks)
        for t in range(trials)
    ]


@pytest.mark.parametrize("name", ["k3", "c4", "c5", "c6", "k4"])
def test_trials_outside_the_basis_match_the_kernel(name):
    h, _ = TRIAL_PATTERNS[name]
    below = 2 * (h.vertex_count - 1) - 1
    # planted K8 edges on 70 vertices: at p = 0.1 trials draw some of them too
    clique = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    overlap = [set(sample_gnp(70, 0.1, 7, index=t).edges) & set(clique) for t in range(6)]
    assert any(overlap)
    for n, p, seed, planted in [(80, 0.08, 5, None), (below, 0.7, 6, None),
                                (70, 0.1, 7, from_edge_list(70, clique))]:
        assert not sim._takes_basis(h, n)
        counts = sim._trial_counts(h, n, p, 6, seed, planted)
        assert counts == _kernel_trials(h, n, p, 6, seed, planted)
        assert all(type(c) is int for c in counts)


def test_cycle_trials_outside_the_basis_make_no_kernel_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_search called")

    want = {name: _kernel_trials(TRIAL_PATTERNS[name][0], 80, 0.08, 5, 2, None)
            for name in ("k3", "c4", "c5")}
    for module in (sim, counting):
        monkeypatch.setattr(module, "_search", refuse, raising=False)
    for name, counts in want.items():
        assert sim._trial_counts(TRIAL_PATTERNS[name][0], 80, 0.08, 5, 2) == counts
        assert any(counts)
