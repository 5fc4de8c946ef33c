import math
import random
import tracemalloc

import pytest

from regtail import counting, structures
from regtail.counting import count_labelled, count_N11, count_with_edges
from regtail.graphs import (
    SparsityContext,
    bits,
    complete,
    cycle,
    from_edge_list,
    low_degree_mask,
    validate_pattern,
)
from regtail.structures import (
    CoreParams,
    EdgePartition,
    PredicateWitness,
    degree_product_floor,
    edge_partition,
    is_core,
    is_seed,
    is_strong_core,
    peel,
    peel_to_core,
    peel_to_strong_core,
)

from conftest import (
    disjoint_union,
    oracle_count_N11,
    oracle_peel,
    oracle_per_edge,
    random_graph,
)

K3 = validate_pattern(complete(3))
CTX = SparsityContext(100, 0.05)


def make_params(delta=0.1, eps=0.4, ctx=CTX, pattern=K3, **kw):
    return CoreParams(delta=delta, eps=eps, context=ctx, pattern=pattern, **kw)


def test_core_params_defaults():
    p = make_params(delta=2.0, eps=0.25)
    assert p.c_bar == pytest.approx(10.0 / (2.0 * 0.25))
    assert p.c_star == pytest.approx(32.0 * 2.0 ** (2.0 / 3.0))
    assert p.degree_threshold == math.ceil(16 * 2 / 0.25)


def test_core_params_record_contract():
    params = CoreParams(2.0, 0.25, CTX, K3)
    assert params == make_params(delta=2.0, eps=0.25)
    assert (params.c_bar, params.c_star) == (20.0, 32.0 * 2.0 ** (2.0 / 3.0))
    given = CoreParams(2.0, 0.25, CTX, K3, c_bar=3.0, c_star=100.0)
    assert (given.c_bar, given.c_star) == (3.0, 100.0)
    with pytest.raises(AttributeError):
        params.c_bar = 1.0
    for kw, message in [
        ({"delta": 0.0}, "delta must be positive, got 0.0"),
        ({"eps": 1.0}, "eps must lie in (0,1), got 1.0"),
        ({"c_bar": -2.0}, "c_bar must be nonnegative, got -2.0"),
        ({"delta": 1.0, "c_star": 1.0}, "c_star=1.0 below 32*delta^(2/v)=32.0"),
    ]:
        with pytest.raises(ValueError) as info:
            make_params(**kw)
        assert str(info.value) == message


def test_core_params_refuse_nan():
    # a NaN fails each check; c_bar and c_star once passed on their own
    for kw, message in [
        ({"delta": math.nan}, "delta must be positive, got nan"),
        ({"eps": math.nan}, "eps must lie in (0,1), got nan"),
        ({"c_bar": math.nan}, "c_bar must be nonnegative, got nan"),
        ({"delta": 1.0, "c_star": math.nan}, "c_star=nan below 32*delta^(2/v)=32.0"),
    ]:
        with pytest.raises(ValueError) as info:
            make_params(**kw)
        assert str(info.value) == message


def test_predicate_witness_truth_and_slack():
    held = PredicateWitness(True)
    assert held and (held.violated_clause, held.attained, held.required) == (None,) * 3
    assert held.slack is None
    failed = PredicateWitness(False, "edge budget", 1.0, 3.0)
    assert not failed and failed.slack == -2.0
    assert PredicateWitness(False, "edge budget", attained=1.0).slack is None


def test_core_params_validation():
    with pytest.raises(ValueError):
        make_params(delta=0.0)
    with pytest.raises(ValueError):
        make_params(eps=0.0)
    with pytest.raises(ValueError):
        make_params(eps=1.0)
    with pytest.raises(ValueError):
        make_params(delta=1.0, c_star=1.0)  # below the 32 delta^(2/v) floor
    # exactly at the floor is allowed
    make_params(delta=1.0, c_star=32.0)
    with pytest.raises(ValueError, match="c_bar must be nonnegative, got -2"):
        make_params(c_bar=-2.0)


def test_scale_shorthands():
    p = make_params(delta=1.0, eps=0.5)
    assert p.copies_scale == pytest.approx(100.0**3 * 0.05**3)
    assert p.edge_scale == pytest.approx(100.0**2 * 0.05**2)
    assert p.core_edge_budget == pytest.approx(
        p.c_bar * p.edge_scale * math.log(1 / 0.05)
    )
    assert p.core_min_edge_threshold == pytest.approx(
        1.0 * 0.5 * p.copies_scale / p.core_edge_budget
    )
    assert p.strong_edge_budget == pytest.approx(p.c_star * p.edge_scale)
    assert p.strong_min_edge_threshold == pytest.approx(
        (1.0 * 0.5 / p.c_star) * (100.0 * 0.05) ** 1
    )


def test_predicate_ladder_accepts_k6():
    params = make_params()
    g = complete(6)
    for pred in (is_seed, is_core, is_strong_core):
        w = pred(g, params)
        assert bool(w)
        assert w.violated_clause is None
        assert w.slack is None


def test_seed_copies_clause_fails_first():
    params = make_params(delta=10.0, eps=0.1)
    w = is_seed(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]), params)
    assert not w
    assert w.violated_clause == "copies"
    assert w.attained == 6.0
    assert w.slack is not None and w.slack < 0


def test_seed_edge_budget_clause():
    params = make_params(c_bar=1e-6)
    w = is_seed(complete(6), params)
    assert not w
    assert w.violated_clause == "edges"
    assert w.attained == 15.0
    assert w.required == pytest.approx(params.core_edge_budget)


def test_core_min_edge_clause():
    # triangle plus an edge hanging off it: the pendant edge carries no copy
    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    params = make_params()
    w = is_core(g, params)
    assert not w
    assert w.violated_clause == "min-edge-copies"
    assert w.attained == 0.0


def test_core_needs_less_than_seed():
    # the copies requirement relaxes from (1-2 eps) to (1-3 eps) down the ladder
    params = make_params(delta=1.0, eps=0.2)
    seed_need = 1.0 * (1 - 2 * 0.2) * params.copies_scale
    core_need = 1.0 * (1 - 3 * 0.2) * params.copies_scale
    strong_need = 1.0 * (1 - 6 * 0.2) * params.copies_scale
    assert strong_need < core_need < seed_need


def _two_pass_witness(g, params, slack, budget, floor):
    """The ladder counted twice: copies first, then per-edge copies."""
    copies = count_labelled(params.pattern, g)
    need = params.delta * (1 - slack * params.eps) * params.copies_scale
    clauses = [
        ("copies", float(copies), need, copies >= need),
        ("edges", float(g.edge_count), budget, g.edge_count <= budget),
    ]
    if floor is not None:
        per_edge = oracle_per_edge(params.pattern, g)
        worst = min(per_edge.values(), default=None)
        clauses.append((
            "min-edge-copies",
            0.0 if worst is None else float(worst),
            floor,
            worst is None or worst >= floor,
        ))
    for name, attained, required, ok in clauses:
        if not ok:
            return (False, name, attained, required)
    return (True, None, None, None)


def test_ladder_witnesses_match_two_pass_reference(rng):
    seen = set()
    for trial in range(60):
        pattern = validate_pattern(complete(3) if trial % 2 else cycle(4))
        params = make_params(
            delta=rng.choice([0.05, 0.1, 0.5, 2.0]),
            eps=rng.choice([0.05, 0.1, 0.15]),
            pattern=pattern,
            c_bar=rng.choice([0.0, 1e-3]),
        )
        g = random_graph(rng, rng.randint(0, 7), rng.uniform(0.2, 0.9))
        rungs = (
            (is_seed, 2, params.core_edge_budget, None),
            (is_core, 3, params.core_edge_budget, params.core_min_edge_threshold),
            (is_strong_core, 6, params.strong_edge_budget,
             params.strong_min_edge_threshold),
        )
        for pred, slack, budget, floor in rungs:
            w = pred(g, params)
            got = (w.satisfied, w.violated_clause, w.attained, w.required)
            assert got == _two_pass_witness(g, params, slack, budget, floor)
            seen.add(w.violated_clause)
    assert seen == {None, "copies", "edges", "min-edge-copies"}


def test_each_rung_counts_the_host_once(monkeypatch):
    import regtail.structures as structures

    calls = []
    for name in ("count_labelled", "count_with_edges"):
        real = getattr(structures, name)
        monkeypatch.setattr(
            structures, name,
            lambda h, g, real=real, name=name: calls.append(name) or real(h, g),
        )
    params = make_params()
    for pred, counter in ((is_seed, "count_labelled"),
                          (is_core, "count_with_edges"),
                          (is_strong_core, "count_with_edges")):
        calls.clear()
        assert pred(complete(6), params)
        assert calls == [counter]


def test_edge_partition_classifies_endpoints():
    # triangle with a pendant path; D=1 marks only the two path tips... no:
    # degrees are 2,2,3,2,1 so D=1 marks vertex 4 alone
    g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    part = edge_partition(g, 1)
    assert part.low_vertices == frozenset({4})
    assert part.e11 == frozenset()
    assert part.e12 == frozenset({(3, 4)})
    assert part.e22 == frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})
    part2 = edge_partition(g, 2)
    assert part2.low_vertices == frozenset({0, 1, 3, 4})
    assert part2.e11 == frozenset({(0, 1), (3, 4)})
    assert part2.e22 == frozenset()
    for D in (-1, math.nan):
        # a NaN threshold would put every edge in e22
        message = f"^degree threshold must be >= 0, got {D}$"
        with pytest.raises(ValueError, match=message):
            edge_partition(g, D)


def test_edge_partition_covers_all_edges(rng):
    for _ in range(20):
        g = random_graph(rng, 9, 0.4)
        for D in (0, 1, 2, 3, 8):
            part = edge_partition(g, D)
            assert part.e11 | part.e12 | part.e22 == g.edge_set()
            assert len(part.e11) + len(part.e12) + len(part.e22) == g.edge_count


def test_degree_split_agrees_everywhere(rng):
    # the edge partition, the N11 split and the direct low-low count all
    # read one low-degree mask
    for _ in range(12):
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.5]))
        for D in range(5):
            part = edge_partition(g, D)
            low = low_degree_mask(g.adjacency_masks, D)
            assert part.low_vertices == set(bits(low))
            assert part.low_vertices == {v for v in range(g.vertex_count)
                                         if g.degree(v) <= D}
            if D < 1:
                continue
            low_low = from_edge_list(g.vertex_count, part.e11)
            for h in (complete(3), cycle(4)):
                split = count_N11(h, g, D)
                assert split[1] == count_labelled(h, low_low)
                assert split == oracle_count_N11(h, g, D)


PEEL_PARAMS = CoreParams(
    delta=5.0, eps=0.5, context=SparsityContext(30, 0.3), pattern=K3
)


def test_peel_reaches_fixed_point(rng):
    threshold = PEEL_PARAMS.core_min_edge_threshold
    assert threshold > 1  # otherwise the run only strips copy-free edges
    for _ in range(10):
        g = random_graph(rng, 30, 0.3)
        peeled = peel_to_core(g, PEEL_PARAMS)
        assert peeled.vertex_count == g.vertex_count
        assert peeled.edge_set() <= g.edge_set()
        if peeled.edge_count:
            report = count_with_edges(K3, peeled)
            assert min(report.per_edge.values()) >= threshold


def test_peel_idempotent(rng):
    for _ in range(5):
        g = random_graph(rng, 30, 0.3)
        once = peel_to_core(g, PEEL_PARAMS)
        twice = peel_to_core(once, PEEL_PARAMS)
        assert twice.edge_set() == once.edge_set()


def test_peel_copy_loss_bounded(rng):
    threshold = PEEL_PARAMS.core_min_edge_threshold
    for _ in range(10):
        g = random_graph(rng, 30, 0.3)
        peeled = peel_to_core(g, PEEL_PARAMS)
        removed = g.edge_count - peeled.edge_count
        lost = count_labelled(K3, g) - count_labelled(K3, peeled)
        assert lost <= threshold * removed


def test_peel_result_is_label_invariant(rng):
    # the surviving edge set is canonical, so peeling commutes with relabelling
    g = random_graph(rng, 25, 0.3)
    base = peel_to_core(g, PEEL_PARAMS)
    for _ in range(10):
        perm = list(range(25))
        rng.shuffle(perm)
        shuffled = from_edge_list(
            25, [(perm[u], perm[v]) for u, v in g.edges]
        )
        peeled = peel_to_core(shuffled, PEEL_PARAMS)
        expect = {
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for u, v in base.edges
        }
        assert peeled.edge_set() == expect


def test_peels_match_oracle(rng):
    # delta scales both thresholds across the hosts' per-edge counts
    partial = 0
    for pattern in (complete(3), cycle(4), complete(4), cycle(5)):
        for delta in (1.0, 2.0, 3.0, 4.5, 6.0):
            params = make_params(
                delta=delta, eps=0.5, ctx=SparsityContext(10, 0.8),
                pattern=validate_pattern(pattern),
            )
            for _ in range(4):
                g = random_graph(rng, rng.randint(6, 8), rng.uniform(0.3, 0.9))
                for peel, threshold in (
                    (peel_to_core, params.core_min_edge_threshold),
                    (peel_to_strong_core, params.strong_min_edge_threshold),
                ):
                    kept = peel(g, params).edge_set()
                    assert kept == oracle_peel(pattern, g, threshold)
                    partial += 0 < len(kept) < g.edge_count
    assert partial >= 25


def _witness(w):
    return (w.satisfied, w.violated_clause, w.attained, w.required)


def test_peel_judges_the_survivors_as_a_recount_does(rng):
    rungs = (("core", peel_to_core, is_core),
             ("strong-core", peel_to_strong_core, is_strong_core))
    seen = set()
    for pattern in (complete(3), cycle(4), complete(4)):
        # the last context's small edge budget leaves survivors over budget
        for delta, eps, p, c_bar in ((0.5, 0.5, 0.8, 0.0), (2.0, 0.1, 0.8, 0.0),
                                     (4.5, 0.5, 0.8, 0.0), (0.5, 0.5, 0.5, 0.5)):
            params = make_params(
                delta=delta, eps=eps, ctx=SparsityContext(10, p),
                pattern=validate_pattern(pattern), c_bar=c_bar,
            )
            for _ in range(4):
                g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.3, 0.9))
                for rung, peel_to, judge in rungs:
                    peeled, witness = peel(g, params, rung)
                    assert peeled == peel_to(g, params)
                    assert _witness(witness) == _witness(judge(peeled, params))
                    seen.add(witness.violated_clause)
    # every survivor clears the floor, so only the first two clauses can fail
    assert seen == {None, "copies", "edges"}
    # p^3 underflows, so the core floor is 0.0 and no edge is thin
    params = make_params(ctx=SparsityContext(10, 1e-120))
    assert params.core_min_edge_threshold == 0.0
    g = random_graph(rng, 8, 0.5)
    peeled, witness = peel(g, params, "core")
    assert peeled == g
    assert _witness(witness) == _witness(is_core(g, params))


def test_peel_leaves_the_survivors_counts(rng):
    partial = 0
    for pattern in (complete(3), cycle(4), complete(4)):
        h = validate_pattern(pattern)
        for _ in range(10):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.3, 0.9))
            per = count_with_edges(h, g).per_edge
            threshold = rng.choice([1, 2, 4, 6, 12]) * h.e_h
            peeled = structures._peel(g, h, threshold, per)
            assert per == count_with_edges(h, peeled).per_edge
            partial += 0 < peeled.edge_count < g.edge_count
    assert partial >= 5


def test_peel_refuses_a_rung_without_a_floor():
    with pytest.raises(ValueError, match="'seed' has no per-edge floor"):
        peel(complete(4), make_params(), "seed")


def test_peel_memory_is_linear_in_host_edges(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("copy table built")

    monkeypatch.setattr(counting, "copy_edge_lists", refuse)
    monkeypatch.setattr(structures, "copy_edge_lists", refuse, raising=False)
    rng = random.Random(16)
    clique = rng.sample(range(60), 16)
    edges = {(min(u, v), max(u, v)) for u in clique for v in clique if u != v}
    while len(edges) < 120 + 150:
        u, v = rng.sample(range(60), 2)
        edges.add((min(u, v), max(u, v)))
    g = from_edge_list(60, edges)
    c4 = validate_pattern(cycle(4))
    params = make_params(delta=4.0, eps=0.5, ctx=SparsityContext(60, 0.1), pattern=c4)
    count_with_edges(c4, complete(4))  # plans are cached outside the trace
    counting.count_through(c4, complete(4).adjacency_masks, (0, 1))
    tracemalloc.start()
    try:
        core = peel_to_core(g, params)
        strong = peel_to_strong_core(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K16 holds 43680 labelled C4s; a table of them peaks near 20 MB
    assert peak < 1 << 20
    inside = {e for e in edges if e[0] in clique and e[1] in clique}
    for peeled in (core, strong):
        assert inside < peeled.edge_set() < g.edge_set()


def test_strong_peel_uses_strong_threshold():
    params = make_params(delta=1.0, eps=0.5)
    # strong threshold ~0.078, core threshold ~0.042: an edge inside
    # exactly one unordered triangle survives both (2 labelled copies)
    g = disjoint_union(complete(3), complete(3))
    assert peel_to_strong_core(g, params).edge_count == 6
    assert peel_to_core(g, params).edge_count == 6
    # pendant edge dies under either
    g2 = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert peel_to_core(g2, params).edge_count == 3
    assert peel_to_strong_core(g2, params).edge_count == 3


def test_degree_product_scales():
    params = make_params(delta=1.0, eps=0.25)
    assert 0 < degree_product_floor(params) < 1


def test_cycle_peels_match_the_oracle_on_planted_hosts(rng, monkeypatch):
    # K3 and C4 count and peel from closed walks; the survivors must be the
    # oracle's, and the witness the kernel's judgement of them
    hosts = []
    for _ in range(6):
        g = random_graph(rng, 9, rng.uniform(0.2, 0.5))
        clique = sorted(rng.sample(range(9), rng.randint(4, 6)))
        pairs = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        hosts.append(from_edge_list(9, list(g.edges) + pairs))
    rungs = (("core", "core_min_edge_threshold", is_core),
             ("strong-core", "strong_min_edge_threshold", is_strong_core))
    cases, partial = [], 0
    # (delta, eps, p, c_bar): the last two leave the survivors short of
    # copies and over their edge budget
    contexts = [(delta, 0.5, 0.8, 0.0) for delta in (1.0, 3.0, 6.0, 12.0)]
    contexts += [(2.0, 0.1, 0.8, 0.0), (0.5, 0.5, 0.5, 0.5)]
    for pattern in (complete(3), cycle(4)):
        for delta, eps, p, c_bar in contexts:
            params = make_params(delta=delta, eps=eps, ctx=SparsityContext(10, p),
                                 pattern=validate_pattern(pattern), c_bar=c_bar)
            for g in hosts:
                for rung, floor, judge in rungs:
                    peeled, witness = peel(g, params, rung)
                    kept = oracle_peel(pattern, g, getattr(params, floor))
                    assert peeled.edge_set() == kept
                    # the peel's own masks are those a fresh build makes
                    built = from_edge_list(g.vertex_count, kept)
                    assert peeled == built
                    assert peeled.adjacency_masks == built.adjacency_masks
                    partial += 0 < len(kept) < g.edge_count
                    cases.append((peeled, params, judge, witness))
    assert partial >= 10
    assert {witness.violated_clause for *_, witness in cases} == {None, "copies", "edges"}
    monkeypatch.setattr(counting, "_short_cycle", lambda h: 0)
    for peeled, params, judge, witness in cases:
        assert _witness(witness) == _witness(judge(peeled, params))
