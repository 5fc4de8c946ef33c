import json
import random
import re
from ast import literal_eval
from pathlib import Path

import pytest

from regtail.counting import count_labelled
from regtail.graphs import (
    SparsityContext,
    bits,
    complete,
    from_edge_list,
    validate_pattern,
)
from regtail import verify
from regtail.independence import fractional_independence
from regtail.structures import CoreParams
from regtail.verify import (
    CHECKS,
    CheckResult,
    check_alpha_count_bound,
    check_degree_product_strong_core,
    check_mixed_growth_exponent,
    check_seqcounting_exploratory,
    connected_graphs_up_to,
    cube_graph,
    report_jsonl,
    run_all,
    summary_table,
)

from conftest import (
    connected_regular_graphs,
    oracle_canonical_form,
    oracle_count_injective,
    oracle_connected_catalogue,
    oracle_low_low_masks,
    random_graph,
    same_regular_class,
)

FROZEN = Path(__file__).parent / "data" / "regular_graphs_frozen.json"


def test_connected_graph_catalogue():
    graphs = connected_graphs_up_to(5)
    assert len(graphs) == 30
    by_order = {}
    for g in graphs:
        by_order.setdefault(g.vertex_count, []).append(g)
        assert g.is_connected()
    assert {n: len(v) for n, v in by_order.items()} == {2: 1, 3: 2, 4: 6, 5: 21}


def test_connected_graph_catalogue_matches_oracle():
    for k in range(1, 6):
        got = [(g.vertex_count, g.edges) for g in connected_graphs_up_to(k)]
        expect = [(g.vertex_count, g.edges) for g in oracle_connected_catalogue(k)]
        assert got == expect


@pytest.mark.parametrize("k", [6, 7, 100])
def test_connected_graph_catalogue_refuses_above_five_vertices(k):
    with pytest.raises(ValueError) as err:
        connected_graphs_up_to(k)
    assert str(err.value) == f"the catalogue stops at 5 vertices, got {k}"


def test_cube_graph_shape():
    g = cube_graph()
    assert g.vertex_count == 8
    assert g.is_regular() and g.max_degree() == 3
    assert g.bipartition() is not None
    assert g.is_connected()


def _relabel(rng, g):
    pi = list(range(g.vertex_count))
    rng.shuffle(pi)
    return from_edge_list(g.vertex_count, [(pi[u], pi[v]) for u, v in g.edges])


def test_isomorphic_separates_cubic_classes_on_eight_vertices(rng):
    cubic = connected_regular_graphs(8, 3)
    assert len({oracle_canonical_form(g) for g in cubic}) == len(cubic) == 5
    for i, a in enumerate(cubic):
        for j, b in enumerate(cubic):
            assert same_regular_class(a, _relabel(rng, b)) == (i == j)


# every (n, d) with n <= 8, d >= 2 and nd even, which criterion 10 sweeps,
# and two with odd degree sums
CENSUS = {
    (4, 3): 1,
    (5, 3): 0,  # odd degree sum
    (6, 3): 2,
    (7, 3): 0,
    (8, 3): 5,
    (5, 4): 1,
    (6, 4): 1,
    (7, 4): 2,
    (8, 4): 6,
    (8, 5): 3,
    (8, 6): 1,
    (8, 7): 1,
    (3, 2): 1,  # the cycle is the only connected 2-regular class
    (4, 2): 1,
    (5, 2): 1,
    (6, 2): 1,
    (7, 2): 1,
    (8, 2): 1,
    (6, 5): 1,  # complete graphs: K6 and K7
    (7, 6): 1,
}


def test_regular_graph_enumeration_census():
    for (n, d), expect in CENSUS.items():
        got = connected_regular_graphs(n, d)
        assert len(got) == expect, (n, d)
        for g in got:
            assert g.vertex_count == n
            assert g.is_regular() and (n == 0 or g.max_degree() == d)
            assert g.is_connected()
        for i, a in enumerate(got):
            for b in got[i + 1 :]:
                assert not same_regular_class(a, b)


def test_frozen_regular_graph_data_consistent():
    data = json.loads(FROZEN.read_text())
    expect = {"9,4": 16, "10,3": 19, "10,4": 59}
    assert {k: len(v) for k, v in data.items()} == expect
    for key, edge_lists in data.items():
        n, d = map(int, key.split(","))
        graphs = [from_edge_list(n, [tuple(e) for e in edges]) for edges in edge_lists]
        for g in graphs:
            assert g.is_regular() and g.max_degree() == d
            assert g.is_connected()
        for i, a in enumerate(graphs):
            for b in graphs[i + 1 :]:
                assert not same_regular_class(a, b), key


def test_gating_checkers_pass():
    for result in run_all():
        if result.check_id == "tail-threshold-exploratory":
            continue
        assert isinstance(result, CheckResult)
        assert result.passed, (result.check_id, result.violations[:3])
        assert result.instances > 0
        assert result.violations == []


def test_alpha_checker_counts_instances():
    result = check_alpha_count_bound(seed=101, graphs=5)
    assert result.passed
    assert result.instances > 0


def _colex_graph(k, mask):
    """The labelled graph on k vertices whose edges are the set bits of a
    census mask: pair i < j at bit j(j-1)/2 + i."""
    colex = [(i, j) for j in range(k) for i in range(j)]
    return from_edge_list(k, [e for b, e in enumerate(colex) if mask >> b & 1])


def _fields(entry):
    full = (1 << verify._FIELD) - 1
    return [entry >> i * verify._FIELD & full for i in range(30)]


def test_census_tables_count_injective_maps(rng):
    patterns = connected_graphs_up_to(5)
    tables = dict(zip(range(2, 6), verify._census_tables()))
    for k, table in tables.items():
        assert len(table) == 2 ** (k * (k - 1) // 2)
        masks = range(len(table)) if k < 5 else rng.sample(range(len(table)), 200)
        for mask in masks:
            f = _colex_graph(k, mask)
            expect = [
                oracle_count_injective(h, f) if h.vertex_count == k else 0
                for h in patterns
            ]
            assert _fields(table[mask]) == expect, (k, f.edges)


def test_census_tables_are_built_once():
    assert verify._census_tables() is verify._census_tables()


def test_census_matches_the_kernel(rng):
    patterns = connected_graphs_up_to(5)
    hosts = [from_edge_list(10, []), complete(10)]
    for _ in range(300):
        nv = rng.randint(2, 10)
        g = random_graph(rng, nv, rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
        hosts.append(g)
        if len(hosts) % 10 == 0:
            hosts.append(_relabel(rng, g))
    tables = verify._census_tables()
    for g in hosts:
        got = verify._census(g.adjacency_masks, tables)
        assert got == [count_labelled(h, g) for h in patterns], g.edges


def _kernel_alpha_reference(seed, graphs):
    """check_alpha_count_bound rebuilt from the backtracking kernel."""
    patterns = [
        (h, int(2 * fractional_independence(h).value))
        for h in connected_graphs_up_to(5)
    ]

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(2, 10)
            g = verify._random_graph(rng, nv, rng.choice([0.2, 0.4, 0.6, 0.8]))
            for h, alpha2 in patterns:
                n_copies = count_labelled(h, g)
                yield None if n_copies**2 <= (2 * g.edge_count) ** alpha2 else (
                    f"graph#{i} pattern={list(h.edges)}", g, n_copies,
                    (2 * g.edge_count) ** (alpha2 / 2),
                )

    return verify._seeded("alpha-count-bound", seed, cases)


@pytest.mark.parametrize(
    "seed, graphs", [(101, 40), (102, 40), (103, 40), (104, 40), (105, 40), (101, 200)]
)
def test_alpha_checker_matches_the_kernel_without_calling_it(monkeypatch, seed, graphs):
    expect = _kernel_alpha_reference(seed, graphs)
    calls = []
    monkeypatch.setattr(
        verify, "count_labelled", lambda *a: calls.append(a) or count_labelled(*a)
    )
    assert check_alpha_count_bound(seed=seed, graphs=graphs) == expect
    assert calls == []
    assert expect.instances == 30 * graphs


def _random_host(lo, hi, densities):
    def draw(rng):
        nv = rng.randint(lo, hi)
        return random_graph(rng, nv, rng.choice(densities))
    return draw


def _bipartite_host(rng):
    # the first pattern is C4, of degree 2
    a = rng.randint(2, 5)
    b = rng.randint(3, 7)
    return verify._bipartite_min_degree_host(rng, a, b, 2, rng.choice([0.0, 0.2, 0.4]))


# (checker, seed, size keyword, descriptor tag, draw of the first host)
SEEDED_CASES = [
    (verify.check_alpha_count_bound, 101, "graphs", r"graph#\d+ pattern=\[.*?\]",
     _random_host(2, 10, [0.2, 0.4, 0.6, 0.8])),
    (verify.check_path_lemma, 202, "graphs",
     r"graph#\d+ D=[23] s=[01]+ v1=\d+ v2=\d+",
     _random_host(4, 12, [0.2, 0.35, 0.5])),
    (verify.check_cycle_barN11, 303, "graphs", r"graph#\d+ D=[23] ell=\d",
     _random_host(5, 12, [0.25, 0.4, 0.55])),
    (verify.check_tildeN11_bound, 404, "graphs", r"graph#\d+ D=[23] pattern=\w+",
     _random_host(5, 12, [0.25, 0.4, 0.55])),
    (verify.check_small_count, 505, "rounds",
     r"pattern=\w+ round=\d+ \|U1\|=\d+", _bipartite_host),
]


def test_violation_descriptor_replays_the_host(monkeypatch):
    # every instance fails: the counts dwarf every bound at these sizes
    huge = 10**30
    monkeypatch.setattr(verify, "count_labelled", lambda h, g: huge)
    monkeypatch.setattr(
        verify, "_census", lambda gmask, tables: [huge] * len(connected_graphs_up_to(5))
    )
    monkeypatch.setattr(verify, "count_N11", lambda h, g, D: (huge,) * 3)
    monkeypatch.setattr(
        verify, "signed_path_counts",
        lambda gmask, low, v1, maxlen, ends: {
            (code, v2): huge for code in range(2, 2 << maxlen) for v2 in bits(ends)
        },
    )
    for checker, seed, size, tag, first_host in SEEDED_CASES:
        result = checker(seed=seed, **{size: 2})
        assert result.instances > 0, result.check_id
        assert len(result.violations) == result.instances, result.check_id
        hosts = []
        for text, lhs, rhs in result.violations:
            assert lhs == float(huge)
            m = re.fullmatch(rf"seed={seed} {tag} n=(\d+) edges=(\[.*\])", text)
            assert m, text
            hosts.append(from_edge_list(int(m[1]), literal_eval(m[2])))
        assert hosts[0] == first_host(random.Random(seed)), result.check_id
    assert {c.__name__ for c, *_ in SEEDED_CASES} == {
        name for _, name, offset, _ in CHECKS if offset is not None
    }


def test_strong_core_checker_skips_rejected_instances():
    ctx = SparsityContext(2000, 0.0194)
    params = CoreParams(
        delta=1.0,
        eps=0.05,
        context=ctx,
        pattern=validate_pattern(complete(3)),
    )
    tiny = from_edge_list(2000, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    result = check_degree_product_strong_core([("six-clique", tiny, params)])
    assert result.passed  # vacuously: nothing accepted, nothing violated
    assert result.instances == 0
    assert any("skipped" in obs for obs in result.observations)


def test_checkers_compute_shared_quantities_once(monkeypatch):
    from regtail.structures import is_strong_core

    suite = verify._strong_core_suite()
    accepted = sum(bool(is_strong_core(g, params)) for _, g, params in suite)
    calls = []
    real = verify.count_with_edges
    monkeypatch.setattr(
        verify, "count_with_edges",
        lambda *args: calls.append("count_with_edges") or real(*args),
    )
    result = check_degree_product_strong_core()
    # one per-edge count per host serves both the ladder and the checker
    assert calls == ["count_with_edges"] * len(suite)
    assert result.instances == accepted


def test_alpha_table_is_twice_the_fractional_independence_number():
    # the pinned 2 alpha* of each catalogue pattern, in catalogue order, is
    # the fractional-independence LP solved again
    patterns = connected_graphs_up_to(5)
    assert len(verify._ALPHA2) == len(patterns) == 30
    for h, alpha2 in zip(patterns, verify._ALPHA2):
        assert type(alpha2) is int
        assert alpha2 == 2 * fractional_independence(h).value, h.edges


def test_path_and_cycle_checkers_share_host_work(monkeypatch):
    from regtail import counting

    def refuse(*args):
        raise AssertionError("count_paths_signed was called")

    # the path checker reads every instance off one walk per start vertex
    for module in (verify, counting):
        monkeypatch.setattr(module, "count_paths_signed", refuse, raising=False)
    assert verify.check_path_lemma(seed=202, graphs=3).instances > 0

    # the cycle checker never searches a whole host: each search is pinned
    # to an edge, and one injective total runs on the host's low-low
    # subgraph for each threshold and length
    hosts, searched, totals = [], [], []
    draw, search, injective = verify._random_graph, counting._search, counting._injective
    monkeypatch.setattr(
        verify, "_random_graph", lambda *a: hosts.append(draw(*a)) or hosts[-1]
    )
    monkeypatch.setattr(
        counting, "_search",
        lambda c, gmask, *a, pin=(), **k: searched.append((list(gmask), pin))
        or search(c, gmask, *a, pin=pin, **k),
    )
    monkeypatch.setattr(
        counting, "_injective",
        lambda h, gmask, *a: totals.append(list(gmask)) or injective(h, gmask, *a),
    )
    verify.check_cycle_barN11(seed=303, graphs=3)
    assert len(hosts) == 3
    low_lows = [oracle_low_low_masks(g, D) for g in hosts for D in (2, 3)]
    assert len(totals) == 3 * 2 * 4  # hosts, thresholds, ell = 3..6
    assert all(gmask in low_lows for gmask in totals)
    assert all(gmask in low_lows for gmask, pin in searched if not pin)
    assert any(pin for _, pin in searched)


def test_exploratory_checker_records_observations():
    result = check_seqcounting_exploratory()
    assert result.passed  # observational: never gates
    assert result.violations == []
    assert result.observations


def test_growth_exponent_reports_slopes():
    result = check_mixed_growth_exponent(ks=(5, 7, 9))
    assert result.passed
    assert any("fitted exponent" in obs for obs in result.observations)


def test_run_all_composition():
    results = run_all()
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))
    assert len(results) == len(CHECKS)
    trimmed = [r for r in results if r.check_id != "tail-threshold-exploratory"]
    assert len(trimmed) == len(CHECKS) - 1
    assert "tail-threshold-exploratory" not in [r.check_id for r in trimmed]


def test_run_all_seed_offsets_and_sizes(monkeypatch):
    # checkers are looked up by name at call time, so patched ones are seen
    calls = []
    for _, name, _, _ in CHECKS:
        monkeypatch.setattr(
            verify, name, lambda name=name, **kw: calls.append((name, kw)) or name
        )
    assert run_all(seed=4, trials=2) == [name for _, name, _, _ in CHECKS]
    assert calls == [
        ("check_alpha_count_bound", {"seed": 105, "graphs": 2}),
        ("check_path_lemma", {"seed": 206, "graphs": 2}),
        ("check_cycle_barN11", {"seed": 307, "graphs": 2}),
        ("check_tildeN11_bound", {"seed": 408, "graphs": 2}),
        ("check_small_count", {"seed": 509, "rounds": 2}),
        ("check_degree_product_strong_core", {}),
        ("check_mixed_growth_exponent", {}),
        ("check_seqcounting_exploratory", {}),
    ]
    calls.clear()
    # "i" matches bipartite and tail; trials 0 keeps each suite's own size
    assert run_all(lemma="i") == [
        "check_small_count", "check_seqcounting_exploratory"
    ]
    assert calls == [
        ("check_small_count", {"seed": 505}),
        ("check_seqcounting_exploratory", {}),
    ]


def test_run_all_refuses_negative_trials(monkeypatch):
    # refused before any checker runs; trials 0 means each suite's default
    calls = []
    for _, name, _, _ in CHECKS:
        monkeypatch.setattr(verify, name, lambda **kw: calls.append(kw))
    with pytest.raises(ValueError, match="^trials must be non-negative, got -1$"):
        run_all(trials=-1)
    assert calls == []


def test_reports_are_deterministic():
    first = run_all()
    second = run_all()
    assert report_jsonl(first) == report_jsonl(second)
    assert summary_table(first) == summary_table(second)
    for line in report_jsonl(first).strip().split("\n"):
        record = json.loads(line)
        assert {"check", "instances", "violations", "observations"} <= set(record)


def test_summary_table_marks_failures():
    bad = CheckResult("made-up", 3, [("case", 1.0, 2.0)], [])
    table = summary_table([bad])
    assert "FAIL" in table
    good = CheckResult("made-up", 3, [], [])
    assert "FAIL" not in summary_table([good])


def test_check_results_get_their_own_observations():
    first, second = CheckResult("a", 1, []), CheckResult("b", 1, [])
    first.observations.append("seen")
    assert (first.observations, second.observations) == (["seen"], [])
    assert first.passed and not CheckResult("c", 1, [("case", 1.0, 2.0)]).passed
