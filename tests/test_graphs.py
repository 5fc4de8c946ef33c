import copy
import math
import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail.cli import PATTERNS
from regtail.counting import count_hom, count_labelled, count_N11, count_with_edges
from regtail.decompose import cycle_edge_cover_avoiding, double_cover, ordered_cover
from regtail.graphs import (
    MAX_MASK_BYTES,
    MAX_VERTICES,
    Graph,
    GraphInputError,
    PatternDegreeError,
    PatternError,
    PatternGraph,
    PatternNotConnectedError,
    PatternNotRegularError,
    SparsityContext,
    bits,
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    parse_edge_list,
    path,
    petersen,
    span_of_edges,
    star,
    validate_pattern,
)

from conftest import (
    disjoint_union,
    edge_arcs,
    format_edge_list,
    random_graph,
    random_regular_bipartite,
)
from regtail.independence import (
    fractional_independence,
    independent_set_counts,
    tilted_root,
)
from regtail.structures import CoreParams, peel


def test_from_edge_list_dedups_and_canonicalizes():
    g = from_edge_list(4, [(1, 0), (0, 1), (3, 2), (2, 3), (0, 1)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.edge_count == 2


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(GraphInputError):
        from_edge_list(-1, [])


def test_from_edge_list_caps_the_vertex_count():
    # refused before the per-vertex list is allocated
    tracemalloc.start()
    try:
        with pytest.raises(GraphInputError) as exc:
            from_edge_list(10**12, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"vertex count {10**12} exceeds {MAX_VERTICES}"
    assert peak < 1 << 16
    with pytest.raises(GraphInputError, match="exceeds"):
        from_edge_list(MAX_VERTICES + 1, [])
    assert empty(MAX_VERTICES).vertex_count == MAX_VERTICES


def test_from_edge_list_bounds_the_masks_before_building():
    # every leaf's mask is MAX_VERTICES bits wide: 37.5 MB for 3000 leaves
    top = MAX_VERTICES - 1
    pairs = [(i, top) for i in range(3000)]
    tracemalloc.start()
    try:
        with pytest.raises(GraphInputError) as exc:
            from_edge_list(MAX_VERTICES, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = 3000 * (top // 8 + 1) + 2999 // 8 + 1
    assert str(exc.value) == (
        f"adjacency masks would take {want} bytes, above the limit of "
        f"{MAX_MASK_BYTES}"
    )
    assert peak < 1 << 20


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-2, 10),
    st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=12),
    st.booleans(),
)
def test_from_edge_list_builds_or_refuses_in_one_line(n, pairs, mirror):
    if mirror:  # each pair in both orientations
        pairs = pairs + [(v, u) for u, v in pairs]
    bad = n < 0 or any(u == v or not (0 <= u < n and 0 <= v < n) for u, v in pairs)
    try:
        g = from_edge_list(n, pairs)
    except GraphInputError as exc:
        assert bad
        assert str(exc) and "\n" not in str(exc)
        return
    assert not bad
    assert g.vertex_count == n
    assert g.edges == tuple(sorted({(min(e), max(e)) for e in pairs}))
    arcs = edge_arcs(g)
    for v in range(n):
        assert g.adjacency_masks[v] == sum(1 << w for w in range(n) if (v, w) in arcs)


def test_generators_shapes():
    assert complete(5).edge_count == 10
    assert cycle(6).edge_count == 6
    assert path(6).edge_count == 6
    assert star(5).edge_count == 5
    assert complete_bipartite(2, 3).edge_count == 6
    assert empty(4).edge_count == 0
    pet = petersen()
    assert pet.vertex_count == 10 and pet.edge_count == 15
    assert pet.is_regular() and pet.max_degree() == 3


def test_petersen_has_girth_five():
    pet = petersen()
    masks, edges = pet.adjacency_masks, pet.edge_set()
    for u in range(10):
        for v in range(u + 1, 10):
            common = (masks[u] & masks[v]).bit_count()
            assert common == 0 if (u, v) in edges else common <= 1


def test_bipartition():
    side = complete_bipartite(2, 3).bipartition()
    assert side is not None
    a, b = side
    assert {len(a), len(b)} == {2, 3}
    assert cycle(5).bipartition() is None
    assert cycle(6).bipartition() is not None
    assert complete(3).bipartition() is None


def test_connectivity_and_components():
    g = disjoint_union(complete(3), cycle(4))
    assert not g.is_connected()
    comps = g.connected_components()
    assert sorted(len(c) for c in comps) == [3, 4]
    assert complete(3).is_connected()
    # no vertex and one vertex are each connected
    assert empty(0).is_connected() and empty(1).is_connected()
    assert not empty(2).is_connected()


def test_span_of_edges():
    # the span keeps only the endpoints of its edges, relabelled from 0
    sub = span_of_edges([(3, 1), (1, 2)])
    assert sub.vertex_count == 3
    assert sub.edges == ((0, 1), (0, 2))


def test_validate_pattern_accepts_regular_connected():
    for g in (complete(3), cycle(4), cycle(5), complete(4), petersen()):
        h = validate_pattern(g)
        assert h.delta == g.max_degree()
        assert 2 * h.e_h == h.delta * h.v_h


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return repr(exc)


def test_pattern_graph_is_a_graph():
    host = random_graph(random.Random(3), 8, 0.5)
    for name, make in PATTERNS.items():
        g = make()
        h = validate_pattern(g)
        assert isinstance(h, Graph)
        assert h == g and g == h and hash(h) == hash(g)
        assert h.adjacency_masks is g.adjacency_masks
        cherry = ((0, 1), (1, max(bits(g.adjacency_masks[1]))))
        for fn, args in [
            (count_labelled, (host,)),
            (count_with_edges, (host,)),
            (count_hom, (host,)),
            (count_N11, (host, 3)),
            (independent_set_counts, ()),
            (tilted_root, (1.0,)),
            (fractional_independence, ()),
            (double_cover, ()),
            (cycle_edge_cover_avoiding, ((0, 1),)),
            (ordered_cover, (cherry,)),
        ]:
            assert _outcome(fn, h, *args) == _outcome(fn, g, *args), (name, fn)


def test_validate_pattern_rejections():
    with pytest.raises(PatternNotRegularError):
        validate_pattern(path(4))
    with pytest.raises(PatternNotConnectedError):
        validate_pattern(disjoint_union(complete(3), complete(3)))
    with pytest.raises(PatternDegreeError):
        validate_pattern(from_edge_list(2, [(0, 1)]))
    with pytest.raises(PatternError):
        validate_pattern(empty(3))


@pytest.mark.parametrize("build", [
    lambda: validate_pattern(empty(0)),
    lambda: complete(0),
    lambda: complete_bipartite(0, 2),
    lambda: cycle(2),
    lambda: path(-1),
    lambda: star(0),
    lambda: SparsityContext(0, 0.5),
], ids=["empty-pattern", "complete-0", "bipartite-0-2", "cycle-2", "path-minus-1",
        "star-0", "context-n-0"])
def test_degenerate_sizes_are_refused_in_one_line(build):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) and "\n" not in str(info.value)


def test_sparsity_context_bounds_and_scales():
    with pytest.raises(ValueError):
        SparsityContext(100, 0.0)
    with pytest.raises(ValueError):
        SparsityContext(100, 1.0)
    ctx = SparsityContext(100, 0.1)
    k3 = validate_pattern(complete(3))
    assert ctx.copies_scale(k3) == pytest.approx(100**3 * 0.1**3)
    assert ctx.edge_scale(k3) == pytest.approx(100**2 * 0.1**2)
    assert ctx.density_scale(k3) == pytest.approx(100 * 0.1)
    assert ctx.log_inv_p == pytest.approx(math.log(10))


def test_graph_records_keep_their_repr():
    # repr leaves adjacency_masks out
    g = cycle(4)
    edges = "((0, 1), (0, 3), (1, 2), (2, 3))"
    assert repr(g) == f"Graph(vertex_count=4, edges={edges})"
    assert repr(validate_pattern(g)) == (
        f"PatternGraph(vertex_count=4, edges={edges}, delta=2)"
    )
    assert repr(empty(0)) == "Graph(vertex_count=0, edges=())"
    assert repr(SparsityContext(10, 0.5)) == "SparsityContext(n=10, p=0.5)"


def test_graph_records_take_keywords_and_copy():
    g = cycle(4)
    h = validate_pattern(g)
    assert Graph(vertex_count=4, edges=g.edges, adjacency_masks=g.adjacency_masks) == g
    made = PatternGraph(vertex_count=4, edges=g.edges,
                        adjacency_masks=g.adjacency_masks, delta=2)
    assert (made, made.delta) == (h, 2)
    for record in (g, h, SparsityContext(10, 0.5)):
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert repr(twin) == repr(record) and twin == record
    assert pickle.loads(pickle.dumps(h)).adjacency_masks == h.adjacency_masks


@pytest.mark.parametrize("record, field", [
    (cycle(4), "edges"),
    (cycle(4), "adjacency_masks"),
    (validate_pattern(cycle(4)), "delta"),
    (validate_pattern(cycle(4)), "vertex_count"),
    (SparsityContext(10, 0.5), "p"),
], ids=["graph-edges", "graph-masks", "pattern-delta", "pattern-order", "context-p"])
def test_graph_records_are_immutable(record, field):
    before = repr(record), getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert (repr(record), getattr(record, field)) == before


def test_sparsity_context_equality_and_refusals():
    ctx = SparsityContext(10, 0.5)
    assert ctx == SparsityContext(n=10, p=0.5)
    assert hash(ctx) == hash(SparsityContext(10, 0.5)) == hash((10, 0.5))
    assert ctx != SparsityContext(10, 0.25) and ctx != SparsityContext(11, 0.5)
    assert ctx != (10, 0.5)
    assert len({ctx, SparsityContext(10, 0.5), SparsityContext(10, 0.25)}) == 2
    # any integer type is stored as a plain int
    wide = SparsityContext(np.int64(10), 0.5)
    assert type(wide.n) is int and wide == ctx and hash(wide) == hash((10, 0.5))
    for n, p, message in [
        (0, 0.5, "n must be positive, got 0"),
        (math.nan, 0.5, "n must be an integer, got nan"),
        (math.inf, 0.5, "n must be an integer, got inf"),
        (10.5, 0.5, "n must be an integer, got 10.5"),
        (10.0, 0.5, "n must be an integer, got 10.0"),
        (10, 0.0, "p must lie strictly inside (0, 1), got 0.0"),
        (10, 1.0, "p must lie strictly inside (0, 1), got 1.0"),
        (10, math.nan, "p must lie strictly inside (0, 1), got nan"),
    ]:
        with pytest.raises(ValueError) as info:
            SparsityContext(n, p)
        assert str(info.value) == message


def test_parse_format_round_trip():
    g = petersen()
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back.edges == g.edges
    assert back.vertex_count == g.vertex_count


def test_parse_rejects_malformed():
    with pytest.raises(GraphInputError):
        parse_edge_list("3 2\n0 1\n")  # count mismatch
    with pytest.raises(GraphInputError):
        parse_edge_list("")
    with pytest.raises(GraphInputError):
        parse_edge_list("2 1\n0 1 2\n")


def test_parse_names_the_bad_line():
    # line numbers count comment and blank lines as they appear in the file
    with pytest.raises(GraphInputError, match=r"line 4: .*'1 x'"):
        parse_edge_list("# two edges\n3 2\n0 1\n1 x\n")
    with pytest.raises(GraphInputError, match=r"line 1: .*'3 two'"):
        parse_edge_list("3 two\n0 1\n1 2\n")
    with pytest.raises(GraphInputError, match=r"line 3: .*'0 1 2'"):
        parse_edge_list("2 1\n\n0 1 2\n")


@pytest.mark.parametrize("text, message", [
    ("12 3\n1_0 2\n2 3\n3 1_0\n", "line 2: non-integer value in edge line '1_0 2'"),
    ("1_2 3\n10 2\n2 3\n3 10\n", "line 1: non-integer value in header 'n m' '1_2 3'"),
    ("2 1\n\uff10 1\n", "line 2: non-integer value in edge line '\uff10 1'"),
    ("\u0663 1\n0 1\n", "line 1: non-integer value in header 'n m' '\u0663 1'"),
    # repr() escapes the unprintable no-break space
    ("2 1\n0\u00a01\n", r"line 2: non-integer value in edge line '0\xa01'"),
], ids=["edge-underscore", "header-underscore", "full-width-digit", "arabic-indic-digit",
        "no-break-space"])
def test_parse_refuses_python_only_integer_syntax(text, message):
    # int() reads each of these; the edge-list format is ASCII digits only
    with pytest.raises(GraphInputError) as info:
        parse_edge_list(text)
    assert str(info.value) == message
    # a comment may still hold any text
    assert parse_edge_list("# n_m \uff10 \u00e9\n2 1\n0 1 # 1_0\n").edge_count == 1


def test_parse_caps_the_header_vertex_count():
    # refused before any per-vertex storage is allocated
    with pytest.raises(GraphInputError, match=r"line 2: .*1000000000000 exceeds"):
        parse_edge_list("# huge\n1000000000000 0\n")
    with pytest.raises(GraphInputError, match="exceeds"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")
    assert MAX_VERTICES >= 2000
    assert parse_edge_list("2000 1\n0 1999\n").vertex_count == 2000


def test_parse_allows_comments():
    g = parse_edge_list("# triangle\n3 3\n0 1\n# middle\n0 2\n1 2\n")
    assert g.edge_count == 3


def test_random_regular_bipartite_is_regular():
    for delta, m in [(2, 5), (3, 4), (4, 6)]:
        g = random_regular_bipartite(delta, m, rng_seed=5)
        assert g.vertex_count == 2 * m
        assert g.is_regular() and g.max_degree() == delta
        assert g.bipartition() is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**21 - 1))
def test_edge_order_does_not_matter(mask):
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    edges = [pairs[i] for i in range(21) if mask >> i & 1]
    rng = random.Random(mask)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    assert from_edge_list(7, edges).edges == from_edge_list(7, shuffled).edges


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_components_partition_vertices(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 10)
    g = random_graph(rng, nv, rng.uniform(0.1, 0.5))
    comps = g.connected_components()
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(nv))
    # union-find over the edge list; each group is built in vertex order
    root = list(range(nv))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in g.edges:
        root[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(nv):
        groups.setdefault(find(v), []).append(v)
    assert comps == sorted(groups.values())
    assert g.is_connected() == (len(groups) <= 1)
    # brute-force 2-colourings
    colourable = any(
        all(c[u] != c[v] for u, v in g.edges) for c in product((0, 1), repeat=nv)
    )
    sides = g.bipartition()
    assert (sides is not None) == colourable
    if sides is not None:
        side0, side1 = sides
        assert sorted(side0 + side1) == list(range(nv))
        assert all((u in side0) != (v in side0) for u, v in g.edges)
        assert all(c[0] in side0 for c in comps)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_masks_are_the_edge_list(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6))
    dropped = set(rng.sample(g.edges, len(g.edges) // 2))
    h = validate_pattern(rng.choice([complete(3), cycle(4)]))
    params = CoreParams(1.0, 0.5, SparsityContext(10, 0.8), h)
    peeled = peel(g, params, rng.choice(["core", "strong-core"]))[0]
    built = [
        g,
        peeled,
        peeled.relabelled_span(),
        from_edge_list(g.vertex_count, set(g.edges) - dropped),
        span_of_edges(dropped),
        double_cover(g),
    ]
    for b in built:
        arcs = edge_arcs(b)
        for v in range(b.vertex_count):
            want = sum(1 << w for w in range(b.vertex_count) if (v, w) in arcs)
            assert b.adjacency_masks[v] == want
