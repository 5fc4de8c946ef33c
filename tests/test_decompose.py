import json
from itertools import combinations
from pathlib import Path

import pytest

from regtail.decompose import (
    CoverComponent,
    CycleEdgeCover,
    EdgeColoring,
    NotBipartiteError,
    OrderedCover,
    cycle_edge_cover_avoiding,
    double_cover,
    konig_coloring,
    matching_avoiding,
    ordered_cover,
    validate_cycle_edge_cover,
    validate_ordered_cover,
)
from regtail.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    petersen,
)

from conftest import (
    connected_regular_graphs,
    disjoint_union,
    random_regular_bipartite,
)


def bipartite_random(rng, a, b, p):
    edges = [
        (i, a + j)
        for i in range(a)
        for j in range(b)
        if rng.random() < p
    ]
    return from_edge_list(a + b, edges)


def test_double_cover_shape():
    dc = double_cover(complete(3))
    assert dc.vertex_count == 6
    assert dc.edge_count == 6
    assert dc.bipartition() is not None  # the cover of K3 is C6
    assert dc.is_regular()
    # each original edge lifts to exactly two cross edges
    for u, v in complete(3).edges:
        assert (min(u, v + 3), max(u, v + 3)) in dc.edge_set()


def test_double_cover_of_bipartite_is_two_copies():
    dc = double_cover(cycle(4))
    comps = dc.connected_components()
    assert sorted(len(c) for c in comps) == [4, 4]


def test_konig_uses_exactly_max_degree_colors(rng):
    for _ in range(40):
        g = bipartite_random(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        col = konig_coloring(g)
        assert col.num_colors == g.max_degree()
        assert col.is_proper(g)
        assert set(col.color) == g.edge_set()
    # a colour repeated at a vertex is improper
    star = complete_bipartite(1, 2)
    assert not EdgeColoring({e: 0 for e in star.edges}, 1).is_proper(star)


def test_konig_rejects_odd_cycle():
    with pytest.raises(NotBipartiteError):
        konig_coloring(cycle(5))


def test_konig_on_empty_graph():
    col = konig_coloring(empty(4))
    assert col.num_colors == 0
    assert col.color == {}


def test_konig_regular_classes_are_perfect_matchings():
    for d, m, seed in ((2, 4, 11), (3, 5, 12), (4, 6, 13)):
        g = random_regular_bipartite(d, m, seed)
        col = konig_coloring(g)
        assert col.num_colors == d
        for cls in col.classes():
            assert len(cls) == m  # perfect matching of the 2m vertices
            touched = [v for e in cls for v in e]
            assert len(set(touched)) == 2 * m


def test_matching_avoiding_valid(rng):
    for d, m, seed in ((3, 4, 21), (4, 5, 22), (3, 6, 23)):
        g = random_regular_bipartite(d, m, seed)
        edges = sorted(g.edge_set())
        for k in range(d):
            avoid = rng.sample(edges, k)
            match = matching_avoiding(g, avoid)
            assert len(match) == m
            assert match.isdisjoint(avoid)
            touched = [v for e in match for v in e]
            assert len(set(touched)) == 2 * m
            assert match <= g.edge_set()


def test_matching_avoiding_errors(rng):
    g = random_regular_bipartite(3, 4, 31)
    edges = sorted(g.edge_set())
    with pytest.raises(ValueError):
        matching_avoiding(g, edges[:3])  # d-1 = 2 is the cap
    with pytest.raises(ValueError):
        matching_avoiding(g, [(0, 1)])  # same-side pair, never an edge
    with pytest.raises(NotBipartiteError):
        matching_avoiding(complete(4), [])
    with pytest.raises(ValueError):
        # bipartite but one side vertex has degree 1, the other 2
        matching_avoiding(from_edge_list(4, [(0, 2), (0, 3), (1, 2)]), [])
    with pytest.raises(ValueError):
        matching_avoiding(complete(2), [])  # 1-regular is below the floor
    # a 2-regular bipartite cycle is allowed
    assert len(matching_avoiding(cycle(4), [(0, 1)])) == 2


def test_cycle_cover_named_graphs():
    for g in (complete(4), complete(5), petersen(), complete_bipartite(3, 3)):
        for e in sorted(g.edge_set()):
            cover = cycle_edge_cover_avoiding(g, e)
            validate_cycle_edge_cover(cover, g, e)


def test_cycle_cover_component_shapes():
    cover = cycle_edge_cover_avoiding(complete(4), (0, 1))
    validate_cycle_edge_cover(cover, complete(4), (0, 1))
    for comp in cover.components:
        assert comp.kind in ("edge", "cycle")
    total = sum(len(c.vertices) for c in cover.components)
    assert total == 4


def test_cycle_cover_errors():
    with pytest.raises(ValueError):
        cycle_edge_cover_avoiding(cycle(4), (0, 1))  # degree 2 < 3
    with pytest.raises(ValueError):
        cycle_edge_cover_avoiding(from_edge_list(3, [(0, 1), (1, 2)]), (0, 1))
    with pytest.raises(ValueError):
        cycle_edge_cover_avoiding(complete(4), (0, 7))


def test_validator_catches_bad_covers():
    g = complete(4)
    with pytest.raises(ValueError, match="forbidden edge"):
        validate_cycle_edge_cover(
            CycleEdgeCover(
                (
                    CoverComponent("edge", (0, 1)),
                    CoverComponent("edge", (2, 3)),
                )
            ),
            g,
            (0, 1),
        )
    with pytest.raises(ValueError, match="cover every vertex"):
        validate_cycle_edge_cover(
            CycleEdgeCover((CoverComponent("edge", (0, 1)),)), g, (2, 3)
        )
    with pytest.raises(ValueError, match="not vertex-disjoint"):
        validate_cycle_edge_cover(
            CycleEdgeCover(
                (
                    CoverComponent("cycle", (0, 1, 2)),
                    CoverComponent("edge", (2, 3)),
                )
            ),
            g,
            (0, 3),
        )
    with pytest.raises(ValueError, match="repeats a vertex"):
        validate_cycle_edge_cover(
            CycleEdgeCover(
                (
                    CoverComponent("cycle", (0, 1, 2)),
                    CoverComponent("edge", (3, 3)),
                )
            ),
            g,
            (0, 3),
        )
    with pytest.raises(ValueError, match="not in the graph"):
        # the diagonal (0, 2) is absent from C4
        validate_cycle_edge_cover(
            CycleEdgeCover(
                (
                    CoverComponent("edge", (0, 2)),
                    CoverComponent("edge", (1, 3)),
                )
            ),
            cycle(4),
            (0, 1),
        )
    with pytest.raises(ValueError, match="length"):
        validate_cycle_edge_cover(
            CycleEdgeCover((CoverComponent("cycle", (0, 1)),)), g, (2, 3)
        )
    with pytest.raises(ValueError, match="kind"):
        validate_cycle_edge_cover(
            CycleEdgeCover((CoverComponent("loop", (0, 1, 2, 3)),)), g, (0, 1)
        )


def all_cherries(g):
    for b in range(g.vertex_count):
        neighbours = sorted(v if u == b else u for u, v in g.edges if b in (u, v))
        for a, c in combinations(neighbours, 2):
            yield ((a, b), (b, c))


def test_ordered_cover_all_cherries_named_graphs():
    for g in (complete(4), complete(5), petersen(), complete_bipartite(3, 3)):
        for q in all_cherries(g):
            oc = ordered_cover(g, q)
            validate_ordered_cover(oc, g, q)
            # anchors sit in the first three parts in cherry order
            (a1, b1), (b2, c2) = q
            shared = set((a1, b1)) & set((b2, c2))
            mid = shared.pop()
            tip1 = a1 if b1 == mid else b1
            tip2 = b2 if c2 == mid else c2
            assert tip1 in oc.parts[0].vertex_set()
            assert mid in oc.parts[1].vertex_set()
            assert tip2 in oc.parts[2].vertex_set()


def test_ordered_cover_attachments_link_backwards():
    g = petersen()
    q = ((0, 1), (1, 2))
    oc = ordered_cover(g, q)
    validate_ordered_cover(oc, g, q)
    placed = set()
    for comp in oc.parts[:3]:
        placed |= comp.vertex_set()
    for comp, (x, y) in zip(oc.parts[3:], oc.attachments):
        assert x in comp.vertex_set()
        assert y in placed
        placed |= comp.vertex_set()


def test_ordered_cover_errors():
    with pytest.raises(ValueError, match="share exactly one"):
        ordered_cover(complete(4), ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="belong to the graph"):
        ordered_cover(petersen(), ((0, 5), (5, 9)))
    with pytest.raises(ValueError, match="share exactly one"):
        ordered_cover(complete(4), ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="not connected"):
        ordered_cover(disjoint_union(complete(4), complete(4)), ((0, 1), (1, 2)))


def test_ordered_cover_validator_catches_tampering():
    g = complete(4)
    q = ((0, 1), (1, 2))
    oc = ordered_cover(g, q)
    validate_ordered_cover(oc, g, q)
    extra = OrderedCover(oc.parts, oc.attachments + ((0, 1),))
    with pytest.raises(ValueError, match="one attachment"):
        validate_ordered_cover(extra, g, q)
    short = OrderedCover(oc.parts[:2], ())
    with pytest.raises(ValueError, match="at least three"):
        validate_ordered_cover(short, g, q)


def mobius_ladder(n: int) -> Graph:
    """The cubic Moebius ladder: an n-cycle plus its n/2 long diagonals."""
    rim = [(i, (i + 1) % n) for i in range(n)]
    return from_edge_list(n, rim + [(i, i + n // 2) for i in range(n // 2)])


def _replace(items: tuple, at: int, item) -> tuple:
    return items[:at] + (item,) + items[at + 1 :]


def test_ordered_cover_validator_names_each_fault():
    g = mobius_ladder(12)
    q = ((0, 1), (1, 2))
    oc = ordered_cover(g, q)
    validate_ordered_cover(oc, g, q)
    # three anchor parts, three later parts, one attachment each
    assert oc.parts == tuple(CoverComponent("edge", (i, i + 6)) for i in range(6))
    assert oc.attachments == ((3, 2), (4, 3), (5, 4))
    parts, links = oc.parts, oc.attachments
    tampered = [
        (parts + (parts[5],), links, "later part repeats an earlier part"),
        (parts + (parts[0],), links, "later part repeats an earlier part"),
        ((parts[1], parts[0]) + parts[2:], links, "anchor 0 missing from its part"),
        (_replace(parts, 1, CoverComponent("cycle", (1, 2, 8, 7))), links,
         "components are not vertex-disjoint"),
        (parts, _replace(links, 0, (4, 3)), "attachment tail 4 not in its part"),
        (parts, _replace(links, 0, (3, 4)),
         "attachment head 4 not in an earlier part"),
        (parts, _replace(links, 0, (3, 0)),
         "attachment pair (3, 0) is not a graph edge"),
        (parts[:3] + (CoverComponent("edge", (3, 10)), CoverComponent("edge", (4, 9)))
         + parts[5:], links,
         "component edge (3, 10) not in the graph"),
        (_replace(parts, 0, CoverComponent("cycle", (0, 1, 7, 6))), links,
         "forbidden edge (0, 1) appears in a component"),
        (parts[:5], links[:2], "components do not cover every vertex"),
    ]
    for bad_parts, bad_links, message in tampered:
        with pytest.raises(ValueError) as exc:
            validate_ordered_cover(OrderedCover(bad_parts, bad_links), g, q)
        assert str(exc.value) == message
    # the parts are checked as a cycle/edge cover: kind, length, cherry
    k4, k4_cherry = complete(4), ((0, 1), (1, 2))
    long_edge = CoverComponent("edge", (0, 2, 1, 3))
    short_cycle, other = CoverComponent("cycle", (0, 2)), CoverComponent("cycle", (1, 3))
    loop = CoverComponent("loop", (0, 2, 1, 3))
    pet = petersen()
    pet_cover = ordered_cover(pet, ((0, 1), (1, 2)))
    holes = [
        (OrderedCover((long_edge,) * 3, ()), k4, k4_cherry,
         "edge component with 4 vertices"),
        (OrderedCover((short_cycle, other, short_cycle), ()), k4, k4_cherry,
         "cycle component of length 2"),
        (OrderedCover((loop,) * 3, ()), k4, k4_cherry, "unknown component kind 'loop'"),
        # (1, 7) is not an edge of Petersen
        (pet_cover, pet, ((0, 1), (1, 7)), "cherry edges must belong to the graph"),
    ]
    for bad, graph, cherry, message in holes:
        with pytest.raises(ValueError) as exc:
            validate_ordered_cover(bad, graph, cherry)
        assert str(exc.value) == message


def test_cover_validators_build_the_edge_set_once(monkeypatch):
    g = mobius_ladder(200)
    q = ((0, 1), (1, 2))
    cover = cycle_edge_cover_avoiding(g, (0, 1))
    oc = ordered_cover(g, q)
    assert len(oc.parts) > 50
    calls = []
    real = Graph.edge_set
    monkeypatch.setattr(Graph, "edge_set", lambda self: calls.append(1) or real(self))
    validate_cycle_edge_cover(cover, g, (0, 1))
    assert len(calls) == 1
    calls.clear()
    validate_ordered_cover(oc, g, q)
    assert len(calls) == 1


def small_regular_classes():
    """Every connected regular class with degree >= 3 that criterion 9
    covers: enumerated up to 8 vertices, plus the frozen families."""
    graphs = []
    for n, d in ((4, 3), (6, 3), (8, 3), (5, 4), (6, 4), (7, 4), (8, 4)):
        graphs.extend(connected_regular_graphs(n, d))
    frozen = Path(__file__).parent / "data" / "regular_graphs_frozen.json"
    for key, family in json.loads(frozen.read_text()).items():
        n = int(key.split(",")[0])
        graphs.extend(from_edge_list(n, [tuple(e) for e in es]) for es in family)
    return graphs


def test_cycle_cover_rules_on_small_regular_classes():
    graphs = small_regular_classes()
    assert len(graphs) == 112
    for g in graphs:
        n = g.vertex_count
        classes = konig_coloring(double_cover(g)).classes()
        for u, v in g.edges:
            # each component steps x -> sigma(x) along the first colour
            # class of the double cover that misses both lifts of uv
            lifts = {(u, v + n), (v, u + n)}
            matching = next(c for c in classes if lifts.isdisjoint(c))
            for e in ((u, v), (v, u)):
                cover = cycle_edge_cover_avoiding(g, e)
                validate_cycle_edge_cover(cover, g, e)
                steps = {
                    (x, seq[(i + 1) % len(seq)] + n)
                    for seq in (c.vertices for c in cover.components)
                    for i, x in enumerate(seq)
                }
                assert steps == set(matching)
                least = [min(c.vertices) for c in cover.components]
                assert least == sorted(least)
                for comp in cover.components:
                    assert comp.vertices[0] == min(comp.vertices)
                    assert (comp.kind == "edge") == (len(comp.vertices) == 2)


def test_ordered_cover_attachments_on_small_regular_classes():
    cherries = 0
    for g in small_regular_classes():
        neighbours = {x: set() for x in range(g.vertex_count)}
        for a, b in g.edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        covers = {e: cycle_edge_cover_avoiding(g, e) for e in g.edges}
        for (a, b), (_, c) in all_cherries(g):
            for q in (((a, b), (b, c)), ((c, b), (b, a))):
                cherries += 1
                oc = ordered_cover(g, q)
                validate_ordered_cover(oc, g, q)
                # oracle: the first remaining part, in cover order, with a
                # vertex next to a placed one; its least such vertex x, and
                # x's least placed neighbour
                placed = set().union(*(p.vertex_set() for p in oc.parts[:3]))
                remaining = [
                    comp
                    for comp in covers[tuple(sorted(q[0]))].components
                    if not comp.vertex_set() & placed
                ]
                want_parts, want_links = [], []
                while remaining:
                    comp = next(
                        c for c in remaining
                        if any(neighbours[x] & placed for x in c.vertices)
                    )
                    x = min(x for x in comp.vertices if neighbours[x] & placed)
                    want_parts.append(comp)
                    want_links.append((x, min(neighbours[x] & placed)))
                    placed |= comp.vertex_set()
                    remaining.remove(comp)
                assert oc.parts[3:] == tuple(want_parts)
                assert oc.attachments == tuple(want_links)
    assert cherries == 2 * 5580
