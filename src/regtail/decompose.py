"""Constructive decompositions of patterns.

Edge colorings with max-degree many colors via alternating-path
recoloring, perfect matchings dodging a small forbidden set,
vertex-disjoint cycle/edge covers excluding one edge, and an ordered cover
anchored at a prescribed cherry. The cycle/edge cover is the cycle
decomposition of the permutation sigma that a perfect matching of the
double cover (``graphs.double_cover``), pairing each a with sigma(a) + v_h,
induces on V(h). Existence arguments are turned into deterministic
constructions; validators re-check every claimed invariant.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Edge, Graph, _canon, bits, double_cover


class NotBipartiteError(ValueError):
    pass


class EdgeColoring(namedtuple("EdgeColoring", "color num_colors")):
    """The color of each edge, from 0 to num_colors - 1."""

    __slots__ = ()

    def classes(self) -> list[list[Edge]]:
        out: list[list[Edge]] = [[] for _ in range(self.num_colors)]
        for e in sorted(self.color):
            out[self.color[e]].append(e)
        return out

    def is_proper(self, g: Graph) -> bool:
        for v in range(g.vertex_count):
            seen = set()
            for w in bits(g.adjacency_masks[v]):
                c = self.color[_canon(v, w)]
                if c in seen:
                    return False
                seen.add(c)
        return True


def konig_coloring(g: Graph) -> EdgeColoring:
    """Proper edge coloring of a bipartite graph with max-degree colors.

    Processes edges in canonical order. When the endpoints have no common
    free color, swaps a two-color alternating path starting at the second
    endpoint; the path cannot reach the first endpoint (it would need to
    arrive on a color that endpoint misses), so the swap frees one color
    at both ends.
    """
    if g.bipartition() is None:
        raise NotBipartiteError("input graph is not bipartite")
    ncol = g.max_degree()
    if ncol == 0:
        return EdgeColoring({}, 0)
    # used[v][c] = neighbor joined to v by the edge colored c, or None
    used: list[list[int | None]] = [[None] * ncol for _ in range(g.vertex_count)]
    color: dict[Edge, int] = {}

    def free(v: int) -> int:
        for c in range(ncol):
            if used[v][c] is None:
                return c
        raise AssertionError("no free color at an uncolored endpoint")

    for u, v in g.edges:
        alpha = free(u)
        if used[v][alpha] is not None:
            beta = free(v)
            # walk the alpha/beta path from v and swap its colors
            path: list[tuple[int, int, int]] = []
            cur, col = v, alpha
            while used[cur][col] is not None:
                nxt = used[cur][col]
                path.append((cur, nxt, col))
                cur = nxt
                col = beta if col == alpha else alpha
            for x, y, c in path:
                used[x][c] = None
                used[y][c] = None
            for x, y, c in path:
                nc = beta if c == alpha else alpha
                color[_canon(x, y)] = nc
                used[x][nc] = y
                used[y][nc] = x
        color[(u, v)] = alpha
        used[u][alpha] = v
        used[v][alpha] = u
    return EdgeColoring(color, ncol)


def matching_avoiding(h: Graph, avoid) -> frozenset[Edge]:
    """Perfect matching of a regular bipartite graph missing every avoided edge.

    Each of the max-degree color classes is a perfect matching and each
    avoided edge blocks exactly one class, so with fewer avoided edges
    than classes a clean class survives.
    """
    if h.bipartition() is None:
        raise NotBipartiteError("input graph is not bipartite")
    if not h.is_regular():
        raise ValueError("input graph is not regular")
    d = h.max_degree()
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    forbidden = {_canon(*e) for e in avoid}
    if not forbidden <= h.edge_set():
        raise ValueError("avoided edges must belong to the graph")
    if len(forbidden) > d - 1:
        raise ValueError(
            f"{len(forbidden)} avoided edges; at most {d - 1} allowed"
        )
    for cls in konig_coloring(h).classes():
        if forbidden.isdisjoint(cls):
            return frozenset(cls)
    raise AssertionError("pigeonhole guarantees an untouched color class")


class CoverComponent(namedtuple("CoverComponent", "kind vertices")):
    """Either a single edge or a cycle given by the visiting order: ``kind``
    is "edge" or "cycle", ``vertices`` a tuple."""

    __slots__ = ()

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[Edge]:
        """The closed walk through ``vertices``; two vertices give one edge."""
        seq = self.vertices
        return frozenset(
            _canon(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
        )


class CycleEdgeCover(namedtuple("CycleEdgeCover", "components")):
    """A tuple of CoverComponents."""

    __slots__ = ()


def cycle_edge_cover_avoiding(h: Graph, e: Edge) -> CycleEdgeCover:
    """Vertex-disjoint cycles and single edges covering V(h) without e.

    The double cover is bipartite and d-regular with d >= 3, so
    ``matching_avoiding`` finds a perfect matching of it missing both
    layer-crossing lifts of e. That matching pairs each vertex a with one
    sigma(a) + v_h, so sigma is a permutation of V(h) whose steps are
    edges of h other than e, and the cover is its cycles: each starts at
    its least vertex, in ascending order, and a 2-cycle is a single edge.
    """
    if not h.is_regular():
        raise ValueError("input graph is not regular")
    d = h.max_degree()
    if d < 3:
        raise ValueError(f"degree must be at least 3, got {d}")
    key = _canon(*e)
    if key not in h.edge_set():
        raise ValueError(f"edge {e} not in the graph")
    v = h.vertex_count
    u1, u2 = key
    chosen = matching_avoiding(double_cover(h), [(u1, u2 + v), (u2, u1 + v)])
    # cover edges are (a, b + v) with a, b < v, already canonical
    sigma = {a: b - v for a, b in chosen}
    components: list[CoverComponent] = []
    seen: set[int] = set()
    for start in range(v):
        if start in seen:
            continue
        seq = [start]
        while (nxt := sigma[seq[-1]]) != start:
            seq.append(nxt)
        seen.update(seq)
        kind = "edge" if len(seq) == 2 else "cycle"
        components.append(CoverComponent(kind, tuple(seq)))
    return CycleEdgeCover(tuple(components))


def _check_cover(components, h: Graph, edges, forbidden: Edge) -> None:
    """Components of known kind and length, each without a repeated vertex,
    pairwise vertex-disjoint, built from edges of h other than forbidden,
    and covering V(h)."""
    key = _canon(*forbidden)
    seen: set[int] = set()
    for comp in components:
        if comp.kind == "edge":
            if len(comp.vertices) != 2:
                raise ValueError(f"edge component with {len(comp.vertices)} vertices")
        elif comp.kind == "cycle":
            if len(comp.vertices) < 3:
                raise ValueError(f"cycle component of length {len(comp.vertices)}")
        else:
            raise ValueError(f"unknown component kind {comp.kind!r}")
        vs = comp.vertex_set()
        if len(vs) != len(comp.vertices):
            raise ValueError("component repeats a vertex")
        if vs & seen:
            raise ValueError("components are not vertex-disjoint")
        seen |= vs
        comp_edges = comp.edge_set()
        for a, b in comp_edges:
            if (a, b) not in edges:
                raise ValueError(f"component edge {(a, b)} not in the graph")
        if key in comp_edges:
            raise ValueError(f"forbidden edge {forbidden} appears in a component")
    if seen != set(range(h.vertex_count)):
        raise ValueError("components do not cover every vertex")


def validate_cycle_edge_cover(
    cover: CycleEdgeCover, h: Graph, forbidden: Edge
) -> None:
    _check_cover(cover.components, h, h.edge_set(), forbidden)


class OrderedCover(namedtuple("OrderedCover", "parts attachments")):
    """Cover relabelled so three anchor vertices land in the first three
    parts (which may coincide); parts beyond the third each attach to the
    union of the earlier ones through a recorded pattern edge, and
    ``attachments`` holds those edges aligned with ``parts[3:]``.
    """

    __slots__ = ()


def _cherry(q, edges: frozenset[Edge]) -> tuple[Edge, int, int, int]:
    """The cherry's first edge, canonical, and its vertices (u1, u2, v):
    u2 is the shared center, u1 and v the far ends of the first and second
    edges. Both cherry edges must lie in ``edges``."""
    (a1, b1), (a2, b2) = q
    first = _canon(a1, b1)
    second = _canon(a2, b2)
    if first not in edges or second not in edges:
        raise ValueError("cherry edges must belong to the graph")
    shared = set(first) & set(second)
    if len(shared) != 1:
        raise ValueError("cherry edges must share exactly one vertex")
    u2 = shared.pop()
    u1 = first[0] if first[1] == u2 else first[1]
    v = second[0] if second[1] == u2 else second[1]
    return first, u1, u2, v


def ordered_cover(h: Graph, q) -> OrderedCover:
    _, u1, u2, v = _cherry(q, h.edge_set())
    if not h.is_connected():
        raise ValueError("input graph is not connected")
    cover = cycle_edge_cover_avoiding(h, (u1, u2)).components
    parts = [next(c for c in cover if a in c.vertices) for a in (u1, u2, v)]
    masks = h.adjacency_masks
    placed = sum(1 << x for comp in set(parts) for x in comp.vertices)
    remaining = [comp for comp in cover if comp not in parts]
    attachments: list[tuple[int, int]] = []
    while remaining:
        # the first remaining part with a vertex next to a placed one
        for comp in remaining:
            x = min((x for x in comp.vertices if masks[x] & placed), default=None)
            if x is not None:
                break
        else:
            raise AssertionError("connected graph must link a remaining part")
        parts.append(comp)
        attachments.append((x, next(bits(masks[x] & placed))))
        placed |= sum(1 << y for y in comp.vertices)
        remaining.remove(comp)
    return OrderedCover(tuple(parts), tuple(attachments))


def validate_ordered_cover(oc: OrderedCover, h: Graph, q) -> None:
    edges = h.edge_set()
    first, u1, u2, v = _cherry(q, edges)
    parts, tail = oc.parts, oc.parts[3:]
    if len(parts) < 3:
        raise ValueError("ordered cover needs at least three labelled parts")
    # the first three parts may coincide; the distinct parts form the cover
    distinct = dict.fromkeys(parts)
    _check_cover(distinct, h, edges, first)
    if len(distinct) != len(set(parts[:3])) + len(tail):
        raise ValueError("later part repeats an earlier part")
    for anchor, comp in zip((u1, u2, v), parts[:3]):
        if anchor not in comp.vertex_set():
            raise ValueError(f"anchor {anchor} missing from its part")
    if len(oc.attachments) != len(tail):
        raise ValueError("one attachment required per part beyond the third")
    earlier = set().union(*(comp.vertices for comp in parts[:3]))
    for comp, (x, y) in zip(tail, oc.attachments):
        if x not in comp.vertices:
            raise ValueError(f"attachment tail {x} not in its part")
        if y not in earlier:
            raise ValueError(f"attachment head {y} not in an earlier part")
        if _canon(x, y) not in edges:
            raise ValueError(f"attachment pair {(x, y)} is not a graph edge")
        earlier.update(comp.vertices)
