"""Constructive decompositions of patterns.

Bipartite double covers, edge colorings with max-degree many colors via
alternating-path recoloring, perfect matchings dodging a small forbidden
set, vertex-disjoint cycle/edge covers excluding one edge, and an ordered
cover anchored at a prescribed cherry. The cycle/edge cover is the cycle
decomposition of the permutation sigma that a perfect matching of the
double cover, pairing each a with sigma(a) + v_h, induces on V(h).
Existence arguments are turned into deterministic constructions;
validators re-check every claimed invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, _canon, bits, from_edge_list


class NotBipartiteError(ValueError):
    pass


def double_cover(h: Graph) -> Graph:
    """Graph on two layers of V(h), edges crossing layers iff adjacent in h.

    Vertex v's copies are v (layer one) and v + v_h (layer two), so vertex
    w of the cover projects to w % v_h.
    """
    v = h.vertex_count
    edges = []
    for a, b in h.edges:
        edges.append((a, b + v))
        edges.append((b, a + v))
    return from_edge_list(2 * v, edges)


@dataclass(frozen=True)
class EdgeColoring:
    color: dict[Edge, int]
    num_colors: int

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


@dataclass(frozen=True)
class CoverComponent:
    """Either a single edge or a cycle given by the visiting order."""

    kind: str  # "edge" or "cycle"
    vertices: tuple[int, ...]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[Edge]:
        if self.kind == "edge":
            return frozenset({_canon(self.vertices[0], self.vertices[1])})
        seq = self.vertices
        return frozenset(
            _canon(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
        )


@dataclass(frozen=True)
class CycleEdgeCover:
    components: tuple[CoverComponent, ...]


def cycle_edge_cover_avoiding(h: Graph, e: Edge) -> CycleEdgeCover:
    """Vertex-disjoint cycles and single edges covering V(h) without e.

    Color the bipartite double cover with the full degree count; both
    layer-crossing lifts of e occupy at most two classes, so some class
    avoids both. That perfect matching pairs each vertex a with one
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
    lifts = {(u1, u2 + v), (u2, u1 + v)}
    classes = konig_coloring(double_cover(h)).classes()
    chosen = next(cls for cls in classes if lifts.isdisjoint(cls))
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


def validate_cycle_edge_cover(
    cover: CycleEdgeCover, h: Graph, forbidden: Edge
) -> None:
    key = _canon(*forbidden)
    edges = h.edge_set()
    seen: set[int] = set()
    for comp in cover.components:
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


@dataclass(frozen=True)
class OrderedCover:
    """Cover relabelled so three anchor vertices land in the first three
    parts (which may coincide); parts beyond the third each attach to the
    union of the earlier ones through a recorded pattern edge.
    """

    parts: tuple[CoverComponent, ...]
    attachments: tuple[tuple[int, int], ...]  # aligned with parts[3:]


def _cherry(
    q, edges: frozenset[Edge] | None = None
) -> tuple[Edge, int, int, int]:
    """The cherry's first edge, canonical, and its vertices (u1, u2, v):
    u2 is the shared center, u1 and v the far ends of the first and second
    edges. With ``edges``, both cherry edges must lie in it."""
    (a1, b1), (a2, b2) = q
    first = _canon(a1, b1)
    second = _canon(a2, b2)
    if edges is not None and (first not in edges or second not in edges):
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
    first, u1, u2, v = _cherry(q)
    parts = oc.parts
    if len(parts) < 3:
        raise ValueError("ordered cover needs at least three labelled parts")
    edges = h.edge_set()
    covered: set[int] = set()
    for comp in parts:
        covered.update(comp.vertices)
        comp_edges = comp.edge_set()
        for edge in comp_edges:
            if edge not in edges:
                raise ValueError(f"part edge {edge} not in the graph")
        if first in comp_edges:
            raise ValueError("forbidden edge appears in a part")
    if covered != set(range(h.vertex_count)):
        raise ValueError("parts do not cover every vertex")
    for anchor, comp in zip((u1, u2, v), parts[:3]):
        if anchor not in comp.vertex_set():
            raise ValueError(f"anchor {anchor} missing from its part")
    for i in range(3):
        for j in range(i + 1, 3):
            pi, pj = parts[i], parts[j]
            if pi != pj and pi.vertex_set() & pj.vertex_set():
                raise ValueError("first three parts overlap without coinciding")
    tail = parts[3:]
    earlier = set().union(*(comp.vertices for comp in parts[:3]))
    # the last later part holding each vertex: a part meets a later one
    # iff one of its vertices lies in a later part
    last = {x: i for i, comp in enumerate(tail) for x in comp.vertices}
    for i, comp in enumerate(tail):
        if any(last[x] > i for x in comp.vertices):
            raise ValueError("later parts are not vertex-disjoint")
        if not earlier.isdisjoint(comp.vertices):
            raise ValueError("later part overlaps an anchor part")
    if len(oc.attachments) != len(tail):
        raise ValueError("one attachment required per part beyond the third")
    for comp, (x, y) in zip(tail, oc.attachments):
        if x not in comp.vertices:
            raise ValueError(f"attachment tail {x} not in its part")
        if y not in earlier:
            raise ValueError(f"attachment head {y} not in an earlier part")
        if _canon(x, y) not in edges:
            raise ValueError(f"attachment pair {(x, y)} is not a graph edge")
        earlier.update(comp.vertices)
