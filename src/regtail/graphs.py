"""Graph representation, validation, and generators.

All graphs are simple and undirected, with 0-based dense vertex labels.
Isolated vertices are representable on purpose: edge peeling leaves them
behind, and copy counts never depend on them. A graph stores its adjacency
once, as one int bitmask per vertex; ``bits`` iterates a mask and
``layers`` is the one breadth-first search over masks.

Every graph is checked in ``from_edge_list``, which refuses more than
MAX_VERTICES vertices, a self-loop, an endpoint out of range and masks above
MAX_MASK_BYTES, in that order, before any mask is built. ``parse_edge_list``
checks only the text, and its header cap, with a line number, comes first.
"""

from __future__ import annotations

from math import log
from operator import index


class GraphInputError(ValueError):
    """Raised for malformed construction input (bad endpoint, self-loop)."""


class PatternError(ValueError):
    """Base class for pattern validation failures."""


class PatternNotConnectedError(PatternError):
    pass


class PatternNotRegularError(PatternError):
    pass


class PatternDegreeError(PatternError):
    """Regular but with degree below 2; such patterns are out of scope."""


Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def bits(m: int):
    """The set bits of m, least first."""
    while m:
        b = m & -m
        m ^= b
        yield b.bit_length() - 1


def layers(masks, start: int):
    """The breadth-first layers from the vertex mask ``start`` in the graph
    with adjacency ``masks``: layer d holds the vertices at distance d."""
    seen = frontier = start
    while frontier:
        yield frontier
        reach = 0
        for v in bits(frontier):
            reach |= masks[v]
        frontier = reach & ~seen
        seen |= frontier


def components(masks):
    """Each connected component of the graph with adjacency ``masks``, in
    order of least vertex, as (vertex mask, mask of its odd BFS layers)."""
    left = (1 << len(masks)) - 1
    while left:
        comp = odd = 0
        for d, layer in enumerate(layers(masks, left & -left)):
            comp |= layer
            if d & 1:
                odd |= layer
        left &= ~comp
        yield comp, odd


def low_degree_mask(masks, D: int) -> int:
    """The vertices of degree <= D in the graph with adjacency ``masks``; the
    low side of the paper's degree split."""
    return sum(1 << v for v, m in enumerate(masks) if m.bit_count() <= D)


class _Frozen:
    """Fields set once, in ``__init__``, through the setters of their slots
    (see ``_setters``): assigning or deleting one raises AttributeError.
    ``_fields`` is the constructor order, ``_shown`` what ``repr`` prints."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _setters(cls: type) -> list:
    """The setters of the slots ``cls`` adds; a frozen record's ``__init__``
    calls them, which is faster than ``object.__setattr__``."""
    return [getattr(cls, f).__set__ for f in cls.__slots__]


class Graph(_Frozen):
    """Immutable simple graph.

    ``edges`` is the canonical sorted tuple of (min, max) pairs.
    ``adjacency_masks[v]`` has bit w set iff vw is an edge. It is the only
    adjacency a graph stores; its size follows v's largest neighbour label,
    not v's degree. Equality and hashing read (vertex_count, edges) only, so
    a validated pattern equals, and hashes as, its plain graph.
    """

    __slots__ = _fields = ("vertex_count", "edges", "adjacency_masks")
    _shown = ("vertex_count", "edges")

    def __init__(
        self, vertex_count: int, edges: tuple[Edge, ...], adjacency_masks: tuple[int, ...]
    ) -> None:
        _set_vertex_count(self, vertex_count)
        _set_edges(self, edges)
        _set_adjacency_masks(self, adjacency_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adjacency_masks]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def support(self) -> list[int]:
        """Vertices with at least one incident edge."""
        return [v for v, m in enumerate(self.adjacency_masks) if m]

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def is_connected(self) -> bool:
        full = (1 << self.vertex_count) - 1
        return next(components(self.adjacency_masks), (0, 0))[0] == full

    def connected_components(self) -> list[list[int]]:
        """Vertex lists, each sorted, in order of least vertex."""
        return [list(bits(c)) for c, _ in components(self.adjacency_masks)]

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """A 2-coloring as (side0, side1) vertex lists, or None; the least
        vertex of each component is on side 0."""
        masks = self.adjacency_masks
        odd = 0
        for _, layers in components(masks):
            odd |= layers
        if any(m & (odd if odd >> v & 1 else ~odd) for v, m in enumerate(masks)):
            return None
        return list(bits(((1 << len(masks)) - 1) & ~odd)), list(bits(odd))

    def is_regular(self) -> bool:
        return len(set(self.degrees())) <= 1

    def relabelled_span(self) -> "Graph":
        """Drop isolated vertices and relabel the rest densely from 0; a
        graph without isolated vertices is returned as it is."""
        return self if all(self.adjacency_masks) else span_of_edges(self.edges)


_set_vertex_count, _set_edges, _set_adjacency_masks = _setters(Graph)


# Largest vertex count from_edge_list accepts. Building a graph costs O(n)
# memory before any edge is read, so an untrusted count is capped here rather
# than trusted.
MAX_VERTICES = 100_000

# Largest total mask size from_edge_list accepts, in bytes. A graph stores one
# bitmask per vertex, as wide as its largest neighbour label, so a few edges
# on high labels can cost n^2/8 bytes: a star on the top label at
# MAX_VERTICES needs 1.25 GB. The benchmark's largest host, G(1000, 4995),
# needs about 114 KB and a random host with 20000 vertices and edges about
# 28 MB; 32 MiB admits both and refuses the star from 2700 leaves on.
MAX_MASK_BYTES = 1 << 25


def from_edge_list(n: int, pairs) -> Graph:
    """Build a Graph on n vertices; duplicate pairs collapse, order canonical."""
    if n < 0:
        raise GraphInputError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise GraphInputError(f"vertex count {n} exceeds {MAX_VERTICES}")
    seen: set[Edge] = set()
    for u, v in pairs:
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"endpoint out of range in ({u}, {v})")
        seen.add(_canon(u, v))
    edges = tuple(sorted(seen))
    # over sorted edges, the last label a vertex gets is its widest mask bit
    top: dict[int, int] = {}
    for u, v in edges:
        top[u] = v
        top[v] = u
    mask_bytes = sum(w // 8 + 1 for w in top.values())
    if mask_bytes > MAX_MASK_BYTES:
        raise GraphInputError(
            f"adjacency masks would take {mask_bytes} bytes, above the limit "
            f"of {MAX_MASK_BYTES}"
        )
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, edges, tuple(masks))


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


def span_of_edges(pairs) -> Graph:
    """Graph carrying exactly the collection ``pairs``, densely relabelled."""
    verts = sorted({x for e in pairs for x in e})
    index = {v: i for i, v in enumerate(verts)}
    return from_edge_list(len(verts), [(index[u], index[v]) for u, v in pairs])


class PatternGraph(Graph):
    """A connected regular graph with degree at least 2, used as a count
    pattern; only ``validate_pattern`` builds one."""

    __slots__ = ("delta",)
    _fields = (*Graph._fields, "delta")
    _shown = (*Graph._shown, "delta")

    def __init__(
        self, vertex_count: int, edges: tuple[Edge, ...],
        adjacency_masks: tuple[int, ...], delta: int,
    ) -> None:
        Graph.__init__(self, vertex_count, edges, adjacency_masks)
        _set_delta(self, delta)

    @property
    def v_h(self) -> int:
        return self.vertex_count

    @property
    def e_h(self) -> int:
        return self.edge_count


(_set_delta,) = _setters(PatternGraph)


def validate_pattern(g: Graph) -> PatternGraph:
    """Check connectivity and regularity; reject degree below 2."""
    if g.vertex_count == 0:
        raise PatternNotConnectedError("empty pattern")
    if not g.is_connected():
        raise PatternNotConnectedError("pattern is not connected")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise PatternNotRegularError(f"pattern is not regular: degrees {sorted(degs)}")
    (delta,) = degs
    if delta < 2:
        raise PatternDegreeError(f"pattern degree {delta} < 2")
    # degree sum: e = (delta/2) * v, always integral here
    assert g.edge_count * 2 == delta * g.vertex_count
    return PatternGraph(g.vertex_count, g.edges, g.adjacency_masks, delta)


class SparsityContext(_Frozen):
    """Ambient scale (n, p): an integer n >= 1 and 0 < p < 1."""

    __slots__ = _fields = _shown = ("n", "p")

    def __init__(self, n: int, p: float) -> None:
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {n}") from None
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if not (0.0 < p < 1.0):
            raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
        _set_n(self, n)
        _set_p(self, p)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.p) == (other.n, other.p)

    def __hash__(self) -> int:
        return hash((self.n, self.p))

    @property
    def log_inv_p(self) -> float:
        return log(1.0 / self.p)

    def copies_scale(self, h: PatternGraph) -> float:
        """n^{v} p^{e} for the pattern."""
        return float(self.n) ** h.v_h * self.p ** h.e_h

    def edge_scale(self, h: PatternGraph) -> float:
        """n^2 p^{degree} for the pattern."""
        return float(self.n) ** 2 * self.p ** h.delta

    def density_scale(self, h: PatternGraph) -> float:
        """n p^{degree/2}; its v-th power is the copies scale."""
        return float(self.n) * self.p ** (h.delta / 2.0)


_set_n, _set_p = _setters(SparsityContext)


# ---------------------------------------------------------------------------
# generators


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return from_edge_list(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"sides must be positive, got ({a}, {b})")
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    return from_edge_list(length, [(i, (i + 1) % length) for i in range(length)])


def path(edge_count: int) -> Graph:
    """Path with ``edge_count`` edges on edge_count + 1 vertices."""
    if edge_count < 0:
        raise ValueError("edge_count must be nonnegative")
    return from_edge_list(edge_count + 1, [(i, i + 1) for i in range(edge_count)])


def star(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError("leaves must be positive")
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# edge-list text format: header "n m", then m lines "u v"; '#' starts a comment

def _int_pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise GraphInputError(
            f"line {lineno}: {what} must be two integers, got {line!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphInputError(
            f"line {lineno}: non-integer value in {what} {line!r}"
        ) from None


def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise GraphInputError("empty edge-list input")
    n, m = _int_pair(*rows[0], "header 'n m'")
    if n > MAX_VERTICES:
        raise GraphInputError(
            f"line {rows[0][0]}: header vertex count {n} exceeds {MAX_VERTICES}"
        )
    if len(rows) - 1 != m:
        raise GraphInputError(f"header promises {m} edges, found {len(rows) - 1}")
    pairs = [_int_pair(lineno, line, "edge line") for lineno, line in rows[1:]]
    return from_edge_list(n, pairs)
