"""Exact counting kernels.

Every count here is a number of edge-preserving maps of a pattern h into a
host g, and one backtracking search, ``_search``, finds them all. It walks a
connected search order of the pattern; each candidate set is a host-degree
floor mask minus the used vertices, intersected with the host neighborhoods
of the placed pattern neighbors, all on integer bitmasks. It runs in three
modes:

- counting: injective maps, with the last search level counted by popcount
  (``count_labelled``);
- visiting: injective maps, each handed to a visitor as the list of host
  images indexed by pattern vertex (``count_with_edges``,
  ``copy_edge_lists``, ``count_N11``);
- non-injective: every edge-preserving map, counted (``count_hom``).

Counts are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .graphs import Edge, Graph, PatternGraph, SparsityContext, as_graph


class IsolatedPatternVertexError(ValueError):
    """Patterns must carry no isolated vertices; callers strip them first."""


@dataclass(frozen=True)
class CountReport:
    """Total labelled-copy count, optionally with per-edge counts."""

    total: int
    per_edge: dict[Edge, int] | None = None


def _require_no_isolated(h: Graph) -> None:
    for v in range(h.vertex_count):
        if not h.adjacency[v]:
            raise IsolatedPatternVertexError(f"pattern vertex {v} is isolated")


def _plan(h: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """Deterministic connected search order plus, for each position, the
    pattern neighbors placed before it."""
    comps = sorted(h.connected_components(), key=lambda c: (-len(c), c))
    order: list[int] = []
    placed: set[int] = set()
    for comp in comps:
        start = max(comp, key=lambda v: (h.degree(v), -v))
        order.append(start)
        placed.add(start)
        while True:
            best_key, best = None, None
            for v in comp:
                if v in placed:
                    continue
                back = sum(1 for w in h.adjacency[v] if w in placed)
                if back == 0:
                    continue
                key = (back, h.degree(v), -v)
                if best_key is None or key > best_key:
                    best_key, best = key, v
            if best is None:
                break
            order.append(best)
            placed.add(best)
    pos = {v: i for i, v in enumerate(order)}
    backs = [
        tuple(sorted(w for w in h.adjacency[v] if pos[w] < i))
        for i, v in enumerate(order)
    ]
    return order, backs


def _search(
    h: Graph | PatternGraph, g: Graph, visit=None, injective: bool = True
) -> int:
    """Count the edge-preserving maps V(h) -> V(g), injective by default.

    With ``visit``, calls ``visit(assign)`` once per map, where ``assign[u]``
    is the host image of pattern vertex u; without it, the last search level
    is counted by popcount. The pattern must have no isolated vertex.
    """
    h = as_graph(h)
    _require_no_isolated(h)
    k = h.vertex_count
    if k == 0:
        if visit is not None:
            visit([])
        return 1
    # an injective image of a degree-d pattern vertex has host degree >= d;
    # any image of a pattern vertex lies in the host's support
    need = [h.degree(u) if injective else 1 for u in range(k)]
    floors = {
        d: sum(1 << v for v, nbrs in enumerate(g.adjacency) if len(nbrs) >= d)
        for d in set(need)
    }
    if injective and k > floors[min(floors)].bit_count():
        return 0
    order, backs = _plan(h)
    allowed = [floors[need[u]] for u in order]
    gmask = g.adjacency_masks
    assign = [0] * k
    stop = k - 1 if visit is None else k

    def rec(i: int, used: int) -> int:
        if i == k:
            visit(assign)
            return 1
        m = allowed[i] & ~used
        for w in backs[i]:
            m &= gmask[assign[w]]
        if i == stop:
            return m.bit_count()
        u, cnt = order[i], 0
        while m:
            b = m & -m
            m ^= b
            assign[u] = b.bit_length() - 1
            cnt += rec(i + 1, used | b if injective else 0)
        return cnt

    return rec(0, 0)


def count_labelled(h: Graph | PatternGraph, g: Graph) -> int:
    """Number of injective maps V(h) -> V(g) preserving all edges of h."""
    return _search(h, g)


def count_with_edges(h: Graph | PatternGraph, g: Graph) -> CountReport:
    """Total count plus, for every host edge, the count of copies through it.

    All per-edge counters are filled in a single enumeration pass.
    """
    edges = as_graph(h).edges
    per: dict[Edge, int] = {e: 0 for e in g.edges}

    def visit(assign: list[int]) -> None:
        for u, v in edges:
            a, b = assign[u], assign[v]
            per[(a, b) if a < b else (b, a)] += 1

    return CountReport(total=_search(h, g, visit), per_edge=per)


def copy_edge_lists(
    h: Graph | PatternGraph, g: Graph, max_copies: int | None = None
) -> list[tuple[Edge, ...]]:
    """Edge sets of every labelled copy, for incremental peeling bookkeeping.

    Each copy lists the images of the pattern edges in the pattern's edge
    order.
    """
    edges = as_graph(h).edges
    out: list[tuple[Edge, ...]] = []

    def visit(assign: list[int]) -> None:
        if max_copies is not None and len(out) >= max_copies:
            raise CopyBudgetExceededError(
                f"copy enumeration exceeded budget {max_copies}"
            )
        images = []
        for u, v in edges:
            a, b = assign[u], assign[v]
            images.append((a, b) if a < b else (b, a))
        out.append(tuple(images))

    _search(h, g, visit)
    return out


class CopyBudgetExceededError(RuntimeError):
    pass


def count_hom(h: Graph | PatternGraph, g: Graph) -> int:
    """Count all edge-preserving maps, injective or not.

    Isolated pattern vertices map anywhere. For even cycles this equals the
    trace of the matching adjacency power, which the test suite cross-checks.
    """
    h = as_graph(h)
    isolated = sum(1 for v in range(h.vertex_count) if not h.adjacency[v])
    core = _search(h.relabelled_span(), g, injective=False)
    return core * g.vertex_count ** isolated


def count_N11(
    h: Graph | PatternGraph, g: Graph, D: int
) -> tuple[int, int, int]:
    """Copy counts split by usage of edges whose endpoints both have degree <= D.

    Returns (copies using at least one such edge, copies using only such
    edges, their difference).
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    edges = as_graph(h).edges
    low = frozenset(v for v in range(g.vertex_count) if g.degree(v) <= D)
    tally = [0, 0]  # [with at least one low-low edge, with only low-low edges]

    def visit(assign: list[int]) -> None:
        lows = 0
        for u, v in edges:
            if assign[u] in low and assign[v] in low:
                lows += 1
        if lows:
            tally[0] += 1
            tally[1] += lows == len(edges)

    _search(h, g, visit)
    n11, tilde = tally
    return n11, tilde, n11 - tilde


def count_paths_signed(
    g: Graph, s, v1: int, v2: int, D: int
) -> int:
    """Simple paths from v1 to v2 whose i-th edge class matches s.

    Bit 0 marks an edge with both endpoints of degree <= D, bit 1 any other
    edge. Path length equals len(s); vertices are pairwise distinct.
    """
    bits = tuple(int(b) for b in s)
    if len(bits) < 1 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"signature must be a nonempty 0/1 sequence, got {s!r}")
    for v in (v1, v2):
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    if v1 == v2:
        return 0
    ell = len(bits)
    low = [g.degree(v) <= D for v in range(g.vertex_count)]

    def rec(u: int, i: int, used: int) -> int:
        if i == ell:
            return 1 if u == v2 else 0
        want = bits[i]
        cnt = 0
        for w in g.adjacency[u]:
            if used >> w & 1:
                continue
            if w == v2 and i + 1 < ell:
                continue
            cls = 0 if (low[u] and low[w]) else 1
            if cls != want:
                continue
            cnt += rec(w, i + 1, used | 1 << w)
        return cnt

    return rec(v1, 0, 1 << v1)


def expected_count(h: PatternGraph, ctx: SparsityContext) -> float:
    """Falling-factorial expectation of the copy count under edge density p."""
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")
    return perm(ctx.n, h.v_h) * ctx.p ** h.e_h
