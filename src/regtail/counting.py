"""Exact counting kernels.

Labelled copies are injective vertex maps preserving every pattern edge.
The kernel backtracks over a connected search order of the pattern, so each
candidate set is an intersection of host neighborhoods, computed on integer
bitmasks. Counts are arbitrary-precision integers throughout.
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
    """Deterministic connected search order plus backward-neighbor positions."""
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
        tuple(sorted(pos[w] for w in h.adjacency[v] if pos[w] < i))
        for i, v in enumerate(order)
    ]
    return order, backs


def count_labelled(h: Graph | PatternGraph, g: Graph) -> int:
    """Number of injective maps V(h) -> V(g) preserving all edges of h."""
    h = as_graph(h)
    _require_no_isolated(h)
    k = h.vertex_count
    if k == 0:
        return 1
    gdeg = [len(a) for a in g.adjacency]
    starts = [v for v in range(g.vertex_count) if gdeg[v] >= 1]
    # every pattern vertex has degree >= 1, so its image lies in the support
    if k > len(starts):
        return 0
    order, backs = _plan(h)
    gmask = g.adjacency_masks
    need = [h.degree(v) for v in order]
    assign = [0] * k
    last = k - 1

    def rec(i: int, used: int) -> int:
        bs = backs[i]
        if bs:
            m = gmask[assign[bs[0]]]
            for j in bs[1:]:
                m &= gmask[assign[j]]
            m &= ~used
            if i == last:
                return m.bit_count()
            nd = need[i]
            cnt = 0
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if gdeg[v] >= nd:
                    assign[i] = v
                    cnt += rec(i + 1, used | b)
            return cnt
        nd = need[i]
        cnt = 0
        for v in starts:
            b = 1 << v
            if used & b or gdeg[v] < nd:
                continue
            assign[i] = v
            cnt += rec(i + 1, used | b)
        return cnt

    return rec(0, 0)


def _enumerate(h: Graph, g: Graph, visit) -> int:
    """Run the backtracking search calling ``visit(assign)`` per found copy.

    ``assign`` is the list of host vertices indexed by search position.
    Returns the copy count.
    """
    k = h.vertex_count
    if k == 0:
        visit([])
        return 1
    if k > g.vertex_count:
        return 0
    order, backs = _plan(h)
    gmask = g.adjacency_masks
    gdeg = [len(a) for a in g.adjacency]
    need = [h.degree(v) for v in order]
    starts = [v for v in range(g.vertex_count) if gdeg[v] >= 1]
    assign = [0] * k

    def rec(i: int, used: int) -> int:
        if i == k:
            visit(assign)
            return 1
        bs = backs[i]
        nd = need[i]
        cnt = 0
        if bs:
            m = gmask[assign[bs[0]]]
            for j in bs[1:]:
                m &= gmask[assign[j]]
            m &= ~used
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if gdeg[v] >= nd:
                    assign[i] = v
                    cnt += rec(i + 1, used | b)
            return cnt
        for v in starts:
            b = 1 << v
            if used & b or gdeg[v] < nd:
                continue
            assign[i] = v
            cnt += rec(i + 1, used | b)
        return cnt

    return rec(0, 0)


def _edge_positions(h: Graph) -> list[tuple[int, int]]:
    order, _ = _plan(h)
    pos = {v: i for i, v in enumerate(order)}
    return [(pos[u], pos[v]) for u, v in h.edges]


def count_with_edges(h: Graph | PatternGraph, g: Graph) -> CountReport:
    """Total count plus, for every host edge, the count of copies through it.

    All per-edge counters are filled in a single enumeration pass.
    """
    h = as_graph(h)
    _require_no_isolated(h)
    epos = _edge_positions(h)
    per: dict[Edge, int] = {e: 0 for e in g.edges}

    def visit(assign: list[int]) -> None:
        for i, j in epos:
            a, b = assign[i], assign[j]
            key = (a, b) if a < b else (b, a)
            per[key] += 1

    total = _enumerate(h, g, visit)
    return CountReport(total=total, per_edge=per)


def count_through_edge(h: Graph | PatternGraph, g: Graph, e: Edge) -> int:
    u, v = e
    key = (u, v) if u < v else (v, u)
    if key not in g.edge_set():
        raise ValueError(f"edge {e} not in host graph")
    report = count_with_edges(h, g)
    assert report.per_edge is not None
    return report.per_edge[key]


def copy_edge_lists(
    h: Graph | PatternGraph, g: Graph, max_copies: int | None = None
) -> list[tuple[Edge, ...]]:
    """Edge sets of every labelled copy, for incremental peeling bookkeeping."""
    h = as_graph(h)
    _require_no_isolated(h)
    epos = _edge_positions(h)
    out: list[tuple[Edge, ...]] = []

    def visit(assign: list[int]) -> None:
        if max_copies is not None and len(out) >= max_copies:
            raise CopyBudgetExceededError(
                f"copy enumeration exceeded budget {max_copies}"
            )
        edges = []
        for i, j in epos:
            a, b = assign[i], assign[j]
            edges.append((a, b) if a < b else (b, a))
        out.append(tuple(edges))

    _enumerate(h, g, visit)
    return out


class CopyBudgetExceededError(RuntimeError):
    pass


def count_hom(h: Graph | PatternGraph, g: Graph) -> int:
    """Count all edge-preserving maps, injective or not.

    For even cycles this equals the trace of the matching adjacency power,
    which the test suite cross-checks.
    """
    h = as_graph(h)
    n = g.vertex_count
    isolated = sum(1 for v in range(h.vertex_count) if not h.adjacency[v])
    core = h.relabelled_span()
    k = core.vertex_count
    if k == 0:
        return n ** isolated
    order, backs = _plan(core)
    gmask = g.adjacency_masks
    starts = [v for v in range(n) if g.adjacency[v]]
    assign = [0] * k
    last = k - 1

    def rec(i: int) -> int:
        bs = backs[i]
        if bs:
            m = gmask[assign[bs[0]]]
            for j in bs[1:]:
                m &= gmask[assign[j]]
            if i == last:
                return m.bit_count()
            cnt = 0
            while m:
                b = m & -m
                m ^= b
                assign[i] = b.bit_length() - 1
                cnt += rec(i + 1)
            return cnt
        cnt = 0
        for v in starts:
            assign[i] = v
            cnt += rec(i + 1) if i != last else 1
        return cnt

    return rec(0) * n ** isolated


def low_degree_vertices(g: Graph, D: int) -> frozenset[int]:
    return frozenset(v for v in range(g.vertex_count) if g.degree(v) <= D)


def count_N11(
    h: Graph | PatternGraph, g: Graph, D: int
) -> tuple[int, int, int]:
    """Copy counts split by usage of edges whose endpoints both have degree <= D.

    Returns (copies using at least one such edge, copies using only such
    edges, their difference).
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    h = as_graph(h)
    _require_no_isolated(h)
    low = low_degree_vertices(g, D)
    epos = _edge_positions(h)
    tally = [0, 0]  # [with at least one low-low edge, with only low-low edges]

    def visit(assign: list[int]) -> None:
        any_low = False
        all_low = True
        for i, j in epos:
            if assign[i] in low and assign[j] in low:
                any_low = True
            else:
                all_low = False
        if any_low:
            tally[0] += 1
            if all_low:
                tally[1] += 1

    _enumerate(h, g, visit)
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


def count_K12_centered(g: Graph, U) -> int:
    """Ordered cherries with the center inside U and both leaves outside."""
    inside = set(U)
    for v in inside:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    total = 0
    for c in inside:
        d_out = sum(1 for w in g.adjacency[c] if w not in inside)
        total += d_out * (d_out - 1)
    return total


def expected_count(h: PatternGraph, ctx: SparsityContext) -> float:
    """Falling-factorial expectation of the copy count under edge density p."""
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")
    return perm(ctx.n, h.v_h) * ctx.p ** h.e_h
