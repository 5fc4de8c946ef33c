"""Exact counting kernels.

Every count here is a number of edge-preserving maps of a pattern h into a
host g, and one backtracking search, ``_search``, finds them all. It walks a
connected search order of the pattern; each candidate set is a host-degree
floor mask minus the used vertices, intersected with the host neighborhoods
of the placed pattern neighbors, all on integer bitmasks. It runs in these
modes:

- counting: injective maps, with the last search level counted by popcount
  (``count_labelled``, and ``count_N11`` on two subgraphs of the host);
- visiting: injective maps; ``visit(assign, m)`` gets each placement of all
  pattern vertices but the last (``assign[u]`` is the host image of u) with
  the bitmask m of the last vertex's images, so a visitor tallies a whole
  last level at once (``count_with_edges``, ``copy_edge_lists``);
- pinned: the first search positions have fixed host images. A plan rooted
  at a pattern edge (a, b) starts a, b, so pinning it to a host edge finds
  the copies that map (a, b) onto that edge (``count_through``);
- non-injective: every edge-preserving map, counted (``count_hom``).

A pattern's search plan is built once per root, in a small bounded cache.
Counts are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import perm
from typing import NamedTuple

from .graphs import Edge, Graph, PatternGraph, SparsityContext, bits, low_degree_mask


class IsolatedPatternVertexError(ValueError):
    """Patterns must carry no isolated vertices; callers strip them first."""


@dataclass(frozen=True)
class CountReport:
    """Total labelled-copy count with the count through each host edge."""

    total: int
    per_edge: dict[Edge, int]


class _Compiled(NamedTuple):
    """A pattern's search plan; ``inner``: edges avoiding the last vertex."""

    order: tuple[int, ...]
    backs: tuple[tuple[int, ...], ...]  # pattern neighbours placed earlier
    need: tuple[int, ...]  # pattern degree at each position
    inner: tuple[Edge, ...]


def _plan(h: Graph, root: Edge | None = None) -> _Compiled:
    """Deterministic connected search order and what the kernel needs of it;
    with a pattern edge ``root`` = (a, b), the order starts a, b."""
    hm = h.adjacency_masks
    if 0 in hm:
        raise IsolatedPatternVertexError(f"pattern vertex {hm.index(0)} is isolated")
    comps = sorted(h.connected_components(), key=lambda c: (-len(c), c))
    order: list[int] = []
    # a stable sort puts the root's component first; it starts a, b
    for comp in sorted(comps, key=lambda c: root is None or root[0] not in c):
        start = [max(comp, key=lambda v: (h.degree(v), -v))]
        if root is not None and root[0] in comp:
            start = list(root)
        placed = sum(1 << v for v in start)
        order += start
        # comp is connected, so some unplaced vertex has a placed neighbour
        for _ in range(len(comp) - len(start)):
            best = max(
                (v for v in comp if not placed >> v & 1 and hm[v] & placed),
                key=lambda v: ((hm[v] & placed).bit_count(), h.degree(v), -v),
            )
            order.append(best)
            placed |= 1 << best
    before, backs = 0, []
    for v in order:
        backs.append(tuple(bits(hm[v] & before)))
        before |= 1 << v
    need = tuple(h.degree(u) for u in order)
    inner = tuple(e for e in h.edges if order[-1] not in e) if order else ()
    return _Compiled(tuple(order), tuple(backs), need, inner)


# Dedup, Monte Carlo and peels (2 e(H) rooted plans) reuse a few plans; the
# subset sum makes one per span, so a small bound suffices. Errors stay out.
# A pattern hashes as its plain graph, so both share one plan.
@lru_cache(maxsize=256)
def _compile(h: Graph, root: Edge | None = None) -> _Compiled:
    return _plan(h, root)


def _search(c: _Compiled, gmask, visit=None, injective=True, pin=()) -> int:
    """Count the edge-preserving maps of pattern c into the host with
    adjacency masks ``gmask``, injective by default; ``visit(assign, m)`` is
    called for every nonempty last-level mask m. ``pin`` fixes the host
    images of the first search positions."""
    k = len(c.order)
    if k == 0:
        return 1
    if pin:
        # no floor scan; all-vertex masks (never -1) keep unpinned loops finite
        full = (1 << len(gmask)) - 1
        allowed = [1 << x for x in pin] + [full] * (k - len(pin))
    else:
        # an injective image of a degree-d pattern vertex has host degree
        # >= d; any image of a pattern vertex lies in the host's support
        need = c.need if injective else (1,) * k
        floors = {
            d: sum(1 << v for v, m in enumerate(gmask) if m.bit_count() >= d)
            for d in set(need)
        }
        if injective and k > floors[min(floors)].bit_count():
            return 0
        allowed = [floors[d] for d in need]
    order, backs = c.order, c.backs
    assign = [0] * k
    last = k - 1

    def rec(i: int, used: int) -> int:
        m = allowed[i] & ~used
        for w in backs[i]:
            m &= gmask[assign[w]]
        if i == last:
            if visit is not None and m:
                visit(assign, m)
            return m.bit_count()
        u, cnt = order[i], 0
        while m:
            b = m & -m
            m ^= b
            assign[u] = b.bit_length() - 1
            cnt += rec(i + 1, used | b if injective else 0)
        return cnt

    return rec(0, 0)


def count_labelled(h: Graph, g: Graph) -> int:
    """Number of injective maps V(h) -> V(g) preserving all edges of h."""
    return _search(_compile(h), g.adjacency_masks)


def _tally(c: _Compiled, per):
    """Visitor adding one to ``per`` at every edge image of every copy."""

    def visit(assign: list[int], m: int) -> None:
        hits = m.bit_count()
        for u, v in c.inner:
            a, b = assign[u], assign[v]
            per[(a, b) if a < b else (b, a)] += hits
        images = [assign[u] for u in c.backs[-1]]
        for x in bits(m):
            for a in images:
                per[(a, x) if a < x else (x, a)] += 1

    return visit


def count_with_edges(h: Graph, g: Graph) -> CountReport:
    """Total count plus, for every host edge, the count of copies through it.

    All per-edge counters are filled in one pass, a last level at a time.
    """
    c = _compile(h)
    per: dict[Edge, int] = {e: 0 for e in g.edges}
    return CountReport(_search(c, g.adjacency_masks, _tally(c, per)), per)


def count_through(h: Graph, gmask, e: Edge) -> Counter:
    """Per-edge counts of the copies through host edge e, in the host with
    adjacency masks ``gmask``; edges in no such copy are absent.

    A copy through e maps exactly one pattern edge onto e, in one
    orientation, so one search per rooted pattern edge finds it once.
    """
    per: Counter = Counter()
    for a, b in h.edges:
        for root in ((a, b), (b, a)):
            c = _compile(h, root)
            _search(c, gmask, _tally(c, per), pin=e)
    return per


def copy_edge_lists(h: Graph, g: Graph) -> list[tuple[Edge, ...]]:
    """Edge sets of every labelled copy; ``ratefn._edge_orbits`` reads the
    automorphisms of a pattern from its copies in itself.

    Each copy lists the images of the pattern edges in the pattern's edge
    order.
    """
    c = _compile(h)
    edges = h.edges
    out: list[tuple[Edge, ...]] = []

    def visit(assign: list[int], m: int) -> None:
        last = c.order[-1]
        for x in bits(m):
            assign[last] = x
            images = []
            for u, v in edges:
                a, b = assign[u], assign[v]
                images.append((a, b) if a < b else (b, a))
            out.append(tuple(images))

    _search(c, g.adjacency_masks, visit)
    return out


def count_hom(h: Graph, g: Graph) -> int:
    """Count all edge-preserving maps, injective or not.

    Isolated pattern vertices map anywhere. For even cycles this equals the
    trace of the matching adjacency power, which the test suite cross-checks.
    """
    isolated = h.adjacency_masks.count(0)
    core = _search(_compile(h.relabelled_span()), g.adjacency_masks, injective=False)
    return core * g.vertex_count ** isolated


def count_N11(h: Graph, g: Graph, D: int) -> tuple[int, int, int]:
    """Copy counts split by usage of edges whose endpoints both have degree <= D.

    Returns (copies using at least one such edge, copies using only such
    edges, their difference).
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    # a copy uses only low-low edges iff it lies in the low-low subgraph, and
    # no low-low edge iff it lies in the host minus the low-low edges
    c, gmask = _compile(h), g.adjacency_masks
    low = low_degree_mask(gmask, D)
    low_low = [m & low if low >> v & 1 else 0 for v, m in enumerate(gmask)]
    n11 = _search(c, gmask) - _search(c, [m ^ ll for m, ll in zip(gmask, low_low)])
    tilde = _search(c, low_low)
    return n11, tilde, n11 - tilde


def count_paths_signed(
    g: Graph, s, v1: int, v2: int, D: int
) -> int:
    """Simple paths from v1 to v2 whose i-th edge class matches s.

    Bit 0 marks an edge with both endpoints of degree <= D, bit 1 any other
    edge. Path length equals len(s); vertices are pairwise distinct.
    """
    sig = tuple(int(b) for b in s)
    if len(sig) < 1 or any(b not in (0, 1) for b in sig):
        raise ValueError(f"signature must be a nonempty 0/1 sequence, got {s!r}")
    for v in (v1, v2):
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    if v1 == v2:
        return 0
    gmask, last = g.adjacency_masks, len(sig) - 1
    low = low_degree_mask(gmask, D)

    def rec(u: int, i: int, used: int) -> int:
        # the next vertex w: edge uw is class 0 iff u and w are both low
        m = gmask[u]
        if low >> u & 1:
            m &= ~low if sig[i] else low
        elif not sig[i]:
            return 0
        if i == last:
            return m >> v2 & 1
        return sum(rec(w, i + 1, used | 1 << w) for w in bits(m & ~used))

    # v2 counts as used until the last step
    return rec(v1, 0, 1 << v1 | 1 << v2)


def expected_count(h: PatternGraph, ctx: SparsityContext) -> float:
    """Falling-factorial expectation of the copy count under edge density p."""
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")
    return perm(ctx.n, h.v_h) * ctx.p ** h.e_h
