"""Exact counting kernels.

Every pattern count here is a number of edge-preserving maps of a pattern h
into a host g, and one backtracking search, ``_search``, finds them all,
with these exceptions. ``signed_path_counts`` tallies every signed host
path of one start vertex in a single walk, and ``count_paths_signed`` reads
one signature and endpoint off that walk pruned to the signature.
``expected_count`` is a closed form. A short cycle C_k, 3 <= k <= 5, is
counted from closed walks by ``_cycle_walks``: the labelled count is
tr A^k less the closed walks that revisit a vertex (Harary & Manvel, *On
the number of cycles in a graph*, 1971; Alon, Yuster & Zwick, *Finding and
counting given length cycles*, 1997). With d_v the degree of v and
c(u, w) = |N(u) & N(w)| = (A^2)_uw for u != w:

- C3: labelled = hom = tr A^3 = 2 sum_{uw in E} c(u, w); through an edge
  uw, 6 c(u, w), and each common neighbour x adds 6 to ux and wx;
- C4: hom = tr A^4 = sum_{u, w} (A^2)_uw^2; labelled = tr A^4 -
  2 sum d_v^2 + sum d_v; through an edge uw, 8 ((A^3)_uw - d_u - d_w + 1);
- C5: hom = tr A^5 = 2 sum_{uw in E} sum_v (A^2)_uv (A^2)_wv; labelled =
  tr A^5 - 5 sum_v (d_v - 1) (A^3)_vv.

An injective total on adjacency masks picks its route in one place,
``_injective``: ``count_labelled``, ``count_N11``'s count on the low-low
subgraph and the Monte Carlo trials outside the homomorphism basis all
call it, and it takes the walks for C3 to C5. ``count_hom`` takes them for
C3 to C5 too, ``count_with_edges`` for C3 and C4 and ``count_through``
for C3; the route reads only the pattern's order and degrees. The rows of
A^2 are kept as bit planes, so each sum over v is a few popcounts. Every
other count runs the kernel, which stays the independent oracle for these
identities in the tests.

The search walks a connected search order of the pattern; each
candidate set is a host-degree floor mask minus the used vertices,
intersected with the host neighborhoods of the placed pattern neighbors,
all on integer bitmasks. The last search level is read inside the
penultimate one: each penultimate node bounds the last vertex's images once
by everything but the penultimate vertex x, and each image of x then
narrows that mask to a leaf, by x's host neighbourhood, by the bits above
x's image or by that image's own bit, so the last level enters no frame of
its own.

Injective searches break the pattern's symmetry (Grochow & Kellis, RECOMB
2007). The copies of h with one image edge set are the |Aut(h)| maps
phi o sigma, sigma in Aut(h). Along the search order, position i gets the
orbit of its vertex under the automorphisms that fix the earlier vertices,
and the search keeps only maps sending that vertex below every other
vertex of the orbit. Exactly one map of each image set survives, and it
stands for ``weight`` = |Aut(h)| maps, the product of the orbit sizes.
The orbits are decided by pinned searches of h in itself, each stopping at
an automorphism that the plan keeps in ``gens``. These generate Aut(h) (a
strong generating set, Sims 1970), and the orbits of oriented pattern edges
are closed under them, so neither the planner nor the peel lists Aut(h)
(``ratefn._orbit_table`` does, once per call, through
``copy_edge_lists(h, h)``). The search runs in these modes:

- counting: injective maps, with each leaf mask of the last search level
  counted by popcount (``_injective`` for every pattern but C3 to C5);
- visiting: injective maps; ``visit(assign, m)`` gets each placement of all
  pattern vertices but the last (``assign[u]`` is the host image of u) with
  the bitmask m of the last vertex's images, so a visitor tallies a whole
  last level at once. Each visited map stands for the plan's ``weight``
  maps with the same image edges (``count_with_edges``), unless the plan is
  unbroken (``copy_edge_lists`` lists every map);
- pinned: the first search positions have fixed host images. A plan rooted
  at a pattern edge (a, b) starts a, b and breaks only the symmetry that
  fixes a and b, so pinning it to a host edge finds the copies that map
  (a, b) onto that edge (``count_through`` and ``count_N11``, once per
  Aut(h)-orbit of oriented pattern edges); stopped at its first leaf, it
  returns the map found there, or None if there is none (the automorphisms
  above);
- non-injective: every edge-preserving map, counted without symmetry
  breaking (``count_hom``).

A pattern's search plan is built once per root, in a small bounded cache.
Counts are arbitrary-precision integers throughout.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict, namedtuple
from functools import cache, lru_cache
from itertools import islice
from math import perm

from .graphs import (
    Edge, Graph, PatternError, PatternGraph, SparsityContext, bits, layers,
    low_degree_mask,
)


class IsolatedPatternVertexError(ValueError):
    """Patterns must carry no isolated vertices; callers strip them first."""


class CountReport(namedtuple("CountReport", "total per_edge")):
    """Total labelled-copy count with the count through each host edge."""

    __slots__ = ()


class _Compiled(namedtuple("_Compiled", (
    "order",
    "backs",  # pattern neighbours placed earlier
    "need",  # pattern degree at each position
    "inner",  # edges avoiding the last vertex
    "lows",  # vertices whose image is below this one's
    "weight",  # maps each leaf stands for: the product of the orbit sizes
    "gens",  # automorphisms found, generating Aut(h)
), defaults=((),))):
    """A pattern's search plan."""

    __slots__ = ()


def _unbroken(c: _Compiled) -> _Compiled:
    """The plan without symmetry breaking: every map is a leaf."""
    return c._replace(lows=((),) * len(c.order), weight=1)


# The search recurses once per pattern vertex but the last, and Python's
# default stack holds about 1000 frames, less those of its caller (a CLI
# verb, a test runner), so a larger pattern is refused before any search.
MAX_PATTERN_VERTICES = 800


def _plan(h: Graph, root: Edge | None = None) -> _Compiled:
    """Deterministic connected search order and what the kernel needs of it;
    with a pattern edge ``root`` = (a, b), the order starts a, b."""
    if h.vertex_count > MAX_PATTERN_VERTICES:
        raise PatternError(
            f"pattern has {h.vertex_count} vertices, above the limit of "
            f"{MAX_PATTERN_VERTICES}"
        )
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
    base = _Compiled(tuple(order), tuple(backs), need, inner, ((),) * len(order), 1)
    return _break_symmetry(base, hm, 0 if root is None else 2)


def _orbit(x: tuple[int, ...], gens) -> set[tuple[int, ...]]:
    """The orbit of the vertex tuple x under the group the automorphisms
    ``gens`` generate (``g[v]`` is the image of v), acting entrywise."""
    seen, todo = {x}, [x]
    for y in todo:
        new = {tuple(g[v] for v in y) for g in gens} - seen
        seen |= new
        todo += new
    return seen


def _break_symmetry(c: _Compiled, hm, start: int) -> _Compiled:
    """Add the stabilizer chain of the pattern with masks ``hm`` along c's
    order, from position ``start`` (the first positions stay pinned).

    The orbit of u = ``order[i]`` under the automorphisms fixing
    ``order[:i]`` holds the later vertices w with such an automorphism
    sending u to w: a pinned search of the pattern in itself, which stops
    at one. A later w is searched only if it passes three tests, in order:
    the automorphisms found at position i do not reach it yet (if they do,
    they compose to one sending u to w; McKay & Piperno, *Practical graph
    isomorphism, II*, 2014); it has u's neighbours among ``order[:i]``,
    which such an automorphism fixes; and it has u's breadth-first layer
    sizes, which any automorphism keeps. So every orbit member is found,
    and layer sizes are computed only for candidates that get that far.
    """
    order, k = c.order, len(c.order)

    @cache
    def shells(v: int) -> tuple[int, ...]:
        return tuple(layer.bit_count() for layer in layers(hm, 1 << v))

    below: list[set[int]] = [set() for _ in range(k)]
    weight, gens, fixed = 1, [], 0
    for i, u in enumerate(order):
        if i >= start:
            found, orbit, nbrs = [], {(u,)}, hm[u] & fixed
            for w in order[i + 1:]:
                if (
                    (w,) not in orbit
                    and hm[w] & fixed == nbrs
                    and shells(w) == shells(u)
                ):
                    g = _exists(c, hm, order[:i] + (w,))
                    if g is not None:
                        found.append(g)
                        orbit = _orbit((u,), found)
            weight *= len(orbit)
            for (w,) in orbit - {(u,)}:
                below[w].add(u)
            gens += found
        fixed |= 1 << u
    under: list[set[int]] = [set() for _ in range(k)]
    lows = []
    for w in order:
        implied = set().union(*(under[u] for u in below[w]))
        lows.append(tuple(sorted(below[w] - implied)))
        under[w] = implied | below[w]
    return c._replace(lows=tuple(lows), weight=weight, gens=tuple(gens))


# Dedup, Monte Carlo and peels (one rooted plan per orbit of oriented pattern
# edges) reuse a few plans; the subset sum makes one per span it counts with
# the kernel, and none for a planted clique or hub, whose counts are closed
# forms, so a small bound suffices. Errors stay out. A pattern hashes as its
# plain graph, so both share one plan.
@lru_cache(maxsize=256)
def _compile(h: Graph, root: Edge | None = None) -> _Compiled:
    return _plan(h, root)


def _search(c: _Compiled, gmask, visit=None, injective=True, pin=()) -> int:
    """Count the edge-preserving maps of pattern c into the host with
    adjacency masks ``gmask``, injective by default; ``visit(assign, m)`` is
    called for every nonempty leaf mask m of the last vertex's images,
    whose maps stand for ``c.weight`` maps each. ``pin`` fixes the host
    images of the first search positions.

    The recursion enters one frame per node of positions 0 .. k-2; a
    penultimate frame forms the leaf masks of its candidates itself."""
    k = len(c.order)
    if k == 0:
        return 1
    if not injective:
        # Aut(h) acts freely on injective maps only
        c = _unbroken(c)
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
    order, backs, lows = c.order, c.backs, c.lows
    assign = [0] * k
    # no pattern vertex is isolated, so k >= 2. Position pen places x, which
    # bounds the last vertex's images when near (a pattern neighbour) or low
    # (its image below); yb and yl are the last vertex's other backs and lows
    pen = k - 2
    x = order[pen]
    near, low = x in backs[-1], x in lows[-1]
    yb = [w for w in backs[-1] if w != x]
    yl = [w for w in lows[-1] if w != x]

    def rec(i: int, used: int) -> int:
        m = allowed[i] & ~used
        for w in backs[i]:
            m &= gmask[assign[w]]
        for w in lows[i]:
            m &= -(2 << assign[w])
        u, cnt = order[i], 0
        if i < pen:
            while m:
                b = m & -m
                m ^= b
                assign[u] = b.bit_length() - 1
                cnt += rec(i + 1, used | b if injective else 0)
            return cnt
        # the last level, read inside this one: t bounds the last vertex's
        # images by all but x, and each image of x narrows t to a leaf mask
        t = allowed[-1] & ~used
        for w in yb:
            t &= gmask[assign[w]]
        for w in yl:
            t &= -(2 << assign[w])
        if not t:
            return 0
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            # a host neighbourhood never holds v
            if near:
                leaf = t & gmask[v]
            elif injective:
                leaf = t & ~b
            else:
                leaf = t
            if low:
                leaf &= -(b << 1)
            if leaf:
                cnt += leaf.bit_count()
                if visit is not None:
                    assign[u] = v
                    visit(assign, leaf)
        return cnt

    return rec(0, 0) * c.weight


class _Leaf(Exception):
    """Stops a search at its first leaf; carries the map found there."""


def _exists(c: _Compiled, gmask, pin=()) -> tuple[int, ...] | None:
    """The map at the first leaf of the injective search of c (index u holds
    the host image of pattern vertex u), or None if there is no leaf."""

    def stop(assign: list[int], m: int) -> None:
        assign[c.order[-1]] = (m & -m).bit_length() - 1
        raise _Leaf(tuple(assign))

    try:
        # only the empty pattern's one map is counted without a leaf
        return () if _search(c, gmask, stop, pin=pin) else None
    except _Leaf as leaf:
        return leaf.args[0]


def _short_cycle(h: Graph) -> int:
    """k if h is the cycle C_k with 3 <= k <= 5, else 0: on at most five
    vertices, a pattern whose every degree is 2 is one cycle."""
    hm = h.adjacency_masks
    if 3 <= len(hm) <= 5 and all(m.bit_count() == 2 for m in hm):
        return len(hm)
    return 0


def _square_rows(gmask) -> list[list[int]]:
    """Row v of A^2 off its diagonal, for every host vertex v, as bit planes:
    bit w of plane j is bit j of c(v, w), the number of walks v-x-w, w != v.
    The neighbour masks of v are added with a ripple carry, all w at once."""
    rows = []
    for v, m in enumerate(gmask):
        planes: list[int] = []
        for x in bits(m):
            carry = gmask[x]
            for j, p in enumerate(planes):
                planes[j], carry = p ^ carry, p & carry
                if not carry:
                    break
            else:
                planes.append(carry)
        # v is in every added mask: drop it, and any plane that held only it
        planes = [p & ~(1 << v) for p in planes]
        while planes and not planes[-1]:
            planes.pop()
        rows.append(planes)
    return rows


def _dot(a: list[int], b: list[int]) -> int:
    """sum_w a(w) b(w) for two vectors given as bit planes."""
    return sum(
        (p & q).bit_count() << (i + j) for i, p in enumerate(a) for j, q in enumerate(b)
    )


def _cycle_walks(k: int, gmask, edges, per=None) -> tuple[int, int]:
    """(homomorphisms, labelled copies) of the cycle C_k, k = 3, 4 or 5, in
    the host with adjacency masks ``gmask`` and edge list ``edges``, from
    the closed-walk identities in the module docstring. With k <= 4, the
    labelled count through each host edge is stored in the dict ``per``
    when one is given."""
    if k == 3:
        # every closed 3-walk is a triangle: 6 maps, and c(u, w) through uw
        tr = 0
        for u, w in edges:
            c = (gmask[u] & gmask[w]).bit_count()
            tr += c
            if per is not None:
                per[u, w] = 6 * c
        return 2 * tr, 2 * tr
    deg = [m.bit_count() for m in gmask]
    rows = _square_rows(gmask)
    if k == 4:
        # (A^2)_vv = d_v; the closed 4-walks v-a-v-b-v and v-a-x-a-v
        # (x != v) revisit a vertex
        tr = sum(d * d + _dot(r, r) for d, r in zip(deg, rows))
        if per is not None:
            for u, w in edges:
                # the 3-paths u-x-y-w number (A^3)_uw - d_u - d_w + 1, and
                # (A^3)_uw is d_w (x = w) plus c(w, x) over the other x in
                # N(u), which the planes of w hold
                mu, paths = gmask[u], 1 - deg[u]
                for j, p in enumerate(rows[w]):
                    paths += (mu & p).bit_count() << j
                per[u, w] = 8 * paths
        return tr, tr - sum(d * (2 * d - 1) for d in deg)
    # v = u and v = w add (d_u + d_w) c(u, w), which the planes leave out
    tr = 0
    for u, w in edges:
        c = (gmask[u] & gmask[w]).bit_count()
        tr += _dot(rows[u], rows[w]) + (deg[u] + deg[w]) * c
    # a closed 5-walk that is no 5-cycle runs round a triangle at v with
    # one step out and back; (A^3)_vv = sum over x in N(v) of c(v, x)
    bad = sum((d - 1) * _dot([m], r) for d, m, r in zip(deg, gmask, rows))
    return 2 * tr, 2 * tr - 5 * bad


def _injective(h: Graph, gmask, edges=None) -> int:
    """Number of injective edge-preserving maps of h into the host with
    adjacency masks ``gmask``, the one place such a total picks its route:
    closed walks for C3 to C5, the kernel otherwise. The walks read the
    host's edge list ``edges``, or the pairs u < w of the masks in edge
    order when it is None. Fewer than k host vertices of degree >= 2 hold
    no C_k; the kernel makes that exit itself."""
    k = _short_cycle(h)
    if not k:
        return _search(_compile(h), gmask)
    # m & (m - 1) keeps m's bits but its lowest; the scan stops at the k-th
    if len(list(islice((m for m in gmask if m & (m - 1)), k))) < k:
        return 0
    if edges is None:
        edges = ((u, w) for u, m in enumerate(gmask) for w in bits(m & -(2 << u)))
    return _cycle_walks(k, gmask, edges)[1]


def count_labelled(h: Graph, g: Graph) -> int:
    """Number of injective maps V(h) -> V(g) preserving all edges of h."""
    return _injective(h, g.adjacency_masks, g.edges)


def _tally(c: _Compiled, per, weight: int):
    """Visitor adding ``weight`` to ``per`` at every edge image of every map
    it visits."""

    def visit(assign: list[int], m: int) -> None:
        hits = m.bit_count() * weight
        for u, v in c.inner:
            a, b = assign[u], assign[v]
            per[(a, b) if a < b else (b, a)] += hits
        images = [assign[u] for u in c.backs[-1]]
        for x in bits(m):
            for a in images:
                per[(a, x) if a < x else (x, a)] += weight

    return visit


def count_with_edges(h: Graph, g: Graph) -> CountReport:
    """Total count plus, for every host edge, the count of copies through it.

    All per-edge counters are filled in one pass, a last level at a time.
    """
    k = _short_cycle(h)
    if k in (3, 4):
        per: dict[Edge, int] = {}
        return CountReport(_cycle_walks(k, g.adjacency_masks, g.edges, per)[1], per)
    c = _compile(h)
    per = {e: 0 for e in g.edges}
    return CountReport(_search(c, g.adjacency_masks, _tally(c, per, c.weight)), per)


@lru_cache(maxsize=256)
def _arc_orbits(h: Graph) -> tuple[tuple[Edge, int], ...]:
    """(first arc, orbit size) for each Aut(h)-orbit of the oriented pattern
    edges, taken in edge order: the arcs closed under the automorphisms
    that h's plan found."""
    gens, seen, out = _compile(h).gens, set(), []
    for a, b in h.edges:
        for arc in (a, b), (b, a):
            if arc not in seen:
                orbit = _orbit(arc, gens)
                seen |= orbit
                out.append((arc, len(orbit)))
    return tuple(out)


def count_through(h: Graph, gmask, e: Edge) -> Counter:
    """Per-edge counts of the copies through host edge e, in the host with
    adjacency masks ``gmask``; edges in no such copy are absent.

    A copy through e maps exactly one oriented pattern edge onto e. The
    copies mapping any arc of one Aut(h)-orbit onto e are as many, with the
    same image edges, as those mapping its first arc, so one rooted search
    per orbit, weighted by the orbit size, finds them all.
    """
    per: Counter = Counter()
    if _short_cycle(h) == 3:
        a, b = e
        common = gmask[a] & gmask[b]
        if common:
            per[(a, b) if a < b else (b, a)] = 6 * common.bit_count()
        for x in bits(common):
            per[(a, x) if a < x else (x, a)] = per[(b, x) if b < x else (x, b)] = 6
        return per
    for root, size in _arc_orbits(h):
        c = _compile(h, root)
        _search(c, gmask, _tally(c, per, c.weight * size), pin=e)
    return per


def copy_edge_lists(h: Graph, g: Graph) -> list[tuple[Edge, ...]]:
    """Edge sets of every labelled copy; ``ratefn._orbit_table`` reads the
    automorphisms of a pattern from its copies in itself.

    Each copy lists the images of the pattern edges in the pattern's edge
    order. The search is unbroken, so every labelled copy is listed.
    """
    c = _unbroken(_compile(h))
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

    Isolated pattern vertices map anywhere. For the cycle C_k this is the
    trace of A^k, read off closed walks when k <= 5.
    """
    k = _short_cycle(h)
    if k:
        return _cycle_walks(k, g.adjacency_masks, g.edges)[0]
    isolated = h.adjacency_masks.count(0)
    core = _search(_compile(h.relabelled_span()), g.adjacency_masks, injective=False)
    return core * g.vertex_count ** isolated


def count_N11(h: Graph, g: Graph, D: int) -> tuple[int, int, int]:
    """Copy counts split by usage of edges whose endpoints both have degree <= D.

    Returns (copies using at least one such edge, copies using only such
    edges, their difference). A copy using a low-low edge is counted once,
    at the first one in ``g.edges`` order: each low-low edge e is searched
    through as ``count_through`` roots it, counting only, and then removed
    from the host, so no search covers the whole host.
    """
    if not D >= 1:
        raise ValueError(f"D must be >= 1, got {D}")
    gmask = g.adjacency_masks
    low = low_degree_mask(gmask, D)
    low_low = [m & low if low >> v & 1 else 0 for v, m in enumerate(gmask)]
    masks, n11 = list(gmask), 0
    for a, b in g.edges:
        if low_low[a] >> b & 1:
            for root, size in _arc_orbits(h):
                n11 += _search(_compile(h, root), masks, pin=(a, b)) * size
            masks[a] ^= 1 << b
            masks[b] ^= 1 << a
    # a copy uses only low-low edges iff it lies in the low-low subgraph
    tilde = _injective(h, low_low)
    return n11, tilde, n11 - tilde


def count_paths_signed(
    g: Graph, s, v1: int, v2: int, D: int
) -> int:
    """Simple paths from v1 to v2 whose i-th edge class matches s.

    Bit 0 marks an edge with both endpoints of degree <= D, bit 1 any other
    edge. Path length equals len(s); vertices are pairwise distinct.
    """
    # each entry must be the integer 0 or 1: a float such as 0.5 or 1.0 is
    # refused, not truncated to a class
    try:
        sig = tuple(map(operator.index, s))
    except TypeError:
        sig = ()
    if not sig or any(b not in (0, 1) for b in sig):
        raise ValueError(f"signature must be a nonempty 0/1 sequence, got {s!r}")
    # the walk recurses once per signature edge: the stack limit of _plan
    if len(sig) > MAX_PATTERN_VERTICES:
        raise ValueError(
            f"signature has {len(sig)} edges, above the limit of {MAX_PATTERN_VERTICES}"
        )
    for v in (v1, v2):
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    if v1 == v2:
        return 0
    gmask, code = g.adjacency_masks, 1
    for b in sig:
        code = code << 1 | b
    tally = signed_path_counts(gmask, low_degree_mask(gmask, D), v1, len(sig), sig)
    return tally[code][v2]


def signed_path_counts(
    gmask, low: int, v1: int, maxlen: int, sig=None
) -> defaultdict[int, list[int]]:
    """Every signed path count from v1 of 1 .. maxlen edges, in one walk.

    In the host with adjacency masks ``gmask`` and ``low`` =
    ``low_degree_mask(gmask, D)``, ``tally[c][v2]`` is
    ``count_paths_signed(g, s, v1, v2, D)`` for the signature s whose
    binary digits, first edge highest, follow a leading 1 in c, so c =
    2**len(s) + i for the i-th signature of its length in ``product((0, 1),
    repeat=len(s))`` order. An entry with v2 = v1 is 0. Each simple path
    from v1 of at most maxlen >= 1 edges is visited once, so paths sharing
    a prefix share its walk. Given a signature ``sig`` of length maxlen,
    the walk follows only the paths whose classes start like it. A code's
    row is made when the walk first reaches it; others read as zeros.
    """
    n, last = len(gmask), maxlen - 1
    tally = defaultdict(lambda: [0] * n)

    def rec(u: int, i: int, code: int, used: int) -> None:
        m = gmask[u] & ~used
        # the edge uw is class 0 iff u and w are both low
        zero = m & low if low >> u & 1 else 0
        if sig is not None:
            m = m ^ zero if sig[i] else zero
        code <<= 1
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            c = code if zero & b else code | 1
            tally[c][w] += 1
            if i < last:
                rec(w, i + 1, c, used | b)

    rec(v1, 0, 1, 1 << v1)
    return tally


def expected_count(h: PatternGraph, ctx: SparsityContext) -> float:
    """Falling-factorial expectation of the copy count under edge density p."""
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")
    return perm(ctx.n, h.v_h) * ctx.p ** h.e_h
