"""Upper-tail rate functions and conditional expectations.

The tail cost is reported as the coefficient of n^2 p^Delta log(1/p).
Conditioning on a planted graph g is evaluated exactly: grouping the
defining sum over injective maps by the set A of pattern edges landing
inside g gives

    E_g[count] = p^e(H) * sum_A (1/p - 1)^|A| * N(span A, g) * (n - v_A)_(v_H - v_A)

where span A drops isolated vertices and the falling factorial places the
pattern vertices missed by A. With rational p the identity is evaluated
in exact arithmetic.

The term for A depends only on the isomorphism type of span A, so the sum
is taken once per orbit of Aut(H) acting on edge subsets, weighted by the
orbit size. ``_orbit_table`` lists each orbit's least edge mask, span and
size in ascending mask order, which fixes the floating-point summation
order; each call builds it once and counts every host it scores against it.

N(span A, g) needs no search when g is one of the paper's two localized
structures. For a graph F without isolated vertices,

    N(F, K_m) = (m)_(v_F)
    N(F, hub(u, n)) = sum_k i_k(F) * (n - u)_k * (u)_(v_F - k)

since the vertices F sends outside a hub form an independent set of F;
i_k(F) counts the independent k-sets. A host given as a graph is counted
by the first form when its edges form one clique plus isolated vertices,
and by the backtracking kernel otherwise. ``variational_upper_bound``
counts a clique or hub candidate from its descriptor and realizes only
the winner. The counts are the same integers either way, so every sum is
bit-identical; the kernel stays the general path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import log, perm

from .counting import copy_edge_lists, count_labelled
from .graphs import (
    Graph,
    MAX_MASK_BYTES,
    MAX_VERTICES,
    PatternGraph,
    SparsityContext,
    from_edge_list,
    span_of_edges,
)
from .independence import independent_set_counts, tilted_root


class UnsupportedRegimeError(ValueError):
    pass


class PatternTooLargeError(ValueError):
    pass


class InfeasibleFamilyError(ValueError):
    pass


@dataclass(frozen=True)
class Regime:
    """Sparsity classification with the scales that decided it echoed."""

    tag: str  # dense-localized | sparse-localized | poisson | clique-only-boundary
    density_scale: float
    sqrt_n: float
    poisson_ceiling: float


def classify_regime(h: PatternGraph, ctx: SparsityContext) -> Regime:
    if h.v_h < 3:
        raise ValueError("patterns on fewer than 3 vertices are out of scope")
    scale = ctx.density_scale(h)
    root = float(ctx.n) ** 0.5
    ceiling = log(ctx.n) ** (1.0 / (h.v_h - 2))
    if scale > root:
        tag = "dense-localized"
    elif scale == root:
        tag = "clique-only-boundary"
    elif scale > ceiling:
        tag = "sparse-localized"
    else:
        tag = "poisson"
    return Regime(tag, scale, root, ceiling)


def rate_function(
    h: PatternGraph, delta: float, ctx: SparsityContext
) -> tuple[float, Regime]:
    """Tail cost per n^2 p^Delta log(1/p), with the regime that chose it."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    regime = classify_regime(h, ctx)
    clique_cost = 0.5 * delta ** (2.0 / h.v_h)
    if regime.tag == "dense-localized":
        return min(tilted_root(h, delta), clique_cost), regime
    if regime.tag == "sparse-localized":
        return clique_cost, regime
    if regime.tag == "poisson":
        raise UnsupportedRegimeError(
            "poisson regime: density scale "
            f"{regime.density_scale:g} <= {regime.poisson_ceiling:g}; "
            "the localized rate formula does not apply"
        )
    raise UnsupportedRegimeError(
        "density scale sits exactly on sqrt(n); only the clique branch is "
        "meaningful there and no rate value is reported"
    )


def _orbit_table(h: PatternGraph) -> list[tuple[int, Graph, int]]:
    """(least edge mask, span A, orbit size) for each Aut(h)-orbit of
    pattern edge subsets A, in ascending order of the least mask.

    The labelled copies of h in h are its automorphisms: an injective
    edge-preserving self-map keeps all e(h) edges, so it permutes them.
    """
    edges = h.edges
    m = len(edges)
    if m > 20:
        raise PatternTooLargeError(f"{m} pattern edges; subset sum capped at 20")
    index = {e: i for i, e in enumerate(edges)}
    perms = [[index[e] for e in copy] for copy in copy_edge_lists(h, h)]
    seen = bytearray(1 << m)
    table = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bits = [i for i in range(m) if mask >> i & 1]
        orbit = {sum(1 << s[i] for i in bits) for s in perms}
        for image_mask in orbit:
            seen[image_mask] = 1
        table.append((mask, span_of_edges([edges[i] for i in bits]), len(orbit)))
    return table


def _terms(table, count):
    """(|A|, v_A, N(span A, g), orbit size) per table row; count gives N."""
    for _, span, orbit_size in table:
        yield span.edge_count, span.vertex_count, count(span), orbit_size


def _clique_count(m: int):
    return lambda span: perm(m, span.vertex_count)


def _hub_count(u: int, n: int, counts=independent_set_counts):
    """N(span, hub(u, n)); ``counts`` gives i_k(span), so that candidates
    scored against one table can share one computation per span."""

    def count(span: Graph) -> int:
        v = span.vertex_count
        return sum(
            i * perm(n - u, k) * perm(u, v - k)
            for k, i in enumerate(counts(span))
        )

    return count


def _host_count(g: Graph):
    """N(span, g) as a function of the span: the falling factorial when g's
    edges form one clique plus isolated vertices, the kernel otherwise.

    g is such a host iff every non-isolated vertex has the same closed
    neighbourhood, which is then the support; the test stops at the first
    vertex that differs."""
    masks, support = g.adjacency_masks, g.support()
    clique = next((masks[v] | 1 << v for v in support), 0)
    if all(masks[v] | 1 << v == clique for v in support):
        return _clique_count(len(support))
    return lambda span: count_labelled(span, g)


def _expectation_sum(terms, h: PatternGraph, ctx: SparsityContext, exact: bool):
    n = ctx.n
    p: Fraction | float = Fraction(ctx.p) if exact else ctx.p
    q = 1 / p - 1
    total: Fraction | float = 0
    for size, va, cnt, orbit in terms:
        if cnt:
            total += q**size * (cnt * orbit * perm(n - va, h.v_h - va))
    return p**h.e_h * total


def _gain_sum(terms, h: PatternGraph, ctx: SparsityContext) -> float:
    n, p = ctx.n, ctx.p
    total = 0.0
    for size, va, cnt, orbit in terms:
        if size and cnt:
            total += (
                cnt * orbit * (1.0 - p**size)
                * float(n) ** (h.v_h - va) * p ** (h.e_h - size)
            )
    return total


def _check_canvas(vertex_count: int, h: PatternGraph, ctx: SparsityContext) -> None:
    if vertex_count != ctx.n:
        raise ValueError(
            f"planted graph has {vertex_count} vertices, context has {ctx.n}"
        )
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")


def _planted_terms(g: Graph, h: PatternGraph, ctx: SparsityContext) -> list:
    """The terms of g after the canvas check; the three entry points below
    share this path."""
    _check_canvas(g.vertex_count, h, ctx)
    return list(_terms(_orbit_table(h), _host_count(g)))


def exact_conditional_expectation(
    g: Graph, h: PatternGraph, ctx: SparsityContext, exact: bool = False
):
    """Expected copy count given that every edge of g is present.

    With exact=True, p is taken as the binary rational of the stored float
    and a Fraction is returned; otherwise a float.
    """
    return _expectation_sum(_planted_terms(g, h, ctx), h, ctx, exact)


def asymptotic_conditional_gain(
    g: Graph, h: PatternGraph, ctx: SparsityContext
) -> float:
    """First-order surplus over the unconditional expectation.

    Sums N(span A, g) * (1 - p^|A|) * n^(v_H - v_A) * p^(e_H - |A|) over
    nonempty edge subsets A, with plain powers of n.
    """
    return _gain_sum(_planted_terms(g, h, ctx), h, ctx)


def conditional_expectation_and_gain(
    g: Graph, h: PatternGraph, ctx: SparsityContext, exact: bool = False
):
    """Both values above from a single walk over the subset terms."""
    terms = _planted_terms(g, h, ctx)
    return _expectation_sum(terms, h, ctx, exact), _gain_sum(terms, h, ctx)


# ---------------------------------------------------------------------------
# planted structures


@dataclass(frozen=True)
class PlantedStructure:
    descriptor: tuple
    realized: Graph


# Largest realized edge count ``plant`` builds. Sizes come from the command
# line, so the count is computed and checked before any edge list exists.
MAX_PLANTED_EDGES = 100_000


def _mask_bytes(vertices: int, top: int) -> int:
    """Bytes of the masks of ``vertices`` vertices whose neighbours reach
    label ``top``, counted as ``parse_edge_list`` counts them."""
    return vertices * (top // 8 + 1)


def _layout(kind: tuple, n: int) -> tuple[list[tuple[tuple, int]], int]:
    """Each part of a planted kind with its first vertex, and the realized
    edge count, in closed form: nothing is built. The adjacency mask bytes
    are bounded in closed form too, taking every vertex of a block to be as
    wide as its largest possible neighbour label."""
    if kind[0] == "hub":
        (_, u) = kind
        if not 1 <= u <= n:
            raise ValueError(f"hub size {u} does not fit in n={n}")
        layout, count = [(kind, 0)], u * (n - u) + u * (u - 1) // 2
        mask_bytes = _mask_bytes(u, n - 1) + _mask_bytes(n - u, u - 1)
    else:
        layout, start, count, mask_bytes = [], 0, 0, 0
        for part in list(kind[1]) if kind[0] == "union" else [kind]:
            match part := tuple(part):
                case ("clique", int(m)) if m >= 1:
                    width, closed = m, m * (m - 1) // 2
                    masks = _mask_bytes(m, start + m - 1) if m > 1 else 0
                case ("bipartite", int(a), int(b)) if a >= 1 and b >= 1:
                    width, closed = a + b, a * b
                    masks = (_mask_bytes(a, start + a + b - 1)
                             + _mask_bytes(b, start + a - 1))
                case _:
                    raise ValueError(f"unsupported planted part {part!r}")
            layout.append((part, start))
            start += width
            count += closed
            mask_bytes += masks
        if start > n:
            raise ValueError(f"planted structure needs {start} vertices, n={n}")
    # the canvas holds one adjacency mask per vertex, built for every size
    if n > MAX_VERTICES:
        raise ValueError(
            f"canvas of n={n} vertices is above the limit of {MAX_VERTICES}"
        )
    if count > MAX_PLANTED_EDGES:
        raise ValueError(
            f"planted structure has {count} edges, above the limit of "
            f"{MAX_PLANTED_EDGES}"
        )
    if mask_bytes > MAX_MASK_BYTES:
        raise ValueError(
            f"adjacency masks would take {mask_bytes} bytes, above the limit "
            f"of {MAX_MASK_BYTES}"
        )
    return layout, count


def _block_edges(kind: tuple, start: int, n: int) -> list[tuple[int, int]]:
    match kind:
        case ("hub", u):
            return [(i, j) for i in range(u) for j in range(i + 1, n)]
        case ("clique", m):
            return [(start + i, start + j) for i in range(m) for j in range(i + 1, m)]
        case ("bipartite", a, b):
            return [(start + i, start + a + j) for i in range(a) for j in range(b)]


def plant(kind, ctx: SparsityContext) -> PlantedStructure:
    """Realize a planted structure on the full n-vertex canvas.

    Kinds: ("clique", m), ("hub", u), ("bipartite", a, b), and
    ("union", (part, ...)) of clique/bipartite parts on fresh blocks.
    A hub joins u vertices to everything, itself included, so it cannot
    appear inside a union. At most MAX_PLANTED_EDGES edges are realized,
    on a canvas of at most MAX_VERTICES vertices, with adjacency masks of
    at most MAX_MASK_BYTES.
    """
    kind = tuple(kind)
    layout, count = _layout(kind, ctx.n)
    edges = [e for part, start in layout for e in _block_edges(part, start, ctx.n)]
    g = from_edge_list(ctx.n, edges)
    assert g.edge_count == count
    return PlantedStructure(kind, g)


def variational_upper_bound(
    h: PatternGraph, delta: float, ctx: SparsityContext, family
) -> tuple[float, PlantedStructure]:
    """Cheapest planted structure whose conditional expectation clears
    (1 + delta) n^v p^e; cost is edge count over n^2 p^Delta, i.e. the
    edge budget e(G) log(1/p) normalized by n^2 p^Delta log(1/p).

    An upper bound of the full variational problem: only the given family
    is searched. Ties break toward the lexicographically smallest
    descriptor (the family is scanned in sorted order and only strict
    improvements replace the incumbent).
    """
    descriptors = sorted(tuple(k) for k in family)
    if not descriptors:
        raise ValueError("search family is empty")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    # refuse a misfit or oversized candidate before any work
    edge_counts = [_layout(desc, ctx.n)[1] for desc in descriptors]
    _check_canvas(ctx.n, h, ctx)
    threshold = (1 + delta) * ctx.copies_scale(h)
    scale = ctx.edge_scale(h)
    table = _orbit_table(h)
    # i_k of each row's span, computed at the first hub candidate
    counts = cache(independent_set_counts)
    best: tuple[float, tuple] | None = None
    for desc, edge_count in zip(descriptors, edge_counts):
        match desc:
            case ("clique", m):
                count = _clique_count(m)
            case ("hub", u):
                count = _hub_count(u, ctx.n, counts)
            case _:
                count = _host_count(plant(desc, ctx).realized)
        if _expectation_sum(_terms(table, count), h, ctx, False) < threshold:
            continue
        cost = edge_count / scale
        if best is None or cost < best[0]:
            best = (cost, desc)
    if best is None:
        raise InfeasibleFamilyError(
            f"no structure among {len(descriptors)} candidates meets the "
            "conditional-expectation constraint"
        )
    return best[0], plant(best[1], ctx)
