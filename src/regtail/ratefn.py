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
orbit size. Orbits are visited in ascending order of their least edge
mask, which fixes the floating-point summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log, perm

from .counting import copy_edge_lists, count_labelled
from .graphs import (
    Graph,
    MAX_VERTICES,
    PatternGraph,
    SparsityContext,
    from_edge_list,
    span_of_edges,
)
from .independence import tilted_root


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


def _edge_orbits(h: Graph) -> list[tuple[int, int]]:
    """(least edge mask, orbit size) for each Aut(h)-orbit of edge subsets.

    The labelled copies of h in h are its automorphisms: an injective
    edge-preserving self-map keeps all e(h) edges, so it permutes them.
    Orbits come in ascending order of their least mask.
    """
    edges = h.edges
    index = {e: i for i, e in enumerate(edges)}
    perms = [[index[e] for e in copy] for copy in copy_edge_lists(h, h)]
    m = len(edges)
    seen = bytearray(1 << m)
    out = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bits = [i for i in range(m) if mask >> i & 1]
        orbit = {sum(1 << s[i] for i in bits) for s in perms}
        for image_mask in orbit:
            seen[image_mask] = 1
        out.append((mask, len(orbit)))
    return out


def _subset_terms(g: Graph, h: PatternGraph):
    """Yield (|A|, v_A, N(span A, g), orbit size), one term per Aut(H)-orbit
    of pattern edge subsets A, in ascending order of the least mask."""
    edges = h.edges
    m = len(edges)
    if m > 20:
        raise PatternTooLargeError(f"{m} pattern edges; subset sum capped at 20")
    for mask, orbit_size in _edge_orbits(h):
        chosen = [edges[i] for i in range(m) if mask >> i & 1]
        span = span_of_edges(chosen)
        yield len(chosen), span.vertex_count, count_labelled(span, g), orbit_size


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


def _check_canvas(g: Graph, h: PatternGraph, ctx: SparsityContext) -> None:
    if g.vertex_count != ctx.n:
        raise ValueError(
            f"planted graph has {g.vertex_count} vertices, context has {ctx.n}"
        )
    if ctx.n < h.v_h:
        raise ValueError(f"n={ctx.n} smaller than pattern order {h.v_h}")


def exact_conditional_expectation(
    g: Graph, h: PatternGraph, ctx: SparsityContext, exact: bool = False
):
    """Expected copy count given that every edge of g is present.

    With exact=True, p is taken as the binary rational of the stored float
    and a Fraction is returned; otherwise a float.
    """
    _check_canvas(g, h, ctx)
    return _expectation_sum(_subset_terms(g, h), h, ctx, exact)


def asymptotic_conditional_gain(
    g: Graph, h: PatternGraph, ctx: SparsityContext
) -> float:
    """First-order surplus over the unconditional expectation.

    Sums N(span A, g) * (1 - p^|A|) * n^(v_H - v_A) * p^(e_H - |A|) over
    nonempty edge subsets A, with plain powers of n.
    """
    return _gain_sum(_subset_terms(g, h), h, ctx)


def conditional_expectation_and_gain(
    g: Graph, h: PatternGraph, ctx: SparsityContext, exact: bool = False
):
    """Both values above from a single walk over the subset terms."""
    _check_canvas(g, h, ctx)
    terms = list(_subset_terms(g, h))
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


def _layout(kind: tuple, n: int) -> tuple[list[tuple[tuple, int]], int]:
    """Each part of a planted kind with its first vertex, and the realized
    edge count, in closed form: nothing is built."""
    if kind[0] == "hub":
        (_, u) = kind
        if not 1 <= u <= n:
            raise ValueError(f"hub size {u} does not fit in n={n}")
        layout, count = [(kind, 0)], u * (n - u) + u * (u - 1) // 2
    else:
        layout, start, count = [], 0, 0
        for part in list(kind[1]) if kind[0] == "union" else [kind]:
            match part := tuple(part):
                case ("clique", int(m)) if m >= 1:
                    width, closed = m, m * (m - 1) // 2
                case ("bipartite", int(a), int(b)) if a >= 1 and b >= 1:
                    width, closed = a + b, a * b
                case _:
                    raise ValueError(f"unsupported planted part {part!r}")
            layout.append((part, start))
            start += width
            count += closed
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
    on a canvas of at most MAX_VERTICES vertices.
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
    for desc in descriptors:  # refuse a misfit or oversized one before any work
        _layout(desc, ctx.n)
    threshold = (1 + delta) * ctx.copies_scale(h)
    scale = ctx.edge_scale(h)
    best: tuple[float, PlantedStructure] | None = None
    for desc in descriptors:
        ps = plant(desc, ctx)
        value = exact_conditional_expectation(ps.realized, h, ctx)
        if value < threshold:
            continue
        cost = ps.realized.edge_count / scale
        if best is None or cost < best[0]:
            best = (cost, ps)
    if best is None:
        raise InfeasibleFamilyError(
            f"no structure among {len(descriptors)} candidates meets the "
            "conditional-expectation constraint"
        )
    return best
