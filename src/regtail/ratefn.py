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
i_k(F) counts the independent k-sets. ``_closed_form`` picks the form
from a host's twin classes (see ``_layout``). A host given as a graph is
one clique class when its edges form one clique plus isolated vertices;
``variational_upper_bound`` reads each candidate's classes off its
descriptor and realizes only the winner and the candidates with no form.
The counts are the kernel's integers, so every sum is bit-identical.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
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


class Regime(namedtuple("Regime", "tag density_scale sqrt_n poisson_ceiling")):
    """Sparsity classification with the scales that decided it echoed;
    ``tag`` is dense-localized, sparse-localized, poisson or
    clique-only-boundary."""

    __slots__ = ()


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
    if not delta > 0:
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


def _closed_form(classes: list[tuple], n: int, counts=independent_set_counts):
    """N(span, g) for the host g on n vertices that ``classes`` describe:
    the falling factorial for one clique class, ``_hub_count`` for a clique
    class joined to the rest of the canvas, None for any other shape."""
    match classes:
        case [(_, m, True, ())]:
            return lambda span: perm(m, span.vertex_count)
        case [(0, u, True, (1,)), (_, rest, False, (0,))] if u + rest == n:
            return _hub_count(u, n, counts)
    return None


def _host_count(g: Graph):
    """N(span, g) as a function of the span: one clique class's closed form
    when every non-isolated vertex of g has the same closed neighbourhood
    (then g is a clique plus isolated vertices), the kernel otherwise."""
    masks, support = g.adjacency_masks, g.support()
    clique = next((masks[v] | 1 << v for v in support), 0)
    if all(masks[v] | 1 << v == clique for v in support):
        return _closed_form([(0, len(support), True, ())], g.vertex_count)
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


class PlantedStructure(namedtuple("PlantedStructure", "descriptor realized")):
    """A planted kind's descriptor tuple and the Graph realizing it."""

    __slots__ = ()


# Largest realized edge count ``plant`` builds. Sizes come from the command
# line, so the count is computed and checked before any edge list exists.
MAX_PLANTED_EDGES = 100_000


def _layout(kind: tuple, n: int) -> tuple[list[tuple], int]:
    """The twin classes of a planted kind on the n-vertex canvas, and its
    edge count; nothing is built. A class is (first vertex, size, clique?,
    indices of the classes joined to it): consecutive labels, pairwise
    adjacent iff a clique, adjacent to all of each joined class. A hub is a
    clique class joined to the rest of the canvas, a bipartite part two
    joined independent classes. A vertex's mask is as wide as the last
    label of its own clique class or of a class joined to it."""
    if kind[0] == "hub":
        (_, u) = kind
        if not 1 <= u <= n:
            raise ValueError(f"hub size {u} does not fit in n={n}")
        classes = [(0, u, True, (1,)), (u, n - u, False, (0,))]
    else:
        classes, start = [], 0
        for part in list(kind[1]) if kind[0] == "union" else [kind]:
            i = len(classes)
            match part := tuple(part):
                case ("clique", int(m)) if m >= 1:
                    classes.append((start, m, True, ()))
                case ("bipartite", int(a), int(b)) if a >= 1 and b >= 1:
                    classes += [(start, a, False, (i + 1,)),
                                (start + a, b, False, (i,))]
                case _:
                    raise ValueError(f"unsupported planted part {part!r}")
            start = classes[-1][0] + classes[-1][1]
        if start > n:
            raise ValueError(f"planted structure needs {start} vertices, n={n}")
    count = mask_bytes = 0
    for i, (_, size, clique, joined) in enumerate(classes):
        near = [classes[j] for j in joined]
        if clique and size > 1:
            count += size * (size - 1) // 2
            near.append(classes[i])
        count += sum(size * classes[j][1] for j in joined if j > i)
        if near:
            mask_bytes += size * (max(f + s - 1 for f, s, _, _ in near) // 8 + 1)
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
    return classes, count


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
    classes, count = _layout(kind, ctx.n)
    blocks = [range(first, first + size) for first, size, _, _ in classes]
    # each clique class's pairs, then every pair across two joined classes
    edges = [combinations(blocks[i], 2) for i, c in enumerate(classes) if c[2]]
    edges += [product(blocks[i], blocks[j])
              for i, c in enumerate(classes) for j in c[3] if j > i]
    g = from_edge_list(ctx.n, chain.from_iterable(edges))
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
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    # refuse a misfit or oversized candidate before any work
    layouts = [_layout(desc, ctx.n) for desc in descriptors]
    _check_canvas(ctx.n, h, ctx)
    threshold = (1 + delta) * ctx.copies_scale(h)
    scale = ctx.edge_scale(h)
    table = _orbit_table(h)
    # i_k of each row's span, computed at the first hub candidate
    counts = cache(independent_set_counts)
    best: tuple[float, tuple] | None = None
    for desc, (classes, edge_count) in zip(descriptors, layouts):
        count = (_closed_form(classes, ctx.n, counts)
                 or _host_count(plant(desc, ctx).realized))
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
