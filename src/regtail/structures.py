"""Structural classification of host graphs.

Degree-threshold edge partitions, the seed / core / strong-core predicate
ladder, fixed-point peeling extractors, and the degree-product floor that
edges of a strong core clear.
All predicates evaluate literal inequalities at the given finite (n, p);
nothing here asserts a limit statement.
"""

from __future__ import annotations

from collections import namedtuple
from math import ceil

from .counting import CountReport, count_labelled, count_through, count_with_edges
from .graphs import Edge, Graph, PatternGraph, SparsityContext, bits, low_degree_mask


class CoreParams(namedtuple("CoreParams", "delta eps context pattern c_bar c_star")):
    """Shared knobs for the predicate ladder: floats delta and eps, the
    SparsityContext ``context`` and the PatternGraph ``pattern``.

    c_bar budgets edges against n^2 p^Delta log(1/p); c_star against
    n^2 p^Delta alone and must stay >= 32 delta^(2/v) for the strong-core
    per-edge threshold to be meaningful. A zero c_bar or c_star takes the
    default; a negative c_bar would make the budget and the floor negative.
    """

    __slots__ = ()

    def __new__(
        cls, delta: float, eps: float, context: SparsityContext,
        pattern: PatternGraph, c_bar: float = 0.0, c_star: float = 0.0,
    ) -> CoreParams:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {eps}")
        if c_bar < 0:
            raise ValueError(f"c_bar must be nonnegative, got {c_bar}")
        floor = 32.0 * delta ** (2.0 / pattern.v_h)
        if c_bar == 0.0:
            c_bar = 10.0 / (delta * eps)
        if c_star == 0.0:
            c_star = floor
        elif c_star < floor * (1.0 - 1e-12):
            raise ValueError(f"c_star={c_star} below 32*delta^(2/v)={floor}")
        return tuple.__new__(cls, (delta, eps, context, pattern, c_bar, c_star))

    @property
    def degree_threshold(self) -> int:
        return ceil(16 * self.pattern.delta / self.eps)

    # scale shorthands used by every clause below
    @property
    def copies_scale(self) -> float:
        return self.context.copies_scale(self.pattern)

    @property
    def edge_scale(self) -> float:
        return self.context.edge_scale(self.pattern)

    @property
    def core_edge_budget(self) -> float:
        return self.c_bar * self.edge_scale * self.context.log_inv_p

    @property
    def core_min_edge_threshold(self) -> float:
        return self.delta * self.eps * self.copies_scale / self.core_edge_budget

    @property
    def strong_edge_budget(self) -> float:
        return self.c_star * self.edge_scale

    @property
    def strong_min_edge_threshold(self) -> float:
        scale = self.context.density_scale(self.pattern)
        return (self.delta * self.eps / self.c_star) * scale ** (
            self.pattern.v_h - 2
        )


class PredicateWitness(namedtuple(
    "PredicateWitness", "satisfied violated_clause attained required",
    defaults=(None, None, None),
)):
    """Outcome of a clause ladder; truthiness tracks ``satisfied``.

    On failure, names the first violated clause and reports the attained
    and required values; slack = attained - required is then negative.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.satisfied

    @property
    def slack(self) -> float | None:
        if self.attained is None or self.required is None:
            return None
        return self.attained - self.required


# The seed / core / strong-core rungs: (eps multiple in the copy floor, edge
# budget, per-edge copy floor or None), the last two named as CoreParams
# properties.
_RUNGS = {
    "seed": (2, "core_edge_budget", None),
    "core": (3, "core_edge_budget", "core_min_edge_threshold"),
    "strong-core": (6, "strong_edge_budget", "strong_min_edge_threshold"),
}


def _rung(
    g: Graph, params: CoreParams, rung: str, report: CountReport | None = None
) -> PredicateWitness:
    """One rung of the ladder; the host is counted once, with per-edge
    counts when the rung has a per-edge floor. A caller that already holds
    the host's ``count_with_edges`` report may pass it in."""
    slack, budget_name, floor_name = _RUNGS[rung]
    if floor_name is None:
        copies = count_labelled(params.pattern, g)
    else:
        if report is None:
            report = count_with_edges(params.pattern, g)
        copies, worst = report.total, min(report.per_edge.values(), default=None)
    need = params.delta * (1 - slack * params.eps) * params.copies_scale
    edges = g.edge_count
    budget = getattr(params, budget_name)
    clauses = [
        ("copies", float(copies), need, copies >= need),
        ("edges", float(edges), budget, edges <= budget),
    ]
    if floor_name is not None:
        floor = getattr(params, floor_name)
        ok = worst is None or worst >= floor
        clauses.append(("min-edge-copies", float(worst or 0), floor, ok))
    for name, attained, required, ok in clauses:
        if not ok:
            return PredicateWitness(False, name, attained, required)
    return PredicateWitness(True)


def is_seed(g: Graph, params: CoreParams) -> PredicateWitness:
    return _rung(g, params, "seed")


def is_core(g: Graph, params: CoreParams) -> PredicateWitness:
    return _rung(g, params, "core")


def is_strong_core(g: Graph, params: CoreParams) -> PredicateWitness:
    return _rung(g, params, "strong-core")


class EdgePartition(namedtuple("EdgePartition", "low_vertices e11 e12 e22")):
    """Edges split by membership of endpoints in the low-degree set, each
    field a frozenset."""

    __slots__ = ()


def edge_partition(g: Graph, D: int) -> EdgePartition:
    if D < 0:
        raise ValueError(f"degree threshold must be >= 0, got {D}")
    low = low_degree_mask(g.adjacency_masks, D)
    e11, e12, e22 = set(), set(), set()
    for u, v in g.edges:
        (e22, e12, e11)[(low >> u & 1) + (low >> v & 1)].add((u, v))
    return EdgePartition(
        frozenset(bits(low)), frozenset(e11), frozenset(e12), frozenset(e22)
    )


def _peel(g: Graph, h: PatternGraph, threshold: float, per: dict[Edge, int]) -> Graph:
    """Largest subgraph whose every edge lies in at least ``threshold``
    copies; it is unique, as counts only fall when edges go. ``per`` holds
    the host's per-edge counts and is left holding the survivors'."""
    masks = list(g.adjacency_masks)
    work = [e for e in g.edges if per[e] < threshold]
    while work:
        e = x, y = work.pop()
        # only copies through e die; an edge is queued once, as it drops
        for f, k in count_through(h, masks, e).items():
            if per[f] >= threshold > per[f] - k:
                work.append(f)
            per[f] -= k
        masks[x] ^= 1 << y
        masks[y] ^= 1 << x
        del per[e]
    return Graph(g.vertex_count, tuple(sorted(per)), tuple(masks))


def peel(g: Graph, params: CoreParams, rung: str) -> tuple[Graph, PredicateWitness]:
    """Peel g to the rung's per-edge floor and judge the survivors on that
    rung, all from one count of g. Each labelled copy lies on e(H) edges,
    so the survivors' per-edge counts sum to e(H) times their total."""
    floor_name = _RUNGS[rung][2]
    if floor_name is None:
        raise ValueError(f"rung {rung!r} has no per-edge floor to peel to")
    h = params.pattern
    per = count_with_edges(h, g).per_edge
    peeled = _peel(g, h, getattr(params, floor_name), per)
    report = CountReport(sum(per.values()) // h.e_h, per)
    return peeled, _rung(peeled, params, rung, report)


def peel_to_core(g: Graph, params: CoreParams) -> Graph:
    return peel(g, params, "core")[0]


def peel_to_strong_core(g: Graph, params: CoreParams) -> Graph:
    return peel(g, params, "strong-core")[0]


def degree_product_floor(params: CoreParams) -> float:
    """Explicit lower-scale constant for degree products over strong cores."""
    h = params.pattern
    d = h.delta
    if d < 2:
        raise ValueError("pattern degree must be at least 2")
    q = d / (d - 1)
    a = (params.eps / params.c_star) ** q
    b = (1.0 / (4 * h.e_h)) ** q
    c = (2 * params.c_star) ** (-(h.v_h / 2 - (2 * d - 1) / d) * q)
    return 0.25 * a * b * c
