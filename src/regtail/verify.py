"""Executable inequality checkers over generated instance suites.

Every checker recomputes both sides of its inequality from primitive
counts on seed-deterministic instances. The seeded suites share one
scaffold, ``_seeded``, which gives each violation a replayable descriptor
``seed=S <tag> n=N edges=[...]``. Exploratory checkers log observations
instead of gating; everything else passes only with an empty violation list.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from functools import cache
from itertools import combinations, permutations, repeat
from math import log, perm

from .counting import (
    count_labelled,
    count_N11,
    count_with_edges,
    signed_path_counts,
)
from .graphs import (
    Graph,
    SparsityContext,
    bits,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    low_degree_mask,
    validate_pattern,
)
from .structures import (
    CoreParams,
    _rung,
    degree_product_floor,
    edge_partition,
)


class CheckResult(namedtuple("CheckResult", "check_id instances violations observations")):
    """One checker's outcome: its instance count, each violation as
    (instance, lhs, rhs) and its observation lines, a new list unless
    given."""

    __slots__ = ()

    def __new__(
        cls, check_id: str, instances: int, violations: list, observations=None
    ) -> CheckResult:
        if observations is None:
            observations = []
        return tuple.__new__(cls, (check_id, instances, violations, observations))

    @property
    def passed(self) -> bool:
        return not self.violations


def report_jsonl(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(
            json.dumps(
                {
                    "check": r.check_id,
                    "instances": r.instances,
                    "violations": [
                        {"instance": d, "lhs": lhs, "rhs": rhs}
                        for d, lhs, rhs in r.violations
                    ],
                    "observations": r.observations,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def summary_table(results: list[CheckResult]) -> str:
    width = max(len(r.check_id) for r in results)
    lines = [f"{'check':<{width}}  instances  violations  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.check_id:<{width}}  {r.instances:>9}  {len(r.violations):>10}  {status}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instance generators


def _random_graph(rng: random.Random, nv: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < p
    ]
    return from_edge_list(nv, edges)


def _mixed_edges(g: Graph, D: int) -> int:
    """Edges with at least one endpoint of degree above D."""
    part = edge_partition(g, D)
    return len(part.e12) + len(part.e22)


def _seeded(check_id: str, seed: int, cases) -> CheckResult:
    """Run a seeded suite: ``cases(rng)`` draws hosts from
    ``random.Random(seed)`` and yields one item per instance, None when the
    inequality holds, else ``(tag, host, lhs, rhs)``; the tag is built only
    for a violation, whose descriptor lets the host be rebuilt."""
    instances = 0
    violations = []
    for case in cases(random.Random(seed)):
        instances += 1
        if case is not None:
            tag, g, lhs, rhs = case
            descriptor = f"seed={seed} {tag} n={g.vertex_count} edges={list(g.edges)}"
            violations.append((descriptor, float(lhs), float(rhs)))
    return CheckResult(check_id, instances, violations)


# The first connected graph of each isomorphism class in edge-mask order, by
# order: bit i of a mask is the i-th pair of combinations(range(k), 2).
# tests/conftest.py derives the same table by canonical forms.
_CATALOGUE = {
    2: (1,), 3: (3, 7), 4: (7, 13, 15, 30, 31, 63),
    5: (15, 29, 31, 58, 59, 62, 63, 126, 127, 185, 187, 191, 207, 220, 221,
        223, 254, 255, 495, 511, 1023),
}
# 2 alpha* of each catalogue pattern, in the order of
# connected_graphs_up_to(5): an integer, as alpha* is half-integral.
# tests/test_verify.py solves each fractional-independence LP again.
_ALPHA2 = (
    2,
    4, 3,
    6, 4, 4, 4, 4, 4,
    8, 6, 6, 6, 6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
)


def connected_graphs_up_to(max_vertices: int) -> list[Graph]:
    """All connected graphs with 2..max_vertices vertices, one per
    isomorphism class: the first of each class in edge-mask order, read
    from ``_CATALOGUE``, which stops at 5 vertices.
    """
    if max_vertices > 5:
        raise ValueError(f"the catalogue stops at 5 vertices, got {max_vertices}")
    out: list[Graph] = []
    for k in range(2, max_vertices + 1):
        pairs = list(combinations(range(k), 2))
        out += (
            from_edge_list(k, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for mask in _CATALOGUE[k]
        )
    return out


def cube_graph() -> Graph:
    edges = [
        (i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)
    ]
    return from_edge_list(8, edges)


# ---------------------------------------------------------------------------
# gating checkers


# The alpha checker's hosts have at most this many vertices. A pattern on 5
# vertices has at most perm(n, 5) injective maps into n vertices, so each
# census count fits its field of _FIELD bits.
_ALPHA_MAX_VERTICES = 10
_FIELD = 16
assert perm(_ALPHA_MAX_VERTICES, 5) < 2**_FIELD


@cache
def _census_tables() -> tuple[list[int], ...]:
    """For k = 2..5, the table T_k with T_k[F] = inj(h, F) for every
    labelled graph F on k vertices and every catalogue pattern h of order
    k, packed into field i of one int for the i-th pattern of
    ``connected_graphs_up_to(5)``.

    A mask numbers the pairs colex, i < j at bit j(j-1)/2 + i, so a subset's
    mask grows by its new vertex's bits. A labelled map of h into F is a
    permutation sigma of the k vertices with sigma(E(h)) inside E(F), so
    each of the k! permutations adds one at the mask of its image of h; a
    subset-sum transform then sums the maps inside each F.
    """
    tables = []
    shift = 0
    for k in range(2, 6):
        bit = {}
        for j in range(k):
            for i in range(j):
                bit[i, j] = bit[j, i] = 1 << j * (j - 1) // 2 + i
        # per permutation, the colex bit of each catalogue pair's image
        images = [
            [bit[s[i], s[j]] for i, j in combinations(range(k), 2)]
            for s in permutations(range(k))
        ]
        pairs = k * (k - 1) // 2
        size = 1 << pairs
        table = [0] * size
        for lex in _CATALOGUE[k]:
            edges = list(bits(lex))
            for image in images:
                table[sum(image[b] for b in edges)] += 1 << shift
            shift += _FIELD
        for b in range(pairs):
            step = 1 << b
            for base in range(0, size, 2 * step):
                for m in range(base + step, base + 2 * step):
                    table[m] += table[m - step]
        tables.append(table)
    return tuple(tables)


def _census(gmask, tables) -> list[int]:
    """inj(h, g) for every pattern h of ``connected_graphs_up_to(5)``, in
    that order, from the host's adjacency masks: one walk over the
    increasing vertex tuples of length 2..5, adding each subset's table
    entry once."""
    t2, t3, t4, t5 = tables
    n = len(gmask)
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            m2 = gmask[b] >> a & 1
            total += t2[m2]
            for c in range(b + 1, n):
                gc = gmask[c]
                m3 = m2 | (gc >> a & 1) << 1 | (gc >> b & 1) << 2
                total += t3[m3]
                for d in range(c + 1, n):
                    gd = gmask[d]
                    m4 = (m3 | (gd >> a & 1) << 3 | (gd >> b & 1) << 4
                          | (gd >> c & 1) << 5)
                    total += t4[m4]
                    for e in range(d + 1, n):
                        ge = gmask[e]
                        total += t5[m4 | (ge >> a & 1) << 6 | (ge >> b & 1) << 7
                                    | (ge >> c & 1) << 8 | (ge >> d & 1) << 9]
    full = (1 << _FIELD) - 1
    fields = sum(map(len, _CATALOGUE.values()))
    return [total >> i * _FIELD & full for i in range(fields)]


def check_alpha_count_bound(seed: int = 101, graphs: int = 40) -> CheckResult:
    """Copy counts against the half-integral packing bound (2e)^alpha*.

    Compared as N^2 <= (2e)^(2 alpha*) in exact integers. A connected
    pattern h on k vertices maps injectively onto exactly k host vertices,
    so inj(h, g) is the sum of inj(h, g[S]) over the k-subsets S; one
    census of the host's subsets of 2..5 vertices (``_census``) gives the
    counts of all 30 patterns at once.
    """
    patterns = connected_graphs_up_to(5)
    tables = _census_tables()

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(2, _ALPHA_MAX_VERTICES)
            g = _random_graph(rng, nv, rng.choice([0.2, 0.4, 0.6, 0.8]))
            counts = _census(g.adjacency_masks, tables)
            for h, alpha2, n_copies in zip(patterns, _ALPHA2, counts):
                yield None if n_copies**2 <= (2 * g.edge_count) ** alpha2 else (
                    f"graph#{i} pattern={list(h.edges)}", g, n_copies,
                    (2 * g.edge_count) ** (alpha2 / 2),
                )

    return _seeded("alpha-count-bound", seed, cases)


# endpoint pairs drawn per host graph and degree threshold
_ENDPOINT_PAIRS = 4


def check_path_lemma(seed: int = 202, graphs: int = 25) -> CheckResult:
    """Signed path counts between fixed endpoints against the degree and
    mixed-edge bound; an all-zero signature walks only low-degree
    vertices, so its bound carries no mixed-edge factor.
    """

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(4, 12)
            g = _random_graph(rng, nv, rng.choice([0.2, 0.35, 0.5]))
            gmask = g.adjacency_masks
            passed = 0
            for D in (2, 3):
                ebar = _mixed_edges(g, D)
                pairs = [
                    (rng.randrange(nv), rng.randrange(nv))
                    for _ in range(_ENDPOINT_PAIRS)
                ]
                pairs = [(v1, v2) for v1, v2 in pairs if v1 != v2]
                # one walk per start vertex tallies its paths to its endpoints
                ends = {}
                for v1, v2 in pairs:
                    ends[v1] = ends.get(v1, 0) | 1 << v2
                low = low_degree_mask(gmask, D)
                tallies = {
                    v1: signed_path_counts(gmask, low, v1, 5, m)
                    for v1, m in ends.items()
                }
                # code 2^l + i is the i-th signature of length l, spelled by
                # its bits after the leading 1; its bound is D^l for the
                # all-zero signature, the mixed-edge bound for the others
                bound = [0, 0]
                for ell in range(1, 6):
                    mixed = D**ell * (2 * ebar) ** (ell // 2)
                    bound += [D**ell] + [mixed] * ((1 << ell) - 1)
                passed += (len(bound) - 2) * len(pairs)
                for code in range(2, len(bound)):
                    for v1, v2 in pairs:
                        got = tallies[v1].get((code, v2), 0)
                        if got > bound[code]:
                            passed -= 1
                            yield (
                                f"graph#{i} D={D} s={bin(code)[3:]} v1={v1} v2={v2}",
                                g, got, bound[code],
                            )
            yield from repeat(None, passed)

    return _seeded("path-signature-bound", seed, cases)


def check_cycle_barN11(seed: int = 303, graphs: int = 18) -> CheckResult:
    """Mixed cycle copies (some low-low edge, some other edge) against the
    closed-form bound in the mixed edge count.
    """
    cycles = {ell: cycle(ell) for ell in range(3, 7)}

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(5, 12)
            g = _random_graph(rng, nv, rng.choice([0.25, 0.4, 0.55]))
            for D in (2, 3):
                ebar = _mixed_edges(g, D)
                for ell, c in cycles.items():
                    _, _, mixed = count_N11(c, g, D)
                    bound = (
                        ell * 2 ** (ell + 1) * D**ell * (2 * ebar) ** ((ell - 1) // 2)
                    )
                    yield None if mixed <= bound else (
                        f"graph#{i} D={D} ell={ell}", g, mixed, bound
                    )

    return _seeded("cycle-mixed-copies-bound", seed, cases)


def check_tildeN11_bound(seed: int = 404, graphs: int = 18) -> CheckResult:
    """Copies confined to low-low edges against 2|low-low| D^(v-2)."""
    patterns = {
        "k3": complete(3),
        "c4": cycle(4),
        "k4": complete(4),
        "c5": cycle(5),
        "c6": cycle(6),
    }

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(5, 12)
            g = _random_graph(rng, nv, rng.choice([0.25, 0.4, 0.55]))
            for D in (2, 3):
                e11 = edge_partition(g, D).e11
                low_low = from_edge_list(nv, e11)
                for name, h in patterns.items():
                    confined = count_labelled(h, low_low)
                    bound = 2 * len(e11) * D ** (h.vertex_count - 2)
                    yield None if confined <= bound else (
                        f"graph#{i} D={D} pattern={name}", g, confined, bound
                    )

    return _seeded("low-degree-only-copies-bound", seed, cases)


def _bipartite_min_degree_host(
    rng: random.Random, a: int, b: int, dmin: int, extra: float
) -> Graph:
    """Bipartite graph on parts of size a and b with first-part min degree
    at least dmin, plus extra random cross edges.
    """
    edges = set()
    for u in range(a):
        for w in rng.sample(range(b), dmin):
            edges.add((u, a + w))
    for u in range(a):
        for w in range(b):
            if rng.random() < extra:
                edges.add((u, a + w))
    return from_edge_list(a + b, sorted(edges))


def check_small_count(seed: int = 505, rounds: int = 12) -> CheckResult:
    """Edge surplus over half the first-part degree floor bounds the copy
    count of regular bipartite patterns: (2e - Delta|U1|)^v >= N^2,
    compared in exact integers.
    """
    patterns = [
        ("c4", cycle(4)),
        ("c6", cycle(6)),
        ("k33", complete_bipartite(3, 3)),
        ("cube", cube_graph()),
        ("k44", complete_bipartite(4, 4)),
    ]

    def cases(rng):
        for name, h in patterns:
            d = h.max_degree()
            v = h.vertex_count
            for i in range(rounds):
                a = rng.randint(2, 5)
                b = rng.randint(max(d, 3), 7)
                g = _bipartite_min_degree_host(
                    rng, a, b, d, rng.choice([0.0, 0.2, 0.4])
                )
                n_copies = count_labelled(h, g)
                surplus = 2 * g.edge_count - d * a
                yield None if surplus >= 0 and n_copies**2 <= surplus**v else (
                    f"pattern={name} round={i} |U1|={a}", g, n_copies,
                    float(max(surplus, 0)) ** (v / 2),
                )

    return _seeded("bipartite-min-degree-edge-bound", seed, cases)


def _strong_core_suite() -> list[tuple[str, Graph, CoreParams]]:
    k3 = validate_pattern(complete(3))
    c4 = validate_pattern(cycle(4))
    out = []
    ctx1 = SparsityContext(2000, 0.0194)
    params1 = CoreParams(delta=1.0, eps=0.05, context=ctx1, pattern=k3)
    for m in (10, 25, 41, 50):
        g = from_edge_list(
            ctx1.n, [(i, j) for i in range(m) for j in range(i + 1, m)]
        )
        out.append((f"clique m={m} n={ctx1.n} p={ctx1.p}", g, params1))
    ctx2 = SparsityContext(100, 0.05)
    params2 = CoreParams(delta=1.0, eps=0.05, context=ctx2, pattern=c4)
    for b in (6, 15, 20):
        g = from_edge_list(
            ctx2.n, [(i, 2 + j) for i in range(2) for j in range(b)]
        )
        out.append((f"biclique 2x{b} n={ctx2.n} p={ctx2.p}", g, params2))
    return out


def check_degree_product_strong_core(
    suite: list[tuple[str, Graph, CoreParams]] | None = None,
) -> CheckResult:
    """On accepted strong cores every edge's endpoint degree product must
    clear the explicit floor constant times n^2 p^Delta; the per-edge copy
    bound feeding that argument is asserted alongside. Non-accepted
    instances are skipped as premise failures.
    """
    if suite is None:
        suite = _strong_core_suite()
    violations = []
    observations = []
    instances = 0
    for tag, g, params in suite:
        h = params.pattern
        report = count_with_edges(h, g)
        witness = _rung(g, params, "strong-core", report)
        if not witness:
            observations.append(
                f"skipped (not a strong core, {witness.violated_clause}): {tag}"
            )
            continue
        instances += 1
        floor = degree_product_floor(params) * params.edge_scale
        scale = 4 * h.e_h * (2 * g.edge_count) ** (
            h.v_h / 2 - (2 * h.delta - 1) / h.delta
        )
        power = (h.delta - 1) / h.delta
        degree = g.degrees()
        for (u, v), through in report.per_edge.items():
            prod = degree[u] * degree[v]
            if prod < floor:
                violations.append((f"{tag} edge=({u},{v})", float(prod), floor))
            per_edge_cap = scale * (4 * prod) ** power
            if through > per_edge_cap:
                violations.append(
                    (f"{tag} edge=({u},{v}) copy-cap", float(through), per_edge_cap)
                )
    return CheckResult(
        "strong-core-degree-product", instances, violations, observations
    )


# ---------------------------------------------------------------------------
# exploratory and design-decision checkers


def check_seqcounting_exploratory() -> CheckResult:
    """Reports, without gating, whether hosts holding many copies through
    low-low edges under the stated edge budget also show the predicted
    mixed-edge volume. The driving statement is asymptotic, so a failed
    implication at desk scale is an observation, not a violation.
    """
    observations = []
    count = 0
    for tag, g, params, tau, c_n in _seqcounting_suite():
        count += 1
        h = params.pattern
        ctx = params.context
        budget_ok = g.edge_count <= c_n * params.core_edge_budget
        n11, _, _ = count_N11(g=g, h=h, D=params.degree_threshold)
        lower_ok = n11 >= (c_n / 2) * tau * ctx.copies_scale(h)
        ebar = _mixed_edges(g, params.degree_threshold)
        target = (float(ctx.n) ** 2 * ctx.p**2) ** (1 + 1 / (4 * (h.v_h - 1)))
        if not (budget_ok and lower_ok):
            observations.append(
                f"{tag}: premise false (budget_ok={budget_ok}, "
                f"copies_ok={lower_ok}); vacuously consistent"
            )
        elif ebar >= target:
            observations.append(
                f"{tag}: premise and conclusion both hold "
                f"(mixed={ebar}, target={target:.3f})"
            )
        else:
            observations.append(
                f"{tag}: premise holds, conclusion short at finite scale "
                f"(mixed={ebar}, target={target:.3f})"
            )
    return CheckResult("tail-threshold-exploratory", count, [], observations)


def _seqcounting_suite() -> list[tuple[str, Graph, CoreParams, float, float]]:
    k3 = validate_pattern(complete(3))
    ctx = SparsityContext(100, 0.02)
    # eps picked so the degree threshold (54) separates the fan hubs
    # (degree 59, high) from triangle vertices (degree 2, low)
    params = CoreParams(delta=1.0, eps=0.6, context=ctx, pattern=k3)
    out = []
    tri_edges = []
    for t in range(3):
        base = 3 * t
        tri_edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    out.append(
        ("disjoint triangles", from_edge_list(ctx.n, tri_edges), params, 1.0, 1.0)
    )
    hub_edges = [(0, j) for j in range(1, 60)] + [(1, j) for j in range(2, 60)]
    out.append(
        ("two-hub fan", from_edge_list(ctx.n, hub_edges), params, 1.0, 1.0)
    )
    return out


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _hub_ring_graph(k: int) -> Graph:
    """Clique of k hubs plus a 2k-cycle of degree-3 vertices, each ring
    vertex tied to one hub; mixed edge volume grows quadratically in k
    while mixed cycle copies grow linearly.
    """
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    ring = [k + i for i in range(2 * k)]
    for i in range(2 * k):
        edges.append((ring[i], ring[(i + 1) % (2 * k)]))
        edges.append((ring[i], i % k))
    return from_edge_list(3 * k, edges)


def check_mixed_growth_exponent(ks: tuple[int, ...] = (5, 7, 9, 11)) -> CheckResult:
    """Fits the growth of mixed cycle copies against the mixed edge count
    on a nested family and insists the exponent stays within a quarter of
    half the cycle order minus one.
    """
    D = 3
    violations = []
    observations = []
    instances = 0
    hosts = [(g, _mixed_edges(g, D)) for g in map(_hub_ring_graph, ks)]
    for ell in (4, 6):
        c = cycle(ell)
        xs, ys = [], []
        for g, ebar in hosts:
            _, _, mixed = count_N11(c, g, D)
            if mixed > 0 and ebar > 0:
                xs.append(log(2 * ebar))
                ys.append(log(mixed))
        instances += 1
        if len(xs) < 3:
            observations.append(f"cycle length {ell}: insufficient data points")
            continue
        slope = _fit_slope(xs, ys)
        cap = ell / 2 - 1 + 0.25
        observations.append(f"cycle length {ell}: fitted exponent {slope:.3f}")
        if slope > cap:
            violations.append((f"cycle length {ell} family", slope, cap))
    return CheckResult(
        "mixed-copy-growth-exponent", instances, violations, observations
    )


# The checker registry: (key for the --lemma filter, checker name, seed
# offset, size keyword). Seeded suites run with seed offset + seed and, when
# trials is nonzero, that many instances. Checkers are looked up by name at
# call time, so a replaced module attribute is the one that runs. "tail" is
# exploratory and never gates.
CHECKS = (
    ("alpha", "check_alpha_count_bound", 101, "graphs"),
    ("path", "check_path_lemma", 202, "graphs"),
    ("cycle", "check_cycle_barN11", 303, "graphs"),
    ("low-degree", "check_tildeN11_bound", 404, "graphs"),
    ("bipartite", "check_small_count", 505, "rounds"),
    ("strong-core", "check_degree_product_strong_core", None, None),
    ("growth", "check_mixed_growth_exponent", None, None),
    ("tail", "check_seqcounting_exploratory", None, None),
)


def run_all(
    seed: int = 0,
    trials: int = 0,
    lemma: str | None = None,
) -> list[CheckResult]:
    """Run every registered checker whose key contains ``lemma``; trials 0
    keeps each seeded suite's own size."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    results = []
    for key, name, offset, size in CHECKS:
        if lemma and lemma not in key:
            continue
        kwargs = {}
        if offset is not None:
            kwargs["seed"] = offset + seed
            if trials:
                kwargs[size] = trials
        results.append(globals()[name](**kwargs))
    return results
