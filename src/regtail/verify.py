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
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator
from itertools import combinations, product
from math import log

from .counting import (
    count_labelled,
    count_N11,
    count_paths_signed,
    count_with_edges,
)
from .graphs import (
    Graph,
    SparsityContext,
    complete,
    complete_bipartite,
    components,
    cycle,
    from_edge_list,
    validate_pattern,
)
from .independence import fractional_independence
from .structures import (
    CoreParams,
    _rung,
    degree_product_floor,
    edge_partition,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    instances: int
    violations: list[tuple[str, float, float]]
    observations: list[str] = field(default_factory=list)

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


def connected_graphs_up_to(max_vertices: int) -> list[Graph]:
    """All connected graphs with 2..max_vertices vertices, one per
    isomorphism class: the first of each class in edge-mask order.
    """
    out: list[Graph] = []
    for k in range(2, max_vertices + 1):
        pairs = list(combinations(range(k), 2))
        subsets = (
            [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            for mask in range(1 << len(pairs))
        )
        graphs = (from_edge_list(k, e) for e in subsets if len(e) >= k - 1)
        out += _first_of_each_class(g for g in graphs if g.is_connected())
    return out


def cube_graph() -> Graph:
    edges = [
        (i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)
    ]
    return from_edge_list(8, edges)


def _mask_invariant(g: Graph) -> tuple:
    """Cheap isomorphism-invariant fingerprint used to bucket candidates:
    order, size, and the sorted triangle and co-degree counts."""
    n, masks = g.vertex_count, g.adjacency_masks
    tri = [0] * n
    codeg = []
    for u in range(n):
        mu = masks[u]
        for w in range(u + 1, n):
            c = (mu & masks[w]).bit_count()
            codeg.append(c)
            if (mu >> w) & 1:
                tri[u] += c
                tri[w] += c
    codeg.sort()
    return (n, g.edge_count, tuple(sorted(tri)), tuple(codeg))


def _isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism by the counting kernel: with equal order and size, an
    injective edge-preserving map sends the edges of a onto all edges of b,
    so it is an isomorphism. Equal degree multisets give equal numbers of
    isolated vertices, so both sides drop theirs before the search.
    """
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    return count_labelled(a.relabelled_span(), b.relabelled_span()) > 0


def _first_of_each_class(candidates: Iterable[Graph]) -> list[Graph]:
    """The first candidate of each isomorphism class, in enumeration order.

    Candidates are bucketed by ``_mask_invariant``; only candidates in one
    bucket are tested against each other.
    """
    buckets: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for g in candidates:
        bucket = buckets.setdefault(_mask_invariant(g), [])
        # the rep is the kernel's pattern, so its search plan is reused
        if not any(_isomorphic(rep, g) for rep in bucket):
            bucket.append(g)
            out.append(g)
    return out


# Only tests call this, but it stays here: it generated
# tests/data/regular_graphs_frozen.json, and it shares _first_of_each_class
# with connected_graphs_up_to, so moving it would fork the dedup.
def connected_regular_graphs(n: int, d: int) -> list[Graph]:
    """One representative per isomorphism class of connected d-regular
    graphs on n vertices.

    Enumerates labelled graphs whose first vertex is joined to exactly the
    next d (every class admits such a labelling) and keeps the first
    connected one of each class.
    """
    if n < 2 or d < 1 or d >= n or (n * d) % 2:
        return []
    masks = [0] * n
    for w in range(1, d + 1):
        masks[0] |= 1 << w
        masks[w] |= 1

    def toggle(v: int, chosen: tuple[int, ...]) -> None:
        for w in chosen:
            masks[v] ^= 1 << w
            masks[w] ^= 1 << v

    def extend(v: int) -> Iterator[Graph]:
        if v == n:
            # connected iff vertex 0's component is every vertex
            if next(components(masks))[0] == (1 << n) - 1:
                yield from_edge_list(
                    n,
                    [(u, w) for u in range(n) for w in range(u + 1, n)
                     if (masks[u] >> w) & 1],
                )
            return
        need = d - masks[v].bit_count()
        if need == 0:
            yield from extend(v + 1)
            return
        lack = [d - masks[w].bit_count() for w in range(v + 1, n)]
        cands = [w for w, k in enumerate(lack, v + 1) if k]
        if need > len(cands):
            return
        # deficiency left above v after filling v; every later edge
        # consumes two units, so an odd remainder is a dead end, and a
        # single vertex must never hold more than half of it plus one
        after = sum(lack) - need
        if after % 2:
            return
        worst = max(lack)
        if worst - 1 > after - worst + 1:
            return
        for chosen in combinations(cands, need):
            toggle(v, chosen)
            yield from extend(v + 1)
            toggle(v, chosen)

    return _first_of_each_class(extend(1))


# ---------------------------------------------------------------------------
# gating checkers


def check_alpha_count_bound(seed: int = 101, graphs: int = 40) -> CheckResult:
    """Copy counts against the half-integral packing bound (2e)^alpha*.

    Compared as N^2 <= (2e)^(2 alpha*) in exact integers.
    """
    patterns = [
        (h, int(2 * fractional_independence(h).value))
        for h in connected_graphs_up_to(5)
    ]

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(2, 10)
            g = _random_graph(rng, nv, rng.choice([0.2, 0.4, 0.6, 0.8]))
            for h, alpha2 in patterns:
                n_copies = count_labelled(h, g)
                yield None if n_copies**2 <= (2 * g.edge_count) ** alpha2 else (
                    f"graph#{i} pattern={list(h.edges)}", g, n_copies,
                    (2 * g.edge_count) ** (alpha2 / 2),
                )

    return _seeded("alpha-count-bound", seed, cases)


def _path_bound(s: tuple[int, ...], D: int, ebar: int) -> int:
    ell = len(s)
    if any(s):
        return D**ell * (2 * ebar) ** (ell // 2)
    return D**ell


def check_path_lemma(
    seed: int = 202, graphs: int = 25, endpoint_pairs: int = 4
) -> CheckResult:
    """Signed path counts between fixed endpoints against the degree and
    mixed-edge bound; an all-zero signature walks only low-degree
    vertices, so its bound carries no mixed-edge factor.
    """

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(4, 12)
            g = _random_graph(rng, nv, rng.choice([0.2, 0.35, 0.5]))
            for D in (2, 3):
                ebar = _mixed_edges(g, D)
                pairs = [
                    (rng.randrange(nv), rng.randrange(nv))
                    for _ in range(endpoint_pairs)
                ]
                for ell in range(1, 6):
                    for s in product((0, 1), repeat=ell):
                        for v1, v2 in pairs:
                            if v1 == v2:
                                continue
                            got = count_paths_signed(g, s, v1, v2, D)
                            bound = _path_bound(s, D, ebar)
                            yield None if got <= bound else (
                                f"graph#{i} D={D} s={''.join(map(str, s))}"
                                f" v1={v1} v2={v2}", g, got, bound,
                            )

    return _seeded("path-signature-bound", seed, cases)


def check_cycle_barN11(seed: int = 303, graphs: int = 18) -> CheckResult:
    """Mixed cycle copies (some low-low edge, some other edge) against the
    closed-form bound in the mixed edge count.
    """

    def cases(rng):
        for i in range(graphs):
            nv = rng.randint(5, 12)
            g = _random_graph(rng, nv, rng.choice([0.25, 0.4, 0.55]))
            for D in (2, 3):
                ebar = _mixed_edges(g, D)
                for ell in range(3, 7):
                    _, _, mixed = count_N11(cycle(ell), g, D)
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
        for (u, v), through in report.per_edge.items():
            prod = g.degree(u) * g.degree(v)
            if prod < floor:
                violations.append((f"{tag} edge=({u},{v})", float(prod), floor))
            per_edge_cap = (
                4
                * h.e_h
                * (2 * g.edge_count) ** (h.v_h / 2 - (2 * h.delta - 1) / h.delta)
                * (4 * prod) ** ((h.delta - 1) / h.delta)
            )
            if through > per_edge_cap:
                violations.append(
                    (f"{tag} edge=({u},{v}) copy-cap", float(through), per_edge_cap)
                )
    return CheckResult(
        "strong-core-degree-product", instances, violations, observations
    )


# ---------------------------------------------------------------------------
# exploratory and design-decision checkers


def check_seqcounting_exploratory(
    instances_in: list[tuple[str, Graph, CoreParams, float, float]] | None = None,
) -> CheckResult:
    """Reports, without gating, whether hosts holding many copies through
    low-low edges under the stated edge budget also show the predicted
    mixed-edge volume. The driving statement is asymptotic, so a failed
    implication at desk scale is an observation, not a violation.
    """
    if instances_in is None:
        instances_in = _seqcounting_suite()
    observations = []
    count = 0
    for tag, g, params, tau, c_n in instances_in:
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
    for ell in (4, 6):
        xs, ys = [], []
        for k in ks:
            g = _hub_ring_graph(k)
            ebar = _mixed_edges(g, D)
            _, _, mixed = count_N11(cycle(ell), g, D)
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
    include_exploratory: bool = True,
) -> list[CheckResult]:
    """Run every registered checker whose key contains ``lemma``."""
    results = []
    for key, name, offset, size in CHECKS:
        if (lemma and lemma not in key) or (key == "tail" and not include_exploratory):
            continue
        kwargs = {}
        if offset is not None:
            kwargs["seed"] = offset + seed
            if trials:
                kwargs[size] = trials
        results.append(globals()[name](**kwargs))
    return results
