"""Shared oracles and instance helpers.

The oracles here are deliberately naive reimplementations used to pin
the optimized library code: straight iteration over all maps or subsets,
no pruning, no bitmasks. The oracles that need adjacency read it from
``g.edges``, never from ``adjacency_masks``. Keep them slow and obviously
correct.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations, permutations, product
from math import perm
from pathlib import Path

import pytest

import regtail
from regtail.counting import _compile, _exists, count_labelled
from regtail.graphs import Graph, components, from_edge_list, span_of_edges


def edge_arcs(g: Graph) -> set:
    """Both orientations of every edge, read from ``g.edges``."""
    return {arc for u, v in g.edges for arc in ((u, v), (v, u))}


def oracle_injective_maps(h: Graph, g: Graph):
    """Every injective edge-preserving vertex map, as the tuple of images."""
    arcs = edge_arcs(g)
    for image in permutations(range(g.vertex_count), h.vertex_count):
        if all((image[a], image[b]) in arcs for a, b in h.edges):
            yield image


def oracle_count_injective(h: Graph, g: Graph) -> int:
    """All injective vertex maps, checked edge by edge."""
    return sum(1 for _ in oracle_injective_maps(h, g))


def _image_edges(h: Graph, image) -> tuple:
    return tuple(tuple(sorted((image[a], image[b]))) for a, b in h.edges)


def oracle_per_edge(h: Graph, g: Graph) -> dict:
    """For every host edge, the number of injective copies through it."""
    per = {e: 0 for e in g.edges}
    for image in oracle_injective_maps(h, g):
        for e in _image_edges(h, image):
            per[e] += 1
    return per


def oracle_count_through(h: Graph, g: Graph) -> dict:
    """For every host edge e, the per-edge counts of the copies through e;
    edges in no such copy are absent."""
    through: dict = {e: Counter() for e in g.edges}
    for image in oracle_injective_maps(h, g):
        edges = set(_image_edges(h, image))
        for e in edges:
            through[e].update(edges)
    return through


def oracle_peel(h: Graph, g: Graph, threshold: float) -> frozenset:
    """Edges left after dropping every edge in fewer than ``threshold``
    copies, round after round, until no edge drops."""
    edges = set(g.edges)
    while True:
        per = oracle_per_edge(h, from_edge_list(g.vertex_count, edges))
        thin = {e for e, k in per.items() if k < threshold}
        if not thin:
            return frozenset(edges)
        edges -= thin


def oracle_copy_edge_lists(h: Graph, g: Graph) -> Counter:
    """Multiset of the copies' edge lists, in the pattern's edge order."""
    return Counter(_image_edges(h, image) for image in oracle_injective_maps(h, g))


def oracle_count_N11(h: Graph, g: Graph, D: int) -> tuple[int, int, int]:
    """Copies with some, and with only, edges whose endpoints have degree <= D."""
    low = {v for v in range(g.vertex_count) if g.degree(v) <= D}
    some = only = 0
    for image in oracle_injective_maps(h, g):
        flags = [u in low and v in low for u, v in _image_edges(h, image)]
        if any(flags):
            some += 1
            only += all(flags)
    return some, only, some - only


def oracle_low_low_masks(g: Graph, D: int) -> list[int]:
    """Adjacency masks of the host's edges whose endpoints both have degree
    at most D, degrees counted from the edge list."""
    degree = Counter(x for e in g.edges for x in e)
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        if degree[u] <= D and degree[v] <= D:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def oracle_philox_stream(seed: int, index: int):
    """Stream ``index`` of a base key as first defined: the base Philox4x64
    generator jumped ``index`` times."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def oracle_count_hom(h: Graph, g: Graph) -> int:
    """All vertex maps, repeats allowed."""
    arcs, total = edge_arcs(g), 0
    for image in product(range(g.vertex_count), repeat=h.vertex_count):
        if all((image[a], image[b]) in arcs for a, b in h.edges):
            total += 1
    return total


def oracle_independent_counts(g: Graph) -> list[int]:
    """Independent-set counts by size via subset enumeration."""
    n, edges = g.vertex_count, set(g.edges)
    counts = [0] * (n + 1)
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if all((u, v) not in edges for u, v in combinations(subset, 2)):
                counts[k] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def oracle_fractional_independence(g: Graph) -> Fraction:
    """Brute force over half-integral weight vectors; the optimum of the
    relaxation is always attained at one of them.
    """
    n = g.vertex_count
    best = Fraction(0)
    levels = (Fraction(0), Fraction(1, 2), Fraction(1))
    for weights in product(levels, repeat=n):
        if all(weights[u] + weights[v] <= 1 for u, v in g.edges):
            best = max(best, sum(weights))
    return best


def oracle_simple_paths(g: Graph, v1: int, v2: int, length: int) -> list[tuple]:
    """All simple paths from v1 to v2 with exactly `length` edges."""
    out, neighbours = [], [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)

    def walk(path: list[int]) -> None:
        if len(path) - 1 == length:
            if path[-1] == v2:
                out.append(tuple(path))
            return
        for w in neighbours[path[-1]]:
            if w not in path and (w != v2 or len(path) == length):
                walk(path + [w])

    if v1 != v2:
        walk([v1])
    return out


def oracle_subset_terms(g: Graph, h: Graph):
    """(|A|, v_A, N(span A, g)) for every pattern edge subset A, one by one.

    N comes from count_labelled, which oracle_count_injective pins; this
    oracle checks the grouping of subsets, not the kernel.
    """
    for size in range(h.edge_count + 1):
        for chosen in combinations(h.edges, size):
            span = span_of_edges(chosen)
            yield size, span.vertex_count, count_labelled(span, g)


def oracle_conditional_expectation(g: Graph, h: Graph, n: int, p) -> Fraction:
    """The subset-sum identity with every subset counted on its own,
    in exact arithmetic."""
    p = Fraction(p)
    q = 1 / p - 1
    v_h = h.vertex_count
    total = Fraction(0)
    for size, va, cnt in oracle_subset_terms(g, h):
        total += q**size * cnt * perm(n - va, v_h - va)
    return p**h.edge_count * total


def oracle_conditional_gain(g: Graph, h: Graph, n: int, p: float) -> float:
    """First-order surplus with every nonempty subset counted on its own."""
    v_h, e_h = h.vertex_count, h.edge_count
    return sum(
        cnt * (1.0 - p**size) * float(n) ** (v_h - va) * p ** (e_h - size)
        for size, va, cnt in oracle_subset_terms(g, h)
        if size
    )


def oracle_edge_orbits(h: Graph) -> list[frozenset[int]]:
    """Orbits of the automorphism group on edge masks, with the group found
    by trying every vertex permutation."""
    index = {e: i for i, e in enumerate(h.edges)}
    perms = []
    for image in permutations(range(h.vertex_count)):
        mapped = [tuple(sorted((image[u], image[v]))) for u, v in h.edges]
        if all(e in index for e in mapped):
            perms.append([index[e] for e in mapped])
    orbits = {
        frozenset(
            sum(1 << s[i] for i in range(h.edge_count) if mask >> i & 1)
            for s in perms
        )
        for mask in range(1 << h.edge_count)
    }
    return sorted(orbits, key=min)


def oracle_canonical_form(g: Graph) -> int:
    """The least edge mask over all vertex permutations, with the pair
    {a, b}, a < b, at bit a * n + b."""
    n = g.vertex_count
    bit = [[1 << (min(a, b) * n + max(a, b)) for b in range(n)] for a in range(n)]
    return min(
        sum(bit[pi[u]][pi[v]] for u, v in g.edges)
        for pi in permutations(range(n))
    )


def oracle_connected_catalogue(max_vertices: int) -> list[Graph]:
    """For each order 2..max_vertices, the first connected graph of each
    isomorphism class in edge-mask order, deduplicated by canonical form."""
    out = []
    for k in range(2, max_vertices + 1):
        pairs = list(combinations(range(k), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            g = from_edge_list(
                k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            )
            if not g.is_connected():
                continue
            canon = oracle_canonical_form(g)
            if canon not in seen:
                seen.add(canon)
                out.append(g)
    return out


def random_graph(rng: random.Random, nv: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < p
    ]
    return from_edge_list(nv, edges)


def random_connected_graph(rng: random.Random, nv: int, p: float) -> Graph:
    """Random spanning tree plus density-p extra edges."""
    order = list(range(nv))
    rng.shuffle(order)
    edges = {
        tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, nv)
    }
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < p:
                edges.add((u, v))
    return from_edge_list(nv, sorted(edges))


def random_regular_graph(rng: random.Random, nv: int, d: int) -> Graph:
    """Connected d-regular graph on nv vertices by the configuration model:
    pair nv * d shuffled stubs, and draw again on a loop, a repeated pair
    or a disconnected result."""
    while True:
        stubs = [v for v in range(nv) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(p)) for p in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == nv * d // 2 and all(a != b for a, b in pairs):
            g = from_edge_list(nv, sorted(pairs))
            if g.is_connected():
                return g


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.vertex_count
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return from_edge_list(g1.vertex_count + g2.vertex_count, edges)


def random_regular_bipartite(delta: int, m: int, rng_seed: int) -> Graph:
    """Delta-regular bipartite graph on m + m vertices.

    Union of delta random permutation matchings between the sides;
    resampled whenever two matchings collide on a pair.
    """
    if delta < 1 or m < 1:
        raise ValueError(f"delta and m must be positive, got ({delta}, {m})")
    if delta > m:
        raise ValueError(f"delta {delta} exceeds side size {m}")
    rng = random.Random(rng_seed)
    while True:
        pairs: set[tuple[int, int]] = set()
        ok = True
        for _ in range(delta):
            perm = list(range(m))
            rng.shuffle(perm)
            for i in range(m):
                e = (i, m + perm[i])
                if e in pairs:
                    ok = False
                    break
                pairs.add(e)
            if not ok:
                break
        if ok:
            return from_edge_list(2 * m, sorted(pairs))


def same_regular_class(a: Graph, b: Graph) -> bool:
    """Isomorphism of two d-regular graphs of order n: an injective
    edge-preserving map of a into b sends its edges onto all edges of b, so
    it is an isomorphism, and the kernel's search stops at the first one."""
    return _exists(_compile(a), b.adjacency_masks) is not None


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


def _first_of_each_class(candidates: Iterable[Graph]) -> list[Graph]:
    """The first candidate of each isomorphism class, in enumeration order.

    Candidates are bucketed by ``_mask_invariant``; only candidates in one
    bucket are tested against each other, each bucket's representative as
    the kernel's pattern, so its plan is reused.
    """
    buckets: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for g in candidates:
        bucket = buckets.setdefault(_mask_invariant(g), [])
        if not any(same_regular_class(rep, g) for rep in bucket):
            bucket.append(g)
            out.append(g)
    return out


def connected_regular_graphs(n: int, d: int) -> list[Graph]:
    """One representative per isomorphism class of connected d-regular
    graphs on n vertices; it generated ``data/regular_graphs_frozen.json``.

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


def format_edge_list(g: Graph) -> str:
    """The edge-list text ``parse_edge_list`` reads: "n m", then "u v" lines."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def forbid_kernel(monkeypatch) -> None:
    """Make the conditional expectation's kernel calls fail, so a test can
    show that a closed-form count served every term."""
    import regtail.ratefn as ratefn

    def kernel(*args):
        raise AssertionError("count_labelled called")

    monkeypatch.setattr(ratefn, "count_labelled", kernel)


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports this regtail, with
    ``args`` as ``sys.argv[1:]``, and return its stdout; it must exit 0."""
    src = Path(regtail.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, check=True,
    )
    return out.stdout


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
