"""Independence polynomials and the tilted-root transform.

The polynomial of a graph is sum_k i(k) x^k where i(k) counts independent
sets of size k, so i(0) = 1. The solver finds the unique positive x with
P(x) = 1 + delta; P is strictly increasing on [0, inf) with P(0) = 1, so
the root exists and is simple whenever the graph has at least one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, PatternGraph, as_graph


class GraphTooLargeError(ValueError):
    pass


def independent_set_counts(g: Graph | PatternGraph) -> list[int]:
    """Coefficients i(0..alpha) of the independence polynomial.

    Meet-in-the-middle: exact subset DP on each half, then for every
    independent set of the first half, count independent subsets of the
    second half avoiding its neighborhood.
    """
    g = as_graph(g)
    n = g.vertex_count
    if n > 24:
        raise GraphTooLargeError(f"{n} vertices; exhaustive enumeration capped at 24")
    if n == 0:
        return [1]
    half = n // 2
    left = list(range(half))
    right = list(range(half, n))
    masks = g.adjacency_masks

    def half_tables(verts: list[int]) -> tuple[list[int], list[list[int]]]:
        """indep[mask] = 1 if mask is independent; profile[mask] = size counts."""
        m = len(verts)
        size = 1 << m
        indep = [False] * size
        indep[0] = True
        popcnt = [0] * size
        for mask in range(1, size):
            lsb = mask & -mask
            i = lsb.bit_length() - 1
            rest = mask ^ lsb
            popcnt[mask] = popcnt[rest] + 1
            if not indep[rest]:
                continue
            v = verts[i]
            conflict = False
            for j in range(m):
                if rest >> j & 1 and verts[j] in g.adjacency[v]:
                    conflict = True
                    break
            indep[mask] = not conflict
        return popcnt, indep

    lp, lind = half_tables(left)
    rp, rind = half_tables(right)

    # for each right mask, which right vertices are blocked by adjacency to it
    blocked_by_left: list[int] = []
    for lmask in range(1 << len(left)):
        if not lind[lmask]:
            blocked_by_left.append(0)
            continue
        nb = 0
        mm = lmask
        while mm:
            b = mm & -mm
            mm ^= b
            nb |= masks[left[b.bit_length() - 1]]
        rblock = 0
        for j, v in enumerate(right):
            if nb >> v & 1:
                rblock |= 1 << j
        blocked_by_left.append(rblock)

    # counts_by_size[rmask restrictions] would blow up; instead accumulate
    # per left mask by DP over allowed right subsets, memoized on the block
    # pattern since many left sets block the same right vertices
    rcount_cache: dict[int, list[int]] = {}

    def right_counts(rblock: int) -> list[int]:
        got = rcount_cache.get(rblock)
        if got is not None:
            return got
        out = [0] * (len(right) + 1)
        avail = ((1 << len(right)) - 1) ^ rblock
        sub = avail
        while True:
            if rind[sub]:
                out[rp[sub]] += 1
            if sub == 0:
                break
            sub = (sub - 1) & avail
        rcount_cache[rblock] = out
        return out

    coeffs = [0] * (n + 1)
    for lmask in range(1 << len(left)):
        if not lind[lmask]:
            continue
        base = lp[lmask]
        for k, c in enumerate(right_counts(blocked_by_left[lmask])):
            if c:
                coeffs[base + k] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def independence_polynomial(g: Graph | PatternGraph, x: float | Fraction):
    """Evaluate the independence polynomial at x by Horner's rule."""
    return _poly_eval(independent_set_counts(g), x)


def _poly_eval(coeffs: list[int], x: float | Fraction) -> float | Fraction:
    # the int start keeps a Fraction x exact; with a float x, 0 * x is 0.0 * x
    acc: float | Fraction = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv_eval(coeffs: list[int], x: float) -> float:
    acc = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


def tilted_root(g: Graph | PatternGraph, delta: float) -> float:
    """The positive x solving P(x) = 1 + delta.

    Bisection on a doubling bracket down to near machine width, then a few
    Newton steps to polish. Residual |P(x) - (1 + delta)| stays within
    1e-12 * (1 + delta).
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    coeffs = independent_set_counts(g)
    if len(coeffs) < 2:
        raise ValueError("graph has no vertices; polynomial is constant 1")
    target = 1.0 + delta
    hi = 1.0
    while _poly_eval(coeffs, hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _poly_eval(coeffs, mid) < target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(5):
        fx = _poly_eval(coeffs, x) - target
        dfx = _poly_deriv_eval(coeffs, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        nxt = x - step
        if nxt <= 0.0:
            break
        x = nxt
        if abs(step) <= 1e-16 * max(x, 1.0):
            break
    return x


@dataclass(frozen=True)
class FractionalIndependence:
    """Maximum of sum x_v over vertex weights in {0, 1/2, 1} with
    x_u + x_v <= 1 on every edge. Half-integral search is lossless here:
    the fractional vertex-packing polytope has half-integral extreme
    points, so the optimum is attained on this grid.
    """

    value: Fraction
    witness: tuple[Fraction, ...]


def fractional_independence(g: Graph | PatternGraph) -> FractionalIndependence:
    g = as_graph(g)
    n = g.vertex_count
    if n > 16:
        raise GraphTooLargeError(f"{n} vertices; half-integral search capped at 16")
    if n == 0:
        return FractionalIndependence(Fraction(0), ())

    # search in half-units: 2 = weight 1, 1 = weight 1/2, 0 = excluded;
    # connectivity-first order keeps edge checks early and pruning tight
    comps = sorted(g.connected_components(), key=lambda c: (-len(c), c))
    order: list[int] = []
    seen: set[int] = set()
    for comp in comps:
        queue = [min(comp)]
        seen.add(queue[0])
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(g.adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        tuple(pos[w] for w in g.adjacency[v] if pos[w] < i)
        for i, v in enumerate(order)
    ]
    units = [0] * n
    best_units = -1
    best_assign: list[int] = []

    def rec(i: int, acc: int) -> None:
        nonlocal best_units, best_assign
        if acc + 2 * (n - i) <= best_units:
            return
        if i == n:
            best_units = acc
            best_assign = units.copy()
            return
        for u in (2, 1, 0):
            ok = True
            if u:
                for j in earlier[i]:
                    if units[j] + u > 2:
                        ok = False
                        break
            if ok:
                units[i] = u
                rec(i + 1, acc + u)
        units[i] = 0

    rec(0, 0)
    witness = [Fraction(0)] * n
    for i, v in enumerate(order):
        witness[v] = Fraction(best_assign[i], 2)
    return FractionalIndependence(Fraction(best_units, 2), tuple(witness))
