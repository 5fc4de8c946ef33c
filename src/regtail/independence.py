"""Independence polynomials, the tilted-root transform and alpha*.

The polynomial of a graph is sum_k i(k) x^k where i(k) counts independent
sets of size k, so i(0) = 1. The solver finds the unique positive x with
P(x) = 1 + delta; P is strictly increasing on [0, inf) with P(0) = 1, so
the root exists and is simple whenever the graph has at least one vertex.

One memoized recursion over vertex bitmasks computes the polynomial. It
also gives the fractional independence number alpha*, through the
bipartite double cover: alpha*(G) = alpha(G x K2) / 2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graphs import Graph, double_cover


class GraphTooLargeError(ValueError):
    pass


def _independent_polys(masks: tuple[int, ...]) -> dict[int, list[int]]:
    """Independence-polynomial coefficients of induced subgraphs, keyed by
    vertex mask; the full mask is always a key.

    With v the lowest vertex of S, P(S) = P(S - v) + x P(S - N[v]). Every
    coefficient is positive, so len(P(S)) - 1 is alpha of S.
    """
    memo: dict[int, list[int]] = {0: [1]}

    def poly(s: int) -> list[int]:
        got = memo.get(s)
        if got is not None:
            return got
        low = s & -s
        left = poly(s ^ low)
        right = poly(s & ~(masks[low.bit_length() - 1] | low))
        out = left + [0] * (len(right) + 1 - len(left))
        for k, c in enumerate(right, 1):
            out[k] += c
        memo[s] = out
        return out

    poly((1 << len(masks)) - 1)
    return memo


def independent_set_counts(g: Graph) -> list[int]:
    """Coefficients i(0..alpha) of the independence polynomial."""
    n = g.vertex_count
    if n > 24:
        raise GraphTooLargeError(f"{n} vertices; exhaustive enumeration capped at 24")
    return _independent_polys(g.adjacency_masks)[(1 << n) - 1]


def independence_polynomial(g: Graph, x: float | Fraction):
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


def tilted_root(g: Graph, delta: float) -> float:
    """The positive x solving P(x) = 1 + delta.

    Bisection on a doubling bracket down to near machine width, then a few
    Newton steps to polish. Residual |P(x) - (1 + delta)| stays within
    1e-12 * (1 + delta).
    """
    if not delta > 0:
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


class FractionalIndependence(namedtuple("FractionalIndependence", "value witness")):
    """Maximum of sum x_v over vertex weights in [0, 1] with x_u + x_v <= 1
    on every edge, with a half-integral optimal witness.

    The fractional vertex-packing polytope has half-integral extreme
    points (Nemhauser & Trotter 1974), and the half-integral packings of G
    are the images of the independent sets I of the double cover G x K2
    under x_v = |I & {v, v'}| / 2. So alpha*(G) = alpha(G x K2) / 2. Both
    ``value`` and the entries of ``witness`` are Fractions.
    """

    __slots__ = ()


def fractional_independence(g: Graph) -> FractionalIndependence:
    n = g.vertex_count
    if n > 16:
        raise GraphTooLargeError(f"{n} vertices; half-integral search capped at 16")
    masks = double_cover(g).adjacency_masks
    memo = _independent_polys(masks)
    s = (1 << 2 * n) - 1
    value = Fraction(len(memo[s]) - 1, 2)
    witness = [Fraction(0)] * n
    # walk down one maximum independent set of the cover: the lowest vertex
    # w of S is in one iff alpha(S - N[w]) = alpha(S) - 1
    while s:
        w = (s & -s).bit_length() - 1
        rest = s & ~(masks[w] | 1 << w)
        if len(memo[rest]) == len(memo[s]) - 1:
            witness[w % n] += Fraction(1, 2)
            s = rest
        else:
            s ^= 1 << w
    return FractionalIndependence(value, tuple(witness))
