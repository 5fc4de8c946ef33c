"""Seedable random-graph sampling and Monte Carlo estimators.

Counter-based RNG: trial i draws from the Philox4x64 stream of the base key
with counter [0, 0, i mod 2^64, i >> 64], which is the base stream jumped i
times, so estimates do not depend on evaluation order and rerunning any
single trial reproduces it bit for bit. A run sets one generator's counter
before each trial.

Cycles of order v at most 7 on 2(v - 1) to 64 vertices are counted from
their homomorphism basis, inj(H, G) = sum over set partitions pi of V(H) of
mu(0, pi) hom(H/pi, G): a block of trials is scattered into a float64
(block, n, n) adjacency stack and each quotient is contracted by einsum.
Every other pattern and n counts the kept pairs as adjacency masks by
``counting._injective``, as ``count_labelled`` does. Both give the same
integer per trial. Count reduction is exact integer summation, converted
to float once. Only the CLI's ``simulate`` verb imports this module, and
with it numpy.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import islice
from math import factorial, prod, sqrt

import numpy as np

from .counting import _injective
from .graphs import Graph, PatternGraph, SparsityContext, _canon, from_edge_list

# Largest n the sampler draws on. Its pair table holds n(n-1)/2 rows, so an
# untrusted n is capped here before that table is built.
MAX_SAMPLE_VERTICES = 2000

# Cycles up to this order are counted from their homomorphism basis. C8
# already has a K4 quotient, whose contraction costs n^4 per trial.
BASIS_MAX_ORDER = 7
# The basis serves samples of at most this many vertices, and of at least
# 2(v(H) - 1). Milliseconds per trial, kernel / basis, best of 3 runs of 64
# or more trials after a warm-up call (numpy 2.4, OpenBLAS 0.3.31, 2-vCPU
# Xeon VM; the kernel reads its last level inside the one before it):
#
#   pattern  n=8,p=.3     n=16,p=.3    n=30,p=.2    n=64,p=.1    n=100,p=.05
#   K3       0.026/0.009  0.059/0.013  0.114/0.039  0.225/0.110  0.313/0.233
#   C4       0.031/0.011  0.107/0.022  0.249/0.061  0.526/0.280  0.763/0.353
#   C5       0.034/0.020  0.249/0.040  0.539/0.172  2.300/0.658  1.842/1.103
#   C6       0.028/0.062  0.531/0.131  1.977/0.485  10.00/3.893  10.39/5.269
#   C7       0.038/0.222  2.021/0.679  13.35/2.941  64.19/14.01  30.97/22.17
#
# and at p = .3 near the lower bound:
#
#   pattern  n=9          n=10         n=11         n=12         n=13
#   C5       0.058/0.032  0.081/0.035  0.099/0.041  0.128/0.046  0.160/0.041
#   C6       0.073/0.105  0.120/0.117  0.166/0.128  0.225/0.149  0.332/0.166
#   C7       0.078/0.331  0.154/0.444  0.271/0.435  0.400/0.519  0.646/0.564
#
# The basis wins every row from n = 16 on. Below 2(v(H) - 1) vertices the
# kernel wins (C6 at n = 8 and 9, C7 up to n = 11), and C7 crosses at
# n = 12: the kernel leads at p = .3, the basis at p = .35 (0.370 ms
# against 0.411). A sparser sample favours the kernel longer, but the rule
# reads only v(H) and n, so it takes the crossing of dense samples. Above
# n = 64 a matrix product exceeds OpenBLAS's 64^3 single-thread GEMM limit,
# and threaded GEMM was seen to stall at 24 ms a call for about a second,
# so the basis stops there.
BASIS_MAX_VERTICES = 64
# Every einsum intermediate counts partial maps, at most n^v(H) of them, so
# float64 holds each one exactly.
assert BASIS_MAX_VERTICES**BASIS_MAX_ORDER < 2**53
# Adjacency entries in one block of trials; the block never grows with the
# trial count.
BLOCK_ENTRIES = 2**12


class RngSpec(namedtuple("RngSpec", "seed")):
    """Base key of the Philox4x64 streams."""

    __slots__ = ()

    def stream(self, index: int) -> np.random.Generator:
        if not 0 <= index < 2**128:
            raise ValueError(f"stream index must lie in [0, 2**128), got {index}")
        # words 2 and 3 of one int; numpy rounds a list word >= 2**63
        bits = np.random.Philox(key=self.seed, counter=operator.index(index) << 128)
        return np.random.Generator(bits)


def _streams(spec: RngSpec, indices):
    """One generator, reset to the start of ``spec.stream(t)`` for each t."""
    gen = spec.stream(0)
    state = gen.bit_generator.state  # at a stream start, buffer empty
    for t in indices:
        state["state"]["counter"] = [0, 0, t % 2**64, t >> 64]
        gen.bit_generator.state = state
        yield gen


def _spec(rng: RngSpec | int) -> RngSpec:
    """The RngSpec of ``rng``; a Philox key outside [0, 2**128) is refused."""
    spec = rng if isinstance(rng, RngSpec) else RngSpec(int(rng))
    if not 0 <= spec.seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {spec.seed}")
    return spec


class McEstimate(namedtuple("McEstimate", "mean std_error trials")):
    """Sample mean of a count over ``trials`` trials, with its standard
    error."""

    __slots__ = ()


def _estimate(values: list[int]) -> McEstimate:
    t = len(values)
    mean = sum(values) / t
    var = sum((x - mean) ** 2 for x in values) / (t - 1)
    return McEstimate(mean=mean, std_error=sqrt(var / t), trials=t)


def _pairs(n: int) -> np.ndarray:
    return np.column_stack(np.triu_indices(n, k=1))


def _check_gnp(n: int, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > MAX_SAMPLE_VERTICES:
        raise ValueError(
            f"n={n} exceeds the sampling limit of {MAX_SAMPLE_VERTICES} vertices"
        )


def _kept_pairs(gen: np.random.Generator, pairs: np.ndarray, p: float) -> list:
    """Each row of ``pairs``, kept with probability p by the next draws of gen."""
    return pairs[gen.random(len(pairs)) < p].tolist()


def sample_gnp(n: int, p: float, rng: RngSpec | int, index: int = 0) -> Graph:
    """One draw of the n-vertex binomial random graph, from stream ``index``."""
    _check_gnp(n, p)
    return from_edge_list(n, _kept_pairs(_spec(rng).stream(index), _pairs(n), p))


def _takes_basis(h: Graph, n: int) -> bool:
    """Whether trials of h on n vertices are counted from the homomorphism
    basis: cycles of order v at most BASIS_MAX_ORDER, on at least 2(v - 1)
    and at most BASIS_MAX_VERTICES vertices. Reads the pattern's size and
    degree only: no partition is enumerated for a trial counted on masks."""
    return (
        h.max_degree() == 2
        and h.vertex_count <= BASIS_MAX_ORDER
        and 2 * (h.vertex_count - 1) <= n <= BASIS_MAX_VERTICES
    )


def _set_partitions(k: int):
    """Every set partition of range(k), as the block label of each element;
    blocks are numbered in the order of their least elements."""
    labels = [0] * k

    def rec(i: int, blocks: int):
        if i == k:
            yield tuple(labels)
            return
        for b in range(blocks + 1):
            labels[i] = b
            yield from rec(i + 1, max(blocks, b + 1))

    yield from rec(0, 0)


def _hom_basis(h: Graph) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """inj(h, G) = sum of weight * hom(quotient, G) over these terms.

    Each set partition pi of V(h) with no edge inside a block contributes its
    quotient h/pi with the Moebius weight mu(0, pi) = prod over blocks B of
    (-1)^(|B|-1) (|B|-1)! (Alon, Yuster & Zwick 1997; Curticapean, Dell &
    Marx 2017). A quotient is its edge tuple on the block labels, parallel
    edges collapsed, and identical quotients share one summed weight. The
    identity partition gives h itself with weight 1.
    """
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    for labels in _set_partitions(h.vertex_count):
        if any(labels[u] == labels[v] for u, v in h.edges):
            continue
        weight = prod(
            (-1) ** (size - 1) * factorial(size - 1)
            for size in Counter(labels).values()
        )
        quotient = tuple(sorted({_canon(labels[u], labels[v]) for u, v in h.edges}))
        terms[quotient] = terms.get(quotient, 0) + weight
    return tuple((q, w) for q, w in terms.items() if w)


def _block_size(n: int) -> int:
    """Trials per block: at most BLOCK_ENTRIES adjacency entries, at least one trial."""
    return max(1, BLOCK_ENTRIES // max(1, n * n))


_LABELS = "abcdefg"  # one einsum index per quotient vertex; "t" is the trial


@lru_cache(maxsize=16)
def _basis_plan(h: Graph) -> tuple[tuple[int, str, int, list], ...]:
    """(weight, einsum subscripts, operand count, contraction path) of each
    basis term. A path is chosen once, for one trial at the largest n the
    basis serves; choosing it at n <= 1 sent the optimal search through
    every order of the C7 quotients (14 s)."""
    shaped = np.broadcast_to(0.0, (1, BASIS_MAX_VERTICES, BASIS_MAX_VERTICES))
    plan = []
    for quotient, weight in _hom_basis(h):
        subscripts = ",".join("t" + _LABELS[a] + _LABELS[b] for a, b in quotient) + "->t"
        operands = (shaped,) * len(quotient)
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        plan.append((weight, subscripts, len(quotient), path))
    return tuple(plan)


def _basis_counts(
    h: Graph, n: int, p: float, trials: int, spec: RngSpec, planted: Graph | None
) -> list[int]:
    """Copy counts of h from its homomorphism basis, each block of trials a
    float64 (block, n, n) adjacency stack; every hom value is an integer
    below n^v(h) <= 2^53, so the floats are exact."""
    plan, block = _basis_plan(h), _block_size(n)
    pairs = _pairs(n)
    upper = pairs[:, 0] * n + pairs[:, 1]
    lower = pairs[:, 1] * n + pairs[:, 0]
    base = np.zeros((n, n))
    for u, v in planted.edges if planted is not None else ():
        base[u, v] = base[v, u] = 1.0
    keep = np.empty((block, len(pairs)), dtype=bool)
    stack = np.zeros((block, n * n))
    streams = _streams(spec, range(trials))
    counts: list[int] = []
    for start in range(0, trials, block):
        size = min(block, trials - start)
        for row, gen in zip(keep, islice(streams, size)):
            np.less(gen.random(len(pairs)), p, out=row)
        stack[:size, upper] = keep[:size]
        stack[:size, lower] = keep[:size]
        adj = stack[:size].reshape(size, n, n)
        np.maximum(adj, base, out=adj)
        totals = [0] * size
        for weight, subscripts, arity, path in plan:
            homs = np.einsum(subscripts, *(adj,) * arity, optimize=path)
            for t, hom in enumerate(homs.tolist()):
                totals[t] += weight * int(hom)
        counts.extend(totals)
    return counts


def _trial_counts(
    h: PatternGraph, n: int, p: float, trials: int, rng: RngSpec | int,
    planted: Graph | None = None,
) -> list[int]:
    """Copy counts of h in trials 0 .. trials-1, each sample unioned with
    ``planted`` when one is given. Cycles on small samples are counted from
    the homomorphism basis, every other case by ``_injective`` on adjacency
    masks; both give the same integers. The table's kernel column predates
    the closed walks for C3 to C5; ``_takes_basis`` keeps its range."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if planted is not None and planted.vertex_count != n:
        raise ValueError(
            f"planted graph has {planted.vertex_count} vertices, context has {n}"
        )
    _check_gnp(n, p)
    spec = _spec(rng)
    if _takes_basis(h, n):
        return _basis_counts(h, n, p, trials, spec, planted)
    base = planted.adjacency_masks if planted is not None else (0,) * n
    pairs, counts = _pairs(n), []
    for gen in _streams(spec, range(trials)):
        masks = list(base)
        for u, v in _kept_pairs(gen, pairs, p):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        counts.append(_injective(h, masks))
    return counts


def mc_mean_count(
    h: PatternGraph, n: int, p: float, trials: int, rng: RngSpec | int
) -> McEstimate:
    """Sample mean and standard error of the copy count of h."""
    return _estimate(_trial_counts(h, n, p, trials, rng))


def mc_conditional_mean(
    g: Graph,
    h: PatternGraph,
    ctx: SparsityContext,
    trials: int,
    rng: RngSpec | int,
) -> McEstimate:
    """Copy-count mean over samples unioned with the planted graph g."""
    return _estimate(_trial_counts(h, ctx.n, ctx.p, trials, rng, planted=g))


def upper_tail_frequency(
    h: PatternGraph,
    n: int,
    p: float,
    delta: float,
    trials: int,
    rng: RngSpec | int,
) -> McEstimate:
    """Empirical frequency of the copy count clearing (1+delta) n^v p^e.

    Direct Monte Carlo; informative only where the event is not rare.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    counts = _trial_counts(h, n, p, trials, rng)
    threshold = tail_threshold(h, n, p, delta)
    return _estimate([int(c >= threshold) for c in counts])


def tail_threshold(h: PatternGraph, n: int, p: float, delta: float) -> float:
    """(1 + delta) n^v p^e in plain floats; unlike copies_scale, p = 1 works."""
    return (1 + delta) * float(n) ** h.v_h * p**h.e_h
