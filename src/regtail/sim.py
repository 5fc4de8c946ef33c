"""Seedable random-graph sampling and Monte Carlo estimators.

Counter-based RNG: trial i draws from the Philox4x64 stream of the base key
with counter [0, 0, i mod 2^64, i >> 64], which is the base stream jumped i
times, so estimates do not depend on evaluation order and rerunning any
single trial reproduces it bit for bit. A run sets one generator's counter
before each trial and feeds the kept pairs to the kernel as adjacency masks.
Count reduction is exact integer summation, converted to float once. Only
the CLI's ``simulate`` verb imports this module, and with it numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .counting import _compile, _search
from .graphs import Graph, PatternGraph, SparsityContext, from_edge_list

# Largest n the sampler draws on. Its pair table holds n(n-1)/2 rows, so an
# untrusted n is capped here before that table is built.
MAX_SAMPLE_VERTICES = 2000


@dataclass(frozen=True)
class RngSpec:
    """Base key of the Philox4x64 streams."""

    seed: int

    def stream(self, index: int) -> np.random.Generator:
        bits = np.random.Philox(key=self.seed, counter=_counter(index))
        return np.random.Generator(bits)


def _counter(index: int) -> list[int]:
    """Philox counter at the start of stream ``index``."""
    return [0, 0, index % 2**64, index >> 64]


def _streams(spec: RngSpec, indices):
    """One generator, reset to the start of ``spec.stream(t)`` for each t."""
    gen = spec.stream(0)
    state = gen.bit_generator.state  # at a stream start, buffer empty
    for t in indices:
        state["state"]["counter"] = _counter(t)
        gen.bit_generator.state = state
        yield gen


def _spec(rng: RngSpec | int) -> RngSpec:
    return rng if isinstance(rng, RngSpec) else RngSpec(int(rng))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


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


def _trial_counts(
    h: PatternGraph, n: int, p: float, trials: int, rng: RngSpec | int,
    planted: Graph | None = None,
) -> list[int]:
    """Copy counts of h in trials 0 .. trials-1, each sample unioned with
    ``planted`` when one is given."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if planted is not None and planted.vertex_count != n:
        raise ValueError(
            f"planted graph has {planted.vertex_count} vertices, context has {n}"
        )
    _check_gnp(n, p)
    base = planted.adjacency_masks if planted is not None else (0,) * n
    plan, pairs = _compile(h), _pairs(n)
    counts = []
    for gen in _streams(_spec(rng), range(trials)):
        masks = list(base)
        for u, v in _kept_pairs(gen, pairs, p):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        counts.append(_search(plan, masks))
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
    counts = _trial_counts(h, n, p, trials, rng)
    threshold = tail_threshold(h, n, p, delta)
    return _estimate([int(c >= threshold) for c in counts])


def tail_threshold(h: PatternGraph, n: int, p: float, delta: float) -> float:
    """(1 + delta) n^v p^e in plain floats; unlike copies_scale, p = 1 works."""
    return (1 + delta) * float(n) ** h.v_h * p**h.e_h
