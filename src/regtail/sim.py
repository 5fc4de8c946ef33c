"""Seedable random-graph sampling and Monte Carlo estimators.

Counter-based RNG: trial i draws from an independent Philox4x64 stream
jumped i times from the base key, so estimates do not depend on evaluation
order and rerunning any single trial reproduces it bit for bit. Count
reduction is exact integer summation, converted to float once. numpy is
imported on first use, so verbs that do not sample never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .counting import count_labelled
from .graphs import Graph, PatternGraph, SparsityContext, from_edge_list

if TYPE_CHECKING:
    import numpy as np

# Largest n the sampler draws on. Its pair table holds n(n-1)/2 rows, so an
# untrusted n is capped here before that table is built.
MAX_SAMPLE_VERTICES = 2000


@dataclass(frozen=True)
class RngSpec:
    """Base key of the Philox4x64 streams."""

    seed: int

    def stream(self, index: int) -> np.random.Generator:
        import numpy as np

        return np.random.Generator(np.random.Philox(key=self.seed).jumped(index))


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


_pair_cache: dict[int, np.ndarray] = {}


def _pairs(n: int) -> np.ndarray:
    got = _pair_cache.get(n)
    if got is None:
        import numpy as np

        got = _pair_cache[n] = np.column_stack(np.triu_indices(n, k=1))
    return got


def _check_gnp(n: int, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > MAX_SAMPLE_VERTICES:
        raise ValueError(
            f"n={n} exceeds the sampling limit of {MAX_SAMPLE_VERTICES} vertices"
        )


def _draw(n: int, p: float, spec: RngSpec, index: int, forced=None) -> Graph:
    """Stream ``index`` keeps each vertex pair with probability p; pairs
    marked in the boolean vector ``forced`` are kept regardless."""
    pairs = _pairs(n)
    keep = spec.stream(index).random(len(pairs)) < p
    if forced is not None:
        keep |= forced
    return from_edge_list(n, pairs[keep].tolist())


def sample_gnp(n: int, p: float, rng: RngSpec | int, index: int = 0) -> Graph:
    """One draw of the n-vertex binomial random graph."""
    _check_gnp(n, p)
    return _draw(n, p, _spec(rng), index)


def _trial_counts(
    h: PatternGraph,
    n: int,
    p: float,
    trials: int,
    rng: RngSpec | int,
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
    spec = _spec(rng)
    forced = None
    if planted is not None:
        import numpy as np

        edges = planted.edge_set()
        forced = np.array([tuple(e) in edges for e in _pairs(n).tolist()], dtype=bool)
    return [count_labelled(h, _draw(n, p, spec, t, forced)) for t in range(trials)]


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
    threshold = (1 + delta) * float(n) ** h.v_h * p**h.e_h
    return _estimate([int(c >= threshold) for c in counts])
