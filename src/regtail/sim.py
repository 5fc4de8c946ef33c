"""Seedable random-graph sampling and Monte Carlo estimators.

Counter-based RNG: trial i draws from an independent Philox stream jumped
i times from the base key, so estimates do not depend on evaluation order
and rerunning any single trial reproduces it bit for bit. Count reduction
is exact integer summation, converted to float once. numpy is imported on
first use, so verbs that do not sample never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .counting import count_labelled
from .graphs import Graph, PatternGraph, SparsityContext, from_edge_list

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RngSpec:
    seed: int
    algorithm: str = "philox4x64"

    def __post_init__(self) -> None:
        if self.algorithm != "philox4x64":
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")

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


def sample_gnp(n: int, p: float, rng: RngSpec | int, index: int = 0) -> Graph:
    """One draw of the n-vertex binomial random graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    gen = _spec(rng).stream(index)
    pairs = _pairs(n)
    keep = gen.random(len(pairs)) < p
    return from_edge_list(n, pairs[keep].tolist())


def mc_mean_count(
    h: PatternGraph, n: int, p: float, trials: int, rng: RngSpec | int
) -> McEstimate:
    """Sample mean and standard error of the copy count of h."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    spec = _spec(rng)
    values = [
        count_labelled(h, sample_gnp(n, p, spec, index=t))
        for t in range(trials)
    ]
    return _estimate(values)


def mc_conditional_mean(
    g: Graph,
    h: PatternGraph,
    ctx: SparsityContext,
    trials: int,
    rng: RngSpec | int,
) -> McEstimate:
    """Copy-count mean over samples unioned with the planted graph g."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    n, p = ctx.n, ctx.p
    if g.vertex_count != n:
        raise ValueError(
            f"planted graph has {g.vertex_count} vertices, context has {n}"
        )
    import numpy as np

    spec = _spec(rng)
    pairs = _pairs(n)
    planted = g.edge_set()
    forced = np.array(
        [tuple(e) in planted for e in pairs.tolist()], dtype=bool
    )
    values = []
    for t in range(trials):
        keep = spec.stream(t).random(len(pairs)) < p
        keep |= forced
        merged = from_edge_list(n, pairs[keep].tolist())
        values.append(count_labelled(h, merged))
    return _estimate(values)


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
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    threshold = (1 + delta) * float(n) ** h.v_h * p**h.e_h
    spec = _spec(rng)
    values = [
        int(count_labelled(h, sample_gnp(n, p, spec, index=t)) >= threshold)
        for t in range(trials)
    ]
    return _estimate(values)
