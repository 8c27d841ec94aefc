"""Low-level random graph generators shared by the dataset builders.

The LDBC-like generator in :mod:`repro.datasets.ldbc` composes these helpers:
uniform attachment for sparse relations and preferential attachment (power-law
out-degree) for the social/knows-style relations whose skew drives the paper's
cardinality-estimation results.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def sample_degree_power_law(
    rng: random.Random, mean_degree: float, exponent: float = 2.5, max_degree: int = 1000
) -> int:
    """Sample an out-degree from a discrete power-law-ish distribution.

    The distribution is a Pareto sample scaled so that its mean is roughly
    ``mean_degree``; it is clamped to ``[0, max_degree]``.
    """
    if mean_degree <= 0:
        return 0
    scale = mean_degree * (exponent - 2.0) / (exponent - 1.0) if exponent > 2.0 else mean_degree
    value = rng.paretovariate(exponent - 1.0) * max(scale, 0.1)
    return max(0, min(int(round(value)), max_degree))


def uniform_edges(
    rng: random.Random,
    sources: Sequence[int],
    targets: Sequence[int],
    mean_out_degree: float,
    allow_self_loops: bool = False,
) -> List[Tuple[int, int]]:
    """Connect each source to ``~mean_out_degree`` uniformly chosen targets."""
    if not sources or not targets:
        return []
    edges: List[Tuple[int, int]] = []
    for src in sources:
        degree = _poisson(rng, mean_out_degree)
        for _ in range(degree):
            dst = targets[rng.randrange(len(targets))]
            if dst == src and not allow_self_loops:
                continue
            edges.append((src, dst))
    return edges


def preferential_edges(
    rng: random.Random,
    sources: Sequence[int],
    targets: Sequence[int],
    mean_out_degree: float,
    exponent: float = 2.5,
    allow_self_loops: bool = False,
) -> List[Tuple[int, int]]:
    """Connect sources to targets with power-law out-degrees and skewed target popularity.

    Targets are chosen with probability proportional to their index-based
    weight (early targets are "celebrities"), which yields the heavy-tailed
    in-degree distribution characteristic of social graphs.
    """
    if not sources or not targets:
        return []
    weights = [1.0 / (i + 1) ** 0.7 for i in range(len(targets))]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def pick_target() -> int:
        r = rng.random()
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        return targets[lo]

    edges: List[Tuple[int, int]] = []
    for src in sources:
        degree = sample_degree_power_law(rng, mean_out_degree, exponent)
        for _ in range(degree):
            dst = pick_target()
            if dst == src and not allow_self_loops:
                continue
            edges.append((src, dst))
    return edges


def dedupe_edges(edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Drop duplicate (src, dst) pairs while preserving first-seen order."""
    seen = set()
    result: List[Tuple[int, int]] = []
    for edge in edges:
        if edge not in seen:
            seen.add(edge)
            result.append(edge)
    return result


def _poisson(rng: random.Random, lam: float) -> int:
    """Small-lambda Poisson sampler (Knuth) with a normal fallback for large lambda."""
    if lam <= 0:
        return 0
    if lam > 30:
        return max(0, int(round(rng.gauss(lam, lam ** 0.5))))
    threshold = pow(2.718281828459045, -lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1
