"""Validation metrics: percentage error and Pearson correlation.

The paper validates proxies with two metrics (section 5): the percentage
error between original and proxy performance metrics, and Pearson's
correlation coefficient across a configuration sweep ("1 = perfect
correlation") — together they capture both absolute fidelity and relative
ranking, which is what architects doing design-space exploration care about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def percentage_error(original: float, proxy: float) -> float:
    """Absolute relative error of ``proxy`` vs ``original``, as a fraction.

    When the original value is 0 the error is 0 if the proxy is also 0 and
    1 otherwise (a bounded convention so averages stay meaningful for
    near-zero miss rates).
    """
    if original == 0.0:
        return 0.0 if proxy == 0.0 else 1.0
    return abs(proxy - original) / abs(original)


def absolute_error(original: float, proxy: float) -> float:
    """Plain absolute difference — used for rate metrics already in [0, 1].

    For miss *rates*, the paper's "error in miss rates" (Figure 6 axis) is
    best read as percentage-point differences; dividing a 1pp mismatch by a
    2% base rate would claim 50% error for an architecturally irrelevant
    difference.
    """
    return abs(proxy - original)


def mean_error(
    originals: Sequence[float], proxies: Sequence[float], relative: bool = False
) -> float:
    """Mean (absolute or relative) error across a sweep."""
    if len(originals) != len(proxies):
        raise ValueError(
            f"length mismatch: {len(originals)} originals vs {len(proxies)} proxies"
        )
    if not originals:
        return 0.0
    err = percentage_error if relative else absolute_error
    return sum(err(o, p) for o, p in zip(originals, proxies)) / len(originals)


def pearson_correlation(
    xs: Sequence[float], ys: Sequence[float], flat_tolerance: float = 1e-4
) -> float:
    """Pearson's r between two metric vectors.

    Degenerate (constant) vectors have undefined r; we return 1.0 when both
    are constant (the proxy tracks the original perfectly — neither moves)
    and 0.0 when only one is.  A vector whose total spread is below
    ``flat_tolerance`` counts as constant: a benchmark whose miss rate moves
    by a hundredth of a percentage point across a sweep is *insensitive* to
    the parameter, and an architect would read the proxy's equally-flat
    response as perfect tracking, not as zero correlation.  Pass
    ``flat_tolerance=0`` for the strict definition.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        return 1.0
    flat_x = (max(xs) - min(xs)) <= flat_tolerance
    flat_y = (max(ys) - min(ys)) <= flat_tolerance
    if flat_x and flat_y:
        return 1.0
    if flat_x or flat_y:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / math.sqrt(var_x * var_y)


def rank_agreement(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Fraction of configuration pairs ranked identically by both vectors.

    Directly measures the paper's motivating use case: "compare two
    configurations to see which one performs better".  Ties in either
    vector count as agreement if tied in both.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        return 1.0
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == dy:
                agree += 1
    return agree / total


def working_set_curve(
    addresses: Sequence[int],
    line_size: int = 128,
    capacities: Sequence[int] = (8, 32, 128, 512, 2048, 8192),
) -> List[float]:
    """Fully-associative LRU miss rate at each capacity (in lines).

    The Mattson working-set curve of an address stream — a configuration-
    independent locality signature.  Computed in one stack-distance pass.
    """
    from repro.core.reuse import distance_histogram

    if not addresses:
        return [0.0] * len(capacities)
    shift = line_size.bit_length() - 1
    colds, histogram = distance_histogram(
        [address >> shift for address in addresses]
    )
    return [
        (colds + sum(n for d, n in histogram.items() if d >= capacity))
        / len(addresses)
        for capacity in capacities
    ]


def working_set_distance(
    original: Sequence[int],
    clone: Sequence[int],
    line_size: int = 128,
    capacities: Sequence[int] = (8, 32, 128, 512, 2048, 8192),
) -> float:
    """Mean absolute gap between two streams' working-set curves, in [0, 1].

    A configuration-free fidelity score: if the clone's curve hugs the
    original's, *every* fully-associative cache size sees the same miss
    rate, which strongly predicts set-associative agreement too.
    """
    curve_a = working_set_curve(original, line_size, capacities)
    curve_b = working_set_curve(clone, line_size, capacities)
    return sum(abs(a - b) for a, b in zip(curve_a, curve_b)) / len(capacities)


@dataclass
class SweepComparison:
    """Original-vs-proxy comparison over one configuration sweep."""

    benchmark: str
    metric: str
    originals: List[float]
    proxies: List[float]

    def __post_init__(self) -> None:
        if len(self.originals) != len(self.proxies):
            raise ValueError("originals and proxies must be the same length")

    @property
    def mean_abs_error(self) -> float:
        return mean_error(self.originals, self.proxies, relative=False)

    @property
    def mean_rel_error(self) -> float:
        return mean_error(self.originals, self.proxies, relative=True)

    @property
    def correlation(self) -> float:
        return pearson_correlation(self.originals, self.proxies)

    @property
    def rank_agreement(self) -> float:
        return rank_agreement(self.originals, self.proxies)

    @property
    def accuracy(self) -> float:
        """The paper's headline "over 90% accuracy": 1 - mean error."""
        return 1.0 - self.mean_abs_error

    def row(self) -> Tuple[str, float, float]:
        return (self.benchmark, self.mean_abs_error, self.correlation)
