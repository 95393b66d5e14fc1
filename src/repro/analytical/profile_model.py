"""Stack-distance profiles as analytical cache-miss predictors.

The shared machinery of the Tang and Nugteren baselines *and* of the
``sim_mode="analytic"`` sweep backend: scan an access stream once per
cache-line granularity, record the LRU stack-distance histogram, then
predict the miss rate of *any* cache capacity in O(histogram) time — the
defining speed advantage of analytical models over simulation (paper
section 3), bought with the fully-associative approximation.

For a fully-associative LRU cache of ``C`` lines, an access hits iff its
stack distance is < C (Mattson et al.); set-associative conflict misses are
approximated by the classic capacity-only assumption, optionally sharpened
with a binomial set-conflict correction (Smith's method).  The binomial
survival function is evaluated in log space — a direct ``q ** distance``
underflows to zero once ``distance`` reaches a few hundred thousand lines,
silently disabling the correction exactly where deep histograms need it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, TypeVar

from repro.core.distributions import Histogram
from repro.core.reuse import distance_histogram
from repro.memsim.config import CacheConfig

_T = TypeVar("_T")

#: Line sizes the profiles are collected at (the paper's L1 sweep range).
DEFAULT_LINE_SIZES: Tuple[int, ...] = (32, 64, 128)


class StackDistanceProfile:
    """Per-line-size stack-distance histograms of one access stream.

    Built once from plain addresses (:meth:`from_addresses`, one access
    per granularity per element — the Tang/Nugteren baselines) through
    the shared engine, or filled directly by the analytic ``from_profile``
    estimator.  Counts are tracked per line size.
    """

    def __init__(self, line_sizes: Sequence[int] = DEFAULT_LINE_SIZES) -> None:
        for size in line_sizes:
            if size <= 0 or size & (size - 1):
                raise ValueError(f"line size must be a power of two, got {size}")
        self.line_sizes = tuple(line_sizes)
        self._histograms: Dict[int, Histogram] = {
            size: Histogram() for size in line_sizes
        }
        self._colds: Dict[int, int] = {size: 0 for size in line_sizes}
        self._counts: Dict[int, int] = {size: 0 for size in line_sizes}
        self._records = 0

    @classmethod
    def from_addresses(
        cls,
        addresses: Iterable[int],
        line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
    ) -> "StackDistanceProfile":
        """Scan ``addresses`` once per granularity."""
        addresses = list(addresses)
        profile = cls(line_sizes)
        profile._records = len(addresses)
        for size in profile.line_sizes:
            shift = size.bit_length() - 1
            colds, histogram = distance_histogram(
                [address >> shift for address in addresses]
            )
            profile._histograms[size] = Histogram(histogram)
            profile._colds[size] = colds
            profile._counts[size] = len(addresses)
        return profile

    @property
    def accesses(self) -> int:
        """Stream elements scanned (records, before sector expansion)."""
        return self._records

    def access_count(self, line_size: int) -> int:
        """Cache accesses at ``line_size`` granularity (after sector split)."""
        self.histogram(line_size)  # validate the granularity
        return self._counts[line_size]

    def histogram(self, line_size: int) -> Histogram:
        try:
            return self._histograms[line_size]
        except KeyError:
            raise ValueError(
                f"profile not collected at line size {line_size}; "
                f"available: {self.line_sizes}"
            ) from None

    def cold_misses(self, line_size: int) -> int:
        return self._colds[line_size]

    # -- prediction ----------------------------------------------------------

    def expected_misses(
        self, config: CacheConfig, set_conflicts: bool = True
    ) -> Tuple[int, float]:
        """``(accesses, expected misses)`` of ``config`` for this stream.

        The Mattson stack criterion plus (optionally) the binomial
        set-conflict correction: an access at stack distance d < C still
        misses if, of the d distinct intervening lines, at least ``assoc``
        landed in its own set (uniform-mapping assumption).
        """
        accesses = self.access_count(config.line_size)
        if accesses == 0:
            return 0, 0.0
        histogram = self._histograms[config.line_size]
        capacity = config.size // config.line_size
        misses = float(self._colds[config.line_size])
        num_sets = config.num_sets
        assoc = config.assoc
        for distance, count in histogram.items():
            if distance >= capacity:
                misses += count
            elif set_conflicts and num_sets > 1 and distance >= assoc:
                misses += count * _conflict_probability(distance, num_sets, assoc)
        return accesses, min(float(accesses), misses)

    def miss_rate(
        self, config: CacheConfig, set_conflicts: bool = True
    ) -> float:
        """Predicted miss rate of ``config`` for the profiled stream."""
        accesses, misses = self.expected_misses(config, set_conflicts)
        if accesses == 0:
            return 0.0
        return misses / accesses

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the content-addressed artifact cache."""
        return {
            "line_sizes": list(self.line_sizes),
            "records": self._records,
            "histograms": {
                str(size): self._histograms[size].to_dict()
                for size in self.line_sizes
            },
            "colds": {str(size): self._colds[size] for size in self.line_sizes},
            "counts": {str(size): self._counts[size] for size in self.line_sizes},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StackDistanceProfile":
        line_sizes = tuple(int(s) for s in data["line_sizes"])  # type: ignore[union-attr]
        profile = cls(line_sizes)
        profile._records = int(data["records"])  # type: ignore[arg-type]
        histograms = data["histograms"]
        colds = data["colds"]
        counts = data["counts"]
        for size in line_sizes:
            key = str(size)
            profile._histograms[size] = Histogram.from_dict(histograms[key])  # type: ignore[index]
            profile._colds[size] = int(colds[key])  # type: ignore[index]
            profile._counts[size] = int(counts[key])  # type: ignore[index]
        return profile


def _conflict_probability(distance: int, num_sets: int, assoc: int) -> float:
    """P[>= assoc of `distance` uniform lines land in one given set].

    Survival function of Binomial(distance, 1/num_sets) at ``assoc - 1``,
    evaluated in log space: the head terms are summed as
    ``exp(lgamma-based log pmf)`` so a million-line distance cannot
    underflow the naive ``q ** distance`` seed term to zero.
    """
    if distance < assoc:
        return 0.0
    if num_sets <= 1:
        return 1.0
    log_p = -math.log(num_sets)
    log_q = math.log1p(-1.0 / num_sets)
    log_n_fact = math.lgamma(distance + 1)
    terms: List[float] = []
    for k in range(min(assoc, distance + 1)):
        log_pmf = (
            log_n_fact
            - math.lgamma(k + 1)
            - math.lgamma(distance - k + 1)
            + k * log_p
            + (distance - k) * log_q
        )
        terms.append(math.exp(log_pmf))
    prob_le = math.fsum(terms)
    return min(1.0, max(0.0, 1.0 - prob_le))


def round_robin_interleave(streams: Sequence[Sequence[_T]]) -> List[_T]:
    """Merge per-warp (or per-core) streams in round-robin order.

    The Nugteren model's parallelism emulation: one access per warp per
    turn, matching how an LRR scheduler interleaves warps.  The analytic
    backend merges per-core trace records the same way: with every record
    costing one cycle, the flat replay's ``(clock, core)`` event heap
    degenerates to exactly this order.
    """
    out: List[_T] = []
    cursors = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining:
        for idx, stream in enumerate(streams):
            cursor = cursors[idx]
            if cursor < len(stream):
                out.append(stream[cursor])
                cursors[idx] = cursor + 1
                remaining -= 1
    return out
