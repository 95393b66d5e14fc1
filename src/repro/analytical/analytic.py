"""Analytic miss-rate sweep backend: O(histogram) cache sweeps.

``sim_mode="analytic"`` predicts Fig. 6a/6b-style size/associativity sweep
points from LRU stack-distance histograms instead of replaying the trace
per configuration.  Two model sources share the predictor:

* **Flat traces** (:meth:`AnalyticCacheModel.from_flat`) keep the filtered
  per-core record streams and scan them lazily, once per cache *geometry*
  ``(line_size, num_sets)``, into exact per-set stack-distance histograms —
  a per-set stack position is precisely the number of distinct intervening
  same-set lines, so the simulator's true-LRU hit criterion becomes
  ``position < assoc`` and every associativity at that geometry is a pure
  histogram walk.  L1 is exact at every associativity; the shared L2
  sees the union of the cores' L1 *miss* streams, modelled by
  conditioning the merged full-stream histogram on the predicted L1 filter:
  cold lines pass through unconditionally (a first touch misses every
  level), reuse accesses reach the L2 with the L1 reuse-miss rate, and
  surviving set-distances deflate by the stream's survival fraction.
* **The 5-tuple alone** (:meth:`AnalyticCacheModel.from_profile`) dilates
  each π cluster's per-unit ``P_R`` histogram to the interleaved stream —
  the zero-trace estimator, fully associative plus the binomial
  set-conflict correction, rough by construction.

What the model *cannot* capture falls back to simulation per config:
:func:`analytic_fallback_reasons` mirrors the array memsim's
``memsim_fallback_reasons`` contract (prefetchers, non-LRU replacement,
write-through/no-allocate policies, inclusive L2), and
:meth:`AnalyticCacheModel.applicability` adds model-state reasons
(granularities not profiled, texture/constant-space traffic).  Timing-side
outputs (DRAM service, MSHR occupancy, stall latencies) are out of model
scope and reported as zero — the mode predicts miss *rates*, the quantity
the paper's Figures 6a/6b sweep.  ``cycles`` is the unit-latency clock
span, which for flat replay is exactly the longest core trace.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analytical.profile_model import (
    DEFAULT_LINE_SIZES,
    StackDistanceProfile,
    _conflict_probability,
    round_robin_interleave,
)
from repro.core.profile import GmapProfile
from repro.core.reuse import COLD_MISS, stack_distances, stack_distances_array
from repro.gpu.instructions import AccessTuple
from repro.gpu.memspace import MemorySpace, space_of
from repro.memsim.config import CacheConfig, SimConfig
from repro.memsim.stats import CacheStats, DramStats, SimResult

try:  # The engine path; the scalar per-set trackers need no deps.
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None  # type: ignore[assignment]

#: Artifact format tag and schema version of analytic sweep reports.
ANALYTIC_FORMAT = "gmap-analytic-sweep"
ANALYTIC_SCHEMA_VERSION = 1

#: Stated per-point |Δ miss-rate| envelope vs the event simulator for
#: analytically-predicted points (the bench_perf.py schema-v5 gate bound).
ANALYTIC_MISS_RATE_TOLERANCE = 0.12


class AnalyticUnsupportedError(ValueError):
    """A config (or model state) the analytic predictor cannot capture.

    Mirrors :class:`repro.memsim.vectorized.UnsupportedConfigError`:
    carries the machine-readable ``reasons`` the caller records in the
    ``analytic_fallback_reasons`` matrix before falling back to replay.
    """

    def __init__(self, reasons: Sequence[str]) -> None:
        self.reasons: List[str] = list(reasons)
        super().__init__(
            "config outside the analytic model: " + "; ".join(self.reasons)
        )


def analytic_fallback_reasons(config: SimConfig) -> List[str]:
    """Config-level features that force a fallback to replay simulation.

    The analytic contract is the memsim matrix plus the timing-coupled
    features reuse-distance theory cannot see: prefetchers rewrite the
    demand stream, MSHR-starved L1s stall rather than miss differently
    (miss *counts* stay exact, so tiny MSHR files stay in scope), and
    non-LRU replacement has no stack-distance formulation.
    """
    reasons: List[str] = []
    if config.l1_prefetcher is not None or config.l2_prefetcher is not None:
        reasons.append(
            "prefetchers rewrite the demand stream beyond reuse-distance "
            "reach"
        )
    for level, cache in (("l1", config.l1), ("l2", config.l2)):
        if cache.replacement != "lru":
            reasons.append(
                f"{level} replacement {cache.replacement!r} has no "
                f"stack-distance formulation"
            )
        if cache.write_policy != "write-back" or not cache.write_allocate:
            reasons.append(
                f"{level} write policy "
                f"{cache.write_policy}/allocate={cache.write_allocate} "
                f"bypasses the LRU stack"
            )
    if config.l2_inclusion != "non-inclusive":
        reasons.append(
            f"{config.l2_inclusion} L2 back-invalidates L1 lines outside "
            f"the stack model"
        )
    return reasons


def _expand_lines(
    records: Sequence[AccessTuple], line_size: int
) -> Tuple[List[int], set]:
    """``(line stream, ever-stored lines)`` at ``line_size`` granularity.

    Applies the memory hierarchy's sector split: an access wider than a
    line contributes one access per line-sized sector, in address order,
    exactly as ``MemoryHierarchy.access`` issues them.
    """
    shift = line_size.bit_length() - 1
    out: List[int] = []
    stored: set = set()
    append = out.append
    for _pc, address, size, is_store in records:
        first = address >> shift
        last = (address + (size - 1 if size > 0 else 0)) >> shift
        for line in range(first, last + 1):
            append(line)
            if is_store:
                stored.add(line)
    return out, stored


class _SetReuse:
    """Exact per-set LRU reuse statistics of one line stream.

    A per-set stack distance is the number of distinct same-set lines
    touched since the line's last access, so a reuse at distance ``d``
    hits any cache of this geometry iff ``d < assoc``.

    Besides the distance histogram the scan keeps the sufficient
    statistics for associativity-parameterised *state* questions: the
    histogram restricted to ever-stored lines (a reuse miss of a stored
    line implies one earlier dirty eviction — a writeback), and the
    end-of-stream LRU rank of every line within its set, for all lines
    and for stored lines (a line is still resident under ``assoc`` ways
    iff its rank is below ``assoc``).
    """

    __slots__ = (
        "accesses", "colds", "histogram", "stored_histogram",
        "ranks", "stored_ranks",
    )

    def __init__(
        self,
        accesses: int,
        histogram: Dict[int, int],
        stored_histogram: Dict[int, int],
        ranks: Dict[int, int],
        stored_ranks: Dict[int, int],
    ) -> None:
        self.accesses = accesses
        self.histogram = histogram
        self.stored_histogram = stored_histogram
        self.ranks = ranks
        self.stored_ranks = stored_ranks
        # Every distinct line has one final rank and one cold touch.
        self.colds = sum(ranks.values())

    def misses(self, assoc: int) -> int:
        """Total misses (cold + conflict/capacity) at ``assoc`` ways."""
        return self.colds + _at_least(self.histogram, assoc)

    def writebacks(self, assoc: int) -> int:
        """Dirty L1 victims at ``assoc`` ways (ever-stored approximation).

        Every reuse miss of a stored line re-fetches a line whose
        previous residence ended in a dirty eviction; stored lines no
        longer resident at end of stream were dirty-evicted once more and
        never came back.
        """
        return (
            _at_least(self.stored_histogram, assoc)
            + _at_least(self.stored_ranks, assoc)
        )

    def evictions(self, assoc: int) -> int:
        """Total evictions at ``assoc`` ways: fills minus final residents."""
        return _at_least(self.histogram, assoc) + _at_least(self.ranks, assoc)


def _at_least(histogram: Dict[int, int], bound: int) -> int:
    """Mass of ``histogram`` at values ``>= bound``."""
    return sum(count for value, count in histogram.items() if value >= bound)


def _scan_sets(lines: Sequence[int], num_sets: int, stored: set) -> _SetReuse:
    """Per-set reuse of ``lines`` at ``num_sets`` sets, exact at any depth.

    A per-set distance is the global stack distance of the line within
    its set's subsequence, so the stream is stable-sorted by set index
    and run through the shared engine once.  The final ranks come from
    the same sorted stream: a line's last touch is its first in the
    reversed stream, last touches ascend within a set block, and a
    line's rank is the number of later last touches in its block.
    """
    if _np is None:
        return _scan_sets_scalar(lines, num_sets, stored)
    stream = _np.asarray(lines, dtype=_np.int64)
    sets = stream % num_sets
    order = _np.argsort(sets, kind="stable")
    stream, sets = stream[order], sets[order]
    distances = stack_distances_array(stream)
    is_stored = _np.isin(stream, _np.fromiter(stored, _np.int64, len(stored)))
    warm = distances != COLD_MISS
    _, first = _np.unique(stream[::-1], return_index=True)
    last = _np.sort(len(stream) - 1 - first)
    owner = sets[last]
    ranks = (
        _np.searchsorted(owner, owner, side="right")
        - _np.arange(len(last)) - 1
    )
    return _SetReuse(
        len(lines),
        _array_counts(distances[warm]),
        _array_counts(distances[warm & is_stored]),
        _array_counts(ranks),
        _array_counts(ranks[is_stored[last]]),
    )


def _array_counts(values: "_np.ndarray") -> Dict[int, int]:
    """``{value: occurrences}`` of an integer array."""
    found, counts = _np.unique(values, return_counts=True)
    return dict(zip(found.tolist(), counts.tolist()))


def _scan_sets_scalar(
    lines: Sequence[int], num_sets: int, stored: set
) -> _SetReuse:
    """:func:`_scan_sets` without NumPy: one scalar tracker per set."""
    by_set: Dict[int, List[int]] = {}
    for line in lines:
        by_set.setdefault(line % num_sets, []).append(line)
    histogram: Counter = Counter()
    stored_histogram: Counter = Counter()
    ranks: Counter = Counter()
    stored_ranks: Counter = Counter()
    for members in by_set.values():
        for line, distance in zip(members, stack_distances(members)):
            if distance != COLD_MISS:
                histogram[distance] += 1
                if line in stored:
                    stored_histogram[distance] += 1
        # Distinct lines, most recently touched first: the final stack.
        for rank, line in enumerate(dict.fromkeys(reversed(members))):
            ranks[rank] += 1
            if line in stored:
                stored_ranks[rank] += 1
    return _SetReuse(
        len(lines), dict(histogram), dict(stored_histogram),
        dict(ranks), dict(stored_ranks),
    )


class AnalyticCacheModel:
    """One trace's reuse structure, reusable across every sweep config.

    Build once (``from_flat`` for measured per-core traces, or
    ``from_profile`` for the zero-trace 5-tuple estimator), then
    :meth:`predict` each config in O(histogram).  Flat models scan records
    lazily per cache geometry and memoize the resulting histograms, so a
    whole size/associativity sweep shares a handful of scans.
    """

    def __init__(
        self,
        *,
        core_records: Optional[Sequence[Sequence[AccessTuple]]] = None,
        merged_records: Optional[Sequence[AccessTuple]] = None,
        l1_profiles: Optional[Sequence[StackDistanceProfile]] = None,
        l2_profile: Optional[StackDistanceProfile] = None,
        shared_accesses: int = 0,
        special_accesses: int = 0,
        requests: int = 0,
        core_cycles: Optional[Sequence[int]] = None,
        source: str = "flat",
    ) -> None:
        self._cores = [list(t) for t in core_records] if core_records is not None else None
        self._merged = list(merged_records) if merged_records is not None else None
        self.l1_profiles = list(l1_profiles) if l1_profiles is not None else None
        self.l2_profile = l2_profile
        self.shared_accesses = shared_accesses
        self.special_accesses = special_accesses
        self.requests = requests
        self.core_cycles = list(core_cycles) if core_cycles is not None else []
        self.source = source
        if self._cores is not None:
            self.active_cores = max(1, sum(1 for t in self._cores if t))
        else:
            self.active_cores = max(1, len(self.l1_profiles or [()]))
        # Lazy memos: expansions per line size, scans per geometry.
        self._core_lines: Dict[int, List[Tuple[List[int], set]]] = {}
        self._merged_lines: Dict[int, List[int]] = {}
        self._l1_memo: Dict[Tuple[int, int], List[_SetReuse]] = {}
        self._l2_memo: Dict[Tuple[int, int, int], _SetReuse] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_flat(
        cls, per_core_traces: Sequence[Sequence[AccessTuple]]
    ) -> "AnalyticCacheModel":
        """Filter per-core flat traces into the model's record streams.

        Shared-memory records bypass the cache hierarchy (counted for
        ``SimResult.shared_accesses``); texture/constant-space records are
        counted separately — their dedicated caches are outside the model,
        so their presence becomes a per-config fallback reason.  The
        merged stream mirrors the flat replay's unit-latency event-heap
        order, which degenerates to round-robin across cores.
        """
        cacheable: List[List[AccessTuple]] = []
        shared = 0
        special = 0
        requests = 0
        for trace in per_core_traces:
            records: List[AccessTuple] = []
            for record in trace:
                pc, address = record[0], record[1]
                if pc < 0:
                    continue  # barrier marker: no memory semantics
                requests += 1
                space = space_of(address)
                if space is MemorySpace.SHARED:
                    shared += 1
                    continue
                if space in (MemorySpace.TEXTURE, MemorySpace.CONSTANT):
                    special += 1
                    continue
                records.append(record)
            cacheable.append(records)
        return cls(
            core_records=cacheable,
            merged_records=round_robin_interleave(cacheable),
            shared_accesses=shared,
            special_accesses=special,
            requests=requests,
            # Flat replay costs one cycle per record (barriers included),
            # so a core's trace length is its clock span — the timescale
            # the L2 bank-throughput cap is computed against.
            core_cycles=[len(trace) for trace in per_core_traces],
            source="flat",
        )

    @classmethod
    def from_profile(
        cls,
        profile: GmapProfile,
        *,
        num_cores: int,
        max_blocks_per_core: int = 8,
    ) -> "AnalyticCacheModel":
        """Zero-trace estimator straight from the 5-tuple's ``P_R``.

        Each π cluster's per-unit reuse histogram is dilated to the
        per-core interleaved stream: with ``U`` co-resident sequencing
        units taking round-robin turns, a per-unit stack distance ``d``
        stretches to roughly ``(d + 1) * U - 1`` distinct lines (every
        intervening slot carries the other units' disjoint lines).  Cold
        fractions come from ``reuse_fraction``; cluster weights from
        ``Q``.  Only the profile's segment granularity is available, so
        other line sizes report as inapplicable rather than guessed.
        """
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        threads = 1
        for dim in profile.block_dim:
            threads *= max(1, dim)
        units_per_block = (
            max(1, math.ceil(threads / 32))
            if profile.unit == "warp" else threads
        )
        blocks = 1
        for dim in profile.grid_dim:
            blocks *= max(1, dim)
        resident_blocks = max(
            1, min(max_blocks_per_core, math.ceil(blocks / num_cores))
        )
        concurrency = units_per_block * resident_blocks
        size = profile.segment_size
        weight_scale = max(1, profile.total_transactions)
        l1_stream = StackDistanceProfile((size,))
        for pi in profile.pi_profiles:
            mass = pi.probability * weight_scale
            if mass <= 0:
                continue
            reuse_total = pi.reuse.total
            reuses = mass * pi.reuse_fraction
            colds = mass - reuses
            l1_stream._colds[size] += int(round(colds))
            l1_stream._counts[size] += int(round(mass))
            l1_stream._records += int(round(mass))
            if reuse_total == 0 or reuses <= 0:
                continue
            for distance, count in pi.reuse.items():
                dilated = (distance + 1) * concurrency - 1
                weighted = int(round(count / reuse_total * reuses))
                if weighted:
                    l1_stream._histograms[size].add(dilated, weighted)
        # The shared L2 merges all cores' streams: dilate once more by the
        # active core count (symmetric disjoint-core assumption).
        cores = max(1, min(num_cores, blocks))
        l2_stream = StackDistanceProfile((size,))
        l2_stream._records = l1_stream._records * cores
        l2_stream._counts[size] = l1_stream._counts[size] * cores
        l2_stream._colds[size] = l1_stream._colds[size] * cores
        for distance, count in l1_stream._histograms[size].items():
            l2_stream._histograms[size].add(
                (distance + 1) * cores - 1, count * cores
            )
        return cls(
            l1_profiles=[l1_stream] * cores,
            l2_profile=l2_stream,
            requests=l1_stream._counts[size] * cores,
            source="profile",
        )

    # -- lazy scans (flat source) --------------------------------------------

    def _lines(self, line_size: int) -> Tuple[List[Tuple[List[int], set]], List[int]]:
        assert self._cores is not None and self._merged is not None
        per_core = self._core_lines.get(line_size)
        if per_core is None:
            per_core = [_expand_lines(t, line_size) for t in self._cores]
            self._core_lines[line_size] = per_core
            self._merged_lines[line_size] = _expand_lines(
                self._merged, line_size
            )[0]
        return per_core, self._merged_lines[line_size]

    def _l1_scans(
        self, line_size: int, num_sets: int
    ) -> List[_SetReuse]:
        """Per-core exact set-distance scans, memoized per geometry."""
        key = (line_size, num_sets)
        scans = self._l1_memo.get(key)
        if scans is None:
            per_core, _ = self._lines(line_size)
            scans = [
                _scan_sets(lines, num_sets, stored)
                for lines, stored in per_core
            ]
            self._l1_memo[key] = scans
        return scans

    def _l2_scan(
        self, l1_line: int, l2_line: int, num_sets: int
    ) -> _SetReuse:
        """Merged L2-demand-stream scan, memoized per geometry.

        The L2 sees one access per *L1 sector* that misses, addressed at
        the L2 line granularity: the stream is expanded at the finer of
        the two line sizes (so a 128B record crossing two 64B L1 sectors
        contributes two L2 touches), then each sector is mapped to its
        containing L2 line before the per-set stacks are walked.
        """
        stream_line = min(l1_line, l2_line)
        key = (stream_line, l2_line, num_sets)
        scan = self._l2_memo.get(key)
        if scan is None:
            _, merged = self._lines(stream_line)
            shift = l2_line.bit_length() - stream_line.bit_length()
            if shift:
                merged = [line >> shift for line in merged]
            scan = _scan_sets(merged, num_sets, set())
            self._l2_memo[key] = scan
        return scan

    def prepare(self, configs: Iterable[SimConfig]) -> "AnalyticCacheModel":
        """Run every scan a sweep will need (the build/warm-up step)."""
        if self._cores is None:
            return self
        for config in configs:
            if self.applicability(config):
                continue
            self._l1_scans(config.l1.line_size, config.l1.num_sets)
            self._l2_scan(
                config.l1.line_size, config.l2.line_size, config.l2.num_sets
            )
        return self

    # -- applicability -------------------------------------------------------

    def applicability(self, config: SimConfig) -> List[str]:
        """Every reason ``config`` cannot be predicted by *this* model.

        Config-level reasons (:func:`analytic_fallback_reasons`) plus
        model-state ones: a granularity the profiles were not collected
        at, or trace traffic that routes around the modelled L1/L2 pair.
        """
        reasons = analytic_fallback_reasons(config)
        if self._cores is None:
            collected = tuple((self.l2_profile or StackDistanceProfile()).line_sizes)
            for level, cache in (("l1", config.l1), ("l2", config.l2)):
                if cache.line_size not in collected:
                    reasons.append(
                        f"{level} line size {cache.line_size} not profiled "
                        f"(collected: {list(collected)})"
                    )
        if self.special_accesses:
            reasons.append(
                f"{self.special_accesses} texture/constant-space accesses "
                f"route through dedicated caches outside the model"
            )
        return reasons

    # -- prediction ----------------------------------------------------------

    def predict(self, config: SimConfig) -> SimResult:
        """O(histogram) miss-rate prediction as a ``SimResult``.

        Raises :class:`AnalyticUnsupportedError` (reasons attached) for
        configs outside the model; callers record the reasons and fall
        back to replay.
        """
        reasons = self.applicability(config)
        if reasons:
            raise AnalyticUnsupportedError(reasons)
        if self._cores is not None:
            return self._predict_flat(config)
        return self._predict_profile(config)

    def _predict_flat(self, config: SimConfig) -> SimResult:
        """Exact L1 walk plus the conditioned L2 walk (flat source)."""
        l1_cfg = config.l1
        scans = self._l1_scans(l1_cfg.line_size, l1_cfg.num_sets)
        per_core: List[CacheStats] = []
        for scan in scans:
            misses = scan.misses(l1_cfg.assoc)
            per_core.append(
                CacheStats(
                    accesses=scan.accesses,
                    hits=scan.accesses - misses,
                    misses=misses,
                    evictions=scan.evictions(l1_cfg.assoc),
                    writebacks=scan.writebacks(l1_cfg.assoc),
                )
            )
        l1 = CacheStats()
        for stats in per_core:
            l1.merge(stats)
        l1_colds = sum(scan.colds for scan in scans)
        l2 = self._conditioned_l2(config, l1, l1_colds)
        return SimResult(
            l1=l1,
            l2=l2,
            dram=DramStats(reads=l2.misses),
            shared_accesses=self.shared_accesses,
            requests_issued=self.requests,
            # The flat replay's clock is unit-latency (one cycle per
            # record), so its final value is just the longest core trace.
            cycles=float(max(self.core_cycles, default=0)),
            per_core_l1=per_core,
        )

    def _conditioned_l2(
        self, config: SimConfig, l1: CacheStats, l1_colds: int
    ) -> CacheStats:
        """The shared L2 under the predicted L1 miss stream.

        The merged demand-stream set-distance histogram at the L2
        geometry, conditioned on the L1 filter:

        * L1-*cold* accesses always reach — a first touch misses every
          level.  Their count is the exact per-core cold total, rescaled
          to L2-stream units; the ones that are L2-stream *reuses*
          (sector siblings of a line another sector already pulled in)
          sit at the smallest distances, so the cold mass is drained from
          the histogram's ascending end.
        * L1-*reuse* accesses reach with the predicted L1 reuse-miss
          rate, and a surviving set distance ``d`` deflates to ``d × f``
          (``f`` = the stream's surviving fraction), because only
          intervening lines that also missed L1 reappear between its L2
          touches.

        Dirty L1 victims add their predicted writeback traffic to the L2
        stream as store hits (the victim's line was itself fetched
        through the L2, so it is resident for all but the smallest L2s).

        Known, deliberate model gap: MSHR *merges*.  When L2 bank
        backlog keeps fills in flight for hundreds of cycles, repeat
        misses within a line's in-flight window coalesce into the
        pending entry and never reach the L2 — but whether an entry is
        still live when its line returns depends on the queue backlog
        *and* on how many later misses force-retired it from the finite
        MSHR file, both functions of the merge rate itself.  That
        fixed-point timing problem is exactly what reuse-distance theory
        cannot see, so it is left to the replay fallback; the effect
        inflates the predicted L2 *denominator* (miss counts stay
        near-exact) on mid-range L1 configs, and is the dominant term of
        :data:`ANALYTIC_MISS_RATE_TOLERANCE`.
        """
        l1_cfg, l2_cfg = config.l1, config.l2
        scan2 = self._l2_scan(
            l1_cfg.line_size, l2_cfg.line_size, l2_cfg.num_sets
        )
        histogram, colds2, accesses2 = (
            scan2.histogram, scan2.colds, scan2.accesses
        )
        reuse1 = l1.accesses - l1_colds
        reuse_miss_rate = (
            (l1.misses - l1_colds) / reuse1 if reuse1 > 0 else 0.0
        )
        # L1 colds in L2-stream units (the streams differ when the L2
        # demand stream is expanded at a finer granularity than L1).
        cold_reach = (
            l1_colds * accesses2 / l1.accesses if l1.accesses else 0.0
        )
        reuse2 = accesses2 - colds2
        siblings = max(0.0, min(cold_reach - colds2, float(reuse2)))
        reached = colds2 + siblings + reuse_miss_rate * (reuse2 - siblings)
        # Dirty L1 victims: one store access per victim line chunk, all
        # hitting (their lines came in through this L2 moments ago).
        writebacks = sum(
            scan.writebacks(l1_cfg.assoc)
            for scan in self._l1_scans(l1_cfg.line_size, l1_cfg.num_sets)
        ) * max(1, l1_cfg.line_size // l2_cfg.line_size)
        surviving = reached / accesses2 if accesses2 else 0.0
        misses = float(colds2)
        assoc2 = l2_cfg.assoc
        remaining_siblings = siblings
        for distance, count in sorted(histogram.items()):
            take = min(float(count), remaining_siblings)
            remaining_siblings -= take
            weight = take + reuse_miss_rate * (count - take)
            if distance * surviving >= assoc2:
                misses += weight
        misses = min(misses, reached)
        accesses = int(round(reached)) + writebacks
        return CacheStats(
            accesses=accesses,
            misses=int(round(misses)),
            hits=accesses - int(round(misses)),
        )

    def _predict_profile(self, config: SimConfig) -> SimResult:
        """Histogram-dilation prediction from the 5-tuple (profile source)."""
        assert self.l1_profiles is not None and self.l2_profile is not None
        per_core: List[CacheStats] = []
        l1_accesses = 0
        l1_misses = 0.0
        for profile in self.l1_profiles[: max(1, config.num_cores)]:
            accesses, misses = profile.expected_misses(config.l1)
            stats = CacheStats(
                accesses=accesses,
                misses=int(round(misses)),
                hits=accesses - int(round(misses)),
            )
            per_core.append(stats)
            l1_accesses += accesses
            l1_misses += misses
        l1 = CacheStats()
        for stats in per_core:
            l1.merge(stats)
        l2 = self._dilated_l2(config, l1_accesses, l1_misses)
        return SimResult(
            l1=l1,
            l2=l2,
            dram=DramStats(reads=l2.misses),
            shared_accesses=self.shared_accesses,
            requests_issued=self.requests,
            cycles=0.0,
            per_core_l1=per_core,
        )

    def _dilated_l2(
        self, config: SimConfig, l1_accesses: int, l1_misses: float
    ) -> CacheStats:
        """Fully-associative + binomial L2 walk for profile-source models.

        An access at merged distance ``d`` reaches the L2 with the miss
        probability of its rescaled per-core L1 distance, and its
        conditional L2-stream distance is ``d`` deflated by the aggregate
        L1 miss rate.  Cold lines pass through unconditionally.
        """
        assert self.l2_profile is not None
        l1_line = config.l1.line_size
        l2_line = config.l2.line_size
        chunks = max(1, l1_line // l2_line)
        m1 = l1_misses / l1_accesses if l1_accesses else 0.0
        capacity1 = config.l1.size // l1_line
        sets1, assoc1 = config.l1.num_sets, config.l1.assoc
        capacity2 = config.l2.size // l2_line
        sets2, assoc2 = config.l2.num_sets, config.l2.assoc
        colds = self.l2_profile.cold_misses(l2_line)
        # Rescale a merged L2-granularity distance to one core's
        # L1-granularity distance: finer lines multiply distinct-line
        # counts, and the merged window splits across the active cores.
        scale1 = l2_line / l1_line / self.active_cores
        accesses = float(colds)
        misses = float(colds)
        for distance, count in self.l2_profile.histogram(l2_line).items():
            reach = _histogram_miss_probability(
                max(0, int(round(distance * scale1))),
                capacity1, sets1, assoc1,
            )
            if reach <= 0.0:
                continue
            conditional = int(round(distance * m1))
            weight = count * reach
            accesses += weight
            misses += weight * _histogram_miss_probability(
                conditional, capacity2, sets2, assoc2
            )
        total = int(round(accesses * chunks))
        misses = min(float(total), misses * chunks)
        return CacheStats(
            accesses=total,
            misses=int(round(misses)),
            hits=total - int(round(misses)),
        )


def _histogram_miss_probability(
    distance: int, capacity: int, num_sets: int, assoc: int
) -> float:
    """Miss probability of one access at fully-associative distance ``d``."""
    if distance >= capacity:
        return 1.0
    if num_sets > 1 and distance >= assoc:
        return _conflict_probability(distance, num_sets, assoc)
    return 0.0


def required_line_sizes(configs: Iterable[SimConfig]) -> Tuple[int, ...]:
    """Every L1/L2 granularity a sweep's configs will ask the model for."""
    sizes = set()
    for config in configs:
        sizes.add(config.l1.line_size)
        sizes.add(config.l2.line_size)
    return tuple(sorted(sizes)) or DEFAULT_LINE_SIZES


def analytic_sweep_report(
    per_core_traces: Sequence[Sequence[AccessTuple]],
    configs: Sequence[SimConfig],
    backend: Optional[str] = None,
    target: str = "<trace>",
    model: Optional[AnalyticCacheModel] = None,
) -> dict:
    """Analytic sweep artifact, mirroring ``multi_config_report``.

    Configs inside the model predict in O(histogram); the rest replay on
    the flat simulator (array backend where it applies), each with its
    reasons recorded in the ``analytic_fallback_reasons`` matrix — the
    analytic twin of the memsim report's ``oracle_fallbacks`` contract.
    """
    from repro.core.backend import resolve_backend
    from repro.core.cache import config_fingerprint
    from repro.memsim.simulator import simulate_flat_trace

    resolved = resolve_backend(backend)
    if model is None:
        model = AnalyticCacheModel.from_flat(per_core_traces)
    results = []
    fallbacks = []
    for index, config in enumerate(configs):
        reasons = model.applicability(config)
        if reasons:
            result = simulate_flat_trace(per_core_traces, config, resolved)
            fallbacks.append({"index": index, "reasons": reasons})
            analytic = False
        else:
            result = model.predict(config)
            analytic = True
        results.append(
            {
                "config": config_fingerprint(config),
                "result": result.to_dict(),
                "analytic": analytic,
            }
        )
    return {
        "format": ANALYTIC_FORMAT,
        "schema_version": ANALYTIC_SCHEMA_VERSION,
        "target": target,
        "backend": resolved,
        "num_configs": len(configs),
        "tolerance": ANALYTIC_MISS_RATE_TOLERANCE,
        "results": results,
        "analytic_fallback_reasons": fallbacks,
    }
