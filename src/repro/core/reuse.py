"""Exact LRU stack (reuse) distance computation.

Reuse distance is the number of *distinct* data elements accessed between the
current access and the previous access to the same element (Mattson et al.,
"Evaluation techniques for storage hierarchies", IBM Syst. J. 1970).  G-MAP
tracks intra-thread temporal locality as an LRU stack-distance histogram per
dominant memory-instruction profile (paper section 4.3, Figure 5).

One engine, one numpy-free fallback, one oracle:

``stack_distances_array``
    The engine: an offline, fully vectorised, exact O(n log^2 n) kernel.
    Every numpy-present caller (the ``stack`` reuse semantics, the
    analytic per-set scan, the Tang/Nugteren profiles, the working-set
    curve) goes through it, directly or via :func:`distance_histogram`.

``StackDistanceTracker``
    The streaming O(n log n) algorithm: a Fenwick (binary indexed) tree over
    access timestamps stores a 1 at the timestamp of the *most recent* access
    to each element.  The distance of an access at time ``t`` to an element
    last touched at time ``t0`` is the number of set bits strictly between
    ``t0`` and ``t`` — i.e. the number of distinct other elements touched in
    between.  It is the path for interpreters without NumPy.

``naive_stack_distances``
    The textbook O(n * u) LRU stack maintained as a list.  Used as the trusted
    oracle in tests.

Cold (first-touch) accesses have infinite distance, reported as
:data:`COLD_MISS` (-1) so histograms can keep an explicit cold bucket.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

try:  # Array-backed kernels are optional; the scalar path has no deps.
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:
    import numpy.typing as npt

#: Sentinel distance for a first-touch (compulsory / cold) access.
COLD_MISS = -1


class _FenwickTree:
    """Binary indexed tree supporting point update and prefix sum.

    Indices are 1-based internally; the public methods accept 0-based
    positions.  The tree grows geometrically when an index beyond the current
    capacity is touched, so callers do not need to know the trace length in
    advance.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int = 1024) -> None:
        self._size = max(1, size)
        self._tree = [0] * (self._size + 1)

    def _grow(self, needed: int) -> None:
        new_size = self._size
        while new_size < needed:
            new_size *= 2
        # Rebuild: Fenwick trees cannot be resized in place cheaply, but a
        # rebuild from point values is O(n) and happens O(log n) times.
        # Node i covers positions (i - lowbit(i), i], so peeling off the
        # sibling subtotals below it leaves the point value at i; the inner
        # loop runs lowbit-length steps, which sums to O(n) over all i.
        old = self._tree
        values = [0] * (new_size + 1)
        for i in range(1, self._size + 1):
            v = old[i]
            j = i - 1
            stop = i - (i & (-i))
            while j > stop:
                v -= old[j]
                j -= j & (-j)
            values[i] = v
        # Classic O(n) construction: each node pushes its subtotal up to
        # its parent once.
        for i in range(1, new_size + 1):
            parent = i + (i & (-i))
            if parent <= new_size:
                values[parent] += values[i]
        self._size = new_size
        self._tree = values

    def add(self, pos: int, delta: int) -> None:
        """Add ``delta`` at 0-based position ``pos``."""
        if pos >= self._size:
            self._grow(pos + 1)
        i = pos + 1
        tree = self._tree
        size = self._size
        while i <= size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, pos: int) -> int:
        """Sum of values at 0-based positions ``[0, pos]``."""
        if pos < 0:
            return 0
        i = min(pos + 1, self._size)
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of values at 0-based positions ``[lo, hi]``."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)


def lookback_gaps(
    elements: "npt.ArrayLike", positions: "npt.ArrayLike"
) -> "npt.NDArray[_np.int64]":
    """Vectorized previous-occurrence gaps (the lookback reuse kernel).

    ``elements[i]`` (e.g. cache-line ids) was touched at instance slot
    ``positions[i]``; for every *repeat* touch the result holds
    ``positions[i] - positions[prev] - 1`` — the number of intervening
    instance slots since the previous touch of the same element, exactly
    what the scalar ``last_instance`` loop feeds the P_R histogram.  First
    touches contribute nothing (they are the cold misses).  Result order is
    a permutation of the scalar emission order, which is irrelevant to the
    histogram.
    """
    if _np is None:  # pragma: no cover - guarded by backend resolution
        raise RuntimeError("lookback_gaps requires numpy")
    keys = _np.asarray(elements, dtype=_np.int64)
    slots = _np.asarray(positions, dtype=_np.int64)
    if len(keys) == 0:
        return _np.array([], dtype=_np.int64)
    order = _np.lexsort((slots, keys))
    e = keys[order]
    p = slots[order]
    repeat = e[1:] == e[:-1]
    return p[1:][repeat] - p[:-1][repeat] - 1


def stack_distances_array(elements: "npt.ArrayLike") -> "npt.NDArray[_np.int64]":
    """LRU stack distances of an integer element array (the engine).

    Offline and exact.  One stable argsort links every access ``t`` to
    the previous access ``p`` of its element.  Of the ``t - p - 1``
    accesses in between, the repeats — accesses ``k`` whose own previous
    access ``prev(k)`` also lies inside ``(p, t)`` — are exactly the ones
    that add no distinct element, so::

        distance(t) = (t - p - 1) - #{k in (p, t) : prev(k) > p}

    Since every ``k <= p`` has ``prev(k) < p``, the range count is the
    prefix count over ``k < t``, answered for every access at once with a
    merge-sort tree over the repeat accesses: at level ``L`` their
    ``prev`` values are sorted within aligned blocks of ``2**L``
    positions, the prefix ``[0, t)`` splits into the blocks picked by the
    set bits of ``t``, and one vectorised ``searchsorted`` per level counts
    a block's entries above ``p``.  Blocks that end at or before ``p + 1``
    hold nothing to count, so an access leaves the loop once its prefix
    blocks fall behind its window — the short windows of a set-sorted
    stream finish after a few levels.  O(n log^2 n) worst case, no depth
    limit.  Cold misses are :data:`COLD_MISS`.

    >>> stack_distances_array([0, 0, 1, 1, 0, 1, 1, 0]).tolist()
    [-1, 0, -1, 0, 1, 1, 0, 1]
    """
    if _np is None:  # pragma: no cover - guarded by backend resolution
        raise RuntimeError("stack_distances_array requires numpy")
    arr = _np.asarray(elements, dtype=_np.int64)
    n = len(arr)
    out = _np.full(n, COLD_MISS, dtype=_np.int64)
    if n < 2:
        return out
    order = _np.argsort(arr, kind="stable")
    repeat = arr[order[1:]] == arr[order[:-1]]
    now = order[1:][repeat]
    last = order[:-1][repeat]
    out[now] = now - last - 1
    # The tree holds the repeat accesses in position order, keyed by
    # ``prev + 1 <= n``; an offset of ``width`` per block keeps a level's
    # blocks apart in one sorted array, and ``before[i]`` (repeats at
    # positions < i) is where the block ending at ``i`` ends in it.
    width = n + 1
    by_position = _np.argsort(now)
    points = now[by_position]
    keys = last[by_position] + 1
    before = _np.zeros(n + 1, dtype=_np.int64)
    before[points + 1] = 1
    _np.cumsum(before, out=before)
    # Accesses whose prefix still has blocks ending after ``p + 1``.
    query = _np.flatnonzero(now - last > 1)
    level = 0
    while len(query):
        end = now[query]
        floor = last[query] + 1
        picked = ((end >> level) & 1) == 1
        if picked.any():
            block = (end[picked] >> level) - 1
            tree = _np.sort((points >> level) * width + keys)
            nested = before[(block + 1) << level] - _np.searchsorted(
                tree, block * width + floor[picked], side="right"
            )
            out[now[query[picked]]] -= nested
        level += 1
        query = query[((end >> level) << level) > floor]
    return out


def distance_histogram(elements: Sequence[int]) -> Tuple[int, Dict[int, int]]:
    """``(cold misses, {distance: count})`` of one element stream.

    The array engine when NumPy is importable, the scalar tracker
    otherwise.  Either way the histogram's keys come in order of first
    occurrence, so float sums over ``items()`` do not depend on which
    path built it.
    """
    if _np is None:
        colds = 0
        histogram: Dict[int, int] = {}
        for distance in stack_distances(elements):
            if distance == COLD_MISS:
                colds += 1
            else:
                histogram[distance] = histogram.get(distance, 0) + 1
        return colds, histogram
    distances = stack_distances_array(elements)
    warm = distances[distances != COLD_MISS]
    values, first, counts = _np.unique(
        warm, return_index=True, return_counts=True
    )
    order = _np.argsort(first)
    return len(distances) - len(warm), dict(
        zip(values[order].tolist(), counts[order].tolist())
    )


class StackDistanceTracker:
    """Streaming exact LRU stack-distance tracker.

    Feed elements (any hashable — G-MAP uses cache-line numbers) one at a time
    with :meth:`access`; each call returns the LRU stack distance of that
    access, or :data:`COLD_MISS` for a first touch.

    >>> t = StackDistanceTracker()
    >>> [t.access(x) for x in ["a", "b", "b", "a"]]
    [-1, -1, 0, 1]
    """

    __slots__ = ("_last_time", "_tree", "_clock")

    def __init__(self) -> None:
        self._last_time: Dict[Hashable, int] = {}
        self._tree = _FenwickTree()
        self._clock = 0

    def access(self, element: Hashable) -> int:
        """Record an access and return its LRU stack distance."""
        now = self._clock
        self._clock = now + 1
        prev = self._last_time.get(element)
        if prev is None:
            distance = COLD_MISS
        else:
            distance = self._tree.range_sum(prev + 1, now - 1)
            self._tree.add(prev, -1)
        self._last_time[element] = now
        self._tree.add(now, 1)
        return distance

    @property
    def unique_elements(self) -> int:
        """Number of distinct elements seen so far."""
        return len(self._last_time)

    @property
    def accesses(self) -> int:
        """Total number of accesses recorded."""
        return self._clock


def stack_distances(trace: Iterable[Hashable]) -> Iterator[int]:
    """Yield the LRU stack distance of every access in ``trace``.

    First touches yield :data:`COLD_MISS`.
    """
    tracker = StackDistanceTracker()
    for element in trace:
        yield tracker.access(element)


def naive_stack_distances(trace: Iterable[Hashable]) -> List[int]:
    """O(n*u) oracle implementation using an explicit LRU stack."""
    stack: List[Hashable] = []
    out: List[int] = []
    for element in trace:
        try:
            depth = stack.index(element)
        except ValueError:
            out.append(COLD_MISS)
        else:
            out.append(depth)
            del stack[depth]
        stack.insert(0, element)
    return out


def miss_rate_from_distances(distances: Iterable[int], capacity: int) -> float:
    """Fully-associative LRU miss rate implied by a stack-distance stream.

    An access misses in a fully-associative LRU cache of ``capacity`` lines
    iff its stack distance is >= ``capacity`` (cold misses always miss).
    Returns 0.0 for an empty stream.
    """
    misses = 0
    total = 0
    for d in distances:
        total += 1
        if d == COLD_MISS or d >= capacity:
            misses += 1
    return misses / total if total else 0.0
