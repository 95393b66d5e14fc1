"""In-memory span tracer and the layer wrappers of the traced run.

The traced run (``--trace 1``) replaces one entry point per G-MAP layer
with a wrapper that opens a span around the original call.  The
replacement is plain attribute assignment on the owning module or class,
made in the benchmark process only, so the program itself carries no
tracing code.  Spans hold a name, start, end, parent id and run id; they
stay in memory and are written once, when the run ends.

A layer's *busy* time is the length of its outermost spans; its *self*
time is each span's duration minus the part of that interval its child
spans cover.  Both are summed per layer name.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers the traced run times, in report order.  Each name is the
#: metric prefix: ``<name>_s`` (busy), ``<name>.self_s`` and
#: ``<name>.calls``.
TIMED_LAYERS: Tuple[str, ...] = (
    "workloads.make",
    "core.profiler.profile",
    "core.generator.generate",
    "analysis.verify.verify",
    "gpu.executor.execute",
    "gpu.executor.drain",
    "memsim.simulator.simt",
    "memsim.vectorized.decode",
    "memsim.vectorized.replay",
    "analytical.analytic.from_flat",
    "analytical.analytic.prepare",
    "analytical.analytic.predict",
    "core.cache.store",
    "validation.resilience.journal",
)

#: Root span of one ``run_experiment`` call; its self time is the sweep
#: engine's own work outside every named layer.
SWEEP_ENGINE = "validation.parallel.run_experiment"


class Span:
    """One timed call: ``end`` stays None while the call is open."""

    __slots__ = ("span_id", "name", "start", "end", "parent")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class Window:
    """Spans ``first``..``last`` and the counts recorded meanwhile."""

    first: int
    last: int
    counts: Counter


class Tracer:
    """Collects spans and counters of one benchmark run (one thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", Any], None]] = None,
        on_error: Optional[Callable[["Tracer", BaseException], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned call to the original.

        ``after`` sees the result of each call, ``on_error`` each
        exception (which is re-raised).  Class and static methods keep
        their binding.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        binder = None
        func = original
        if isinstance(original, (classmethod, staticmethod)):
            binder = type(original)
            func = original.__func__

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                try:
                    result = func(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None:
                        on_error(self, exc)
                    raise
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        setattr(owner, attr, binder(traced) if binder else traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self, first: int = 0, last: Optional[int] = None
                     ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s`` over the
        spans recorded at indexes ``first`` to ``last``."""
        spans = self.spans[first:last]
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, Dict[str, float]] = {}
        for span in spans:
            entry = totals.setdefault(
                span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            if not self._has_ancestor_named(span, span.name):
                entry["busy_s"] += span.duration
            entry["self_s"] += span.duration - _covered(
                span, children.get(span.span_id, ()))
        return totals

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def write(self, path: Path) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "counts": dict(self.counts),
            "spans": [
                {"id": s.span_id, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "run_id": self.run_id}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _covered(span: Span, kids: Any) -> float:
    """Length of the union of ``kids`` intervals, clipped to ``span``."""
    end = span.start + span.duration
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        start = max(kid.start, cursor)
        stop = min(kid.start + kid.duration, end)
        if stop > start:
            covered += stop - start
            cursor = stop
    return covered


def run_traced(tracer: Tracer, body: Callable[[], Any]) -> Tuple[Any, Window]:
    """Run ``body`` with the layer wrappers installed; returns its value and
    the window of spans and counts it recorded."""
    first = len(tracer.spans)
    before = Counter(tracer.counts)
    install_layer_wrappers(tracer)
    try:
        value = body()
    finally:
        tracer.unpatch()
    counts = Counter(tracer.counts)
    counts.subtract(before)
    return value, Window(first, len(tracer.spans), counts)


def _count_transactions(tracer: Tracer, assignments: Any) -> None:
    tracer.counts["gpu.executor.transactions"] += sum(
        a.transaction_count for a in assignments)


def _count_requests(tracer: Tracer, result: Any) -> None:
    tracer.counts["memsim.simulator.requests"] += result.requests_issued


def _count_replay_fallback(tracer: Tracer, exc: BaseException) -> None:
    from repro.memsim.vectorized import UnsupportedConfigError

    if isinstance(exc, UnsupportedConfigError):
        tracer.counts["memsim.vectorized.oracle_fallbacks"] += 1


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's entry points, at every place callers look them up.

    Functions imported by name into another module are patched there
    too, since callers resolve the name in their own module.
    """
    import repro.analysis as analysis_pkg
    from repro.analysis import verify
    from repro.analytical.analytic import AnalyticCacheModel
    from repro.core.cache import ArtifactCache
    from repro.core.generator import ProxyGenerator
    from repro.core.profiler import GmapProfiler
    from repro.gpu import executor
    from repro.memsim import simulator, vectorized
    from repro.validation import harness, resilience
    from repro.workloads import suite

    tracer.wrap(suite, "make", "workloads.make")
    tracer.wrap(GmapProfiler, "profile", "core.profiler.profile")
    tracer.wrap(ProxyGenerator, "generate", "core.generator.generate")
    tracer.wrap(ProxyGenerator, "generate_warp_traces",
                "core.generator.generate")
    tracer.wrap(verify, "verify_profile", "analysis.verify.verify")
    tracer.wrap(analysis_pkg, "verify_profile", "analysis.verify.verify")
    for module in (executor, harness):
        tracer.wrap(module, "execute_kernel", "gpu.executor.execute",
                    after=_count_transactions)
        tracer.wrap(module, "flat_drain", "gpu.executor.drain")
    tracer.wrap(simulator.SimtSimulator, "run", "memsim.simulator.simt",
                after=_count_requests)
    tracer.wrap(vectorized.FlatTraceArrays, "__init__",
                "memsim.vectorized.decode")
    tracer.wrap(vectorized, "simulate_flat_arrays",
                "memsim.vectorized.replay", on_error=_count_replay_fallback)
    tracer.wrap(AnalyticCacheModel, "from_flat",
                "analytical.analytic.from_flat")
    # ``prepare`` is the public warm-up; sweeps reach the same per-set
    # reuse scans lazily through the two memoized scan builders.
    for attr in ("prepare", "_l1_scans", "_l2_scan"):
        tracer.wrap(AnalyticCacheModel, attr, "analytical.analytic.prepare")
    tracer.wrap(AnalyticCacheModel, "predict", "analytical.analytic.predict")
    for attr in ("store_pipeline", "store_pair", "store_sd_profile"):
        tracer.wrap(ArtifactCache, attr, "core.cache.store")
    tracer.wrap(resilience.RunJournal, "record_chunk",
                "validation.resilience.journal")
