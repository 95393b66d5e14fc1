"""The benchmark's result line and the self-check it passes before printing.

A result is ``correct``/``attempted``/``failed`` plus named metrics.
Before the last line is printed, :func:`problems` checks it against the
metric lists declared in ``BENCHMARK.json``: every declared metric of the
run's kind (end-to-end for an untraced run, per-layer for a traced one)
is present and nothing else, each has its declared unit and a finite
numeric value, and every timing states how many samples it summarises
(at least one for an end-to-end timing; a per-layer timing of a layer the
workload never reaches is 0 over 0 samples).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TextIO

#: Units that mark a metric as a timing (or a rate derived from timings).
TIMING_UNITS = frozenset({"s", "ms", "1/s"})


@dataclass
class Metric:
    """One measured value; ``samples`` is required for timings."""

    value: float
    unit: str
    samples: Optional[int] = None


@dataclass
class Result:
    """What one benchmark run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Metric]


def declared_units(spec: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the run's kind, from ``BENCHMARK.json``."""
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def problems(result: Result, spec: Dict[str, Any], trace: bool) -> List[str]:
    """Every way ``result`` breaks the declared output format."""
    found: List[str] = []
    if not isinstance(result.correct, bool):
        found.append("correct is not a boolean")
    for name in ("attempted", "failed"):
        value = getattr(result, name)
        if isinstance(value, bool) or not isinstance(value, int):
            found.append(f"{name} is not a whole number")
    if isinstance(result.attempted, int) and result.attempted < 1:
        found.append("attempted is below 1")
    if (isinstance(result.failed, int) and isinstance(result.attempted, int)
            and not 0 <= result.failed <= result.attempted):
        found.append("failed is outside 0..attempted")
    declared = declared_units(spec, trace)
    for name in sorted(set(declared) - set(result.metrics)):
        found.append(f"metric {name} is declared but missing")
    for name in sorted(set(result.metrics) - set(declared)):
        found.append(f"metric {name} is not declared")
    for name, metric in sorted(result.metrics.items()):
        value = metric.value
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            found.append(f"metric {name} has a non-numeric value {value!r}")
        if not metric.unit:
            found.append(f"metric {name} has no unit")
        elif name in declared and metric.unit != declared[name]:
            found.append(f"metric {name} has unit {metric.unit!r}, "
                         f"declared {declared[name]!r}")
        if metric.unit in TIMING_UNITS and not _states_samples(
                metric, minimum=0 if trace else 1):
            found.append(f"timing {name} states no sample count")
    return found


def _states_samples(metric: Metric, minimum: int) -> bool:
    # A per-layer timing of a layer the workload never reaches is 0 over
    # 0 samples; an end-to-end timing always summarises at least one.
    samples = metric.samples
    return (isinstance(samples, int) and not isinstance(samples, bool)
            and samples >= minimum)


def emit(result: Result, spec: Dict[str, Any], trace: bool,
         out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    """Print the result (last line: the JSON object) or refuse to.

    Returns the exit code: 0 after printing, 3 with a one-line reason on
    stderr and nothing on ``out`` when the result fails :func:`problems`.
    """
    found = problems(result, spec, trace)
    if found:
        print(f"perfbench: malformed result: {'; '.join(found)}", file=err)
        return 3
    samples = {name: m.samples for name, m in sorted(result.metrics.items())
               if m.samples is not None}
    print("samples " + json.dumps(samples, sort_keys=True), file=out)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in sorted(result.metrics.items())
        },
    }
    print(json.dumps(line), file=out, flush=True)
    return 0
