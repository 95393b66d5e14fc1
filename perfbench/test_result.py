"""Tests of the benchmark's own result check, span accounting and
host-speed scaling.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_result.py -q
"""

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import host_speed  # noqa: E402
from result import Metric, Result, emit, problems  # noqa: E402
from trace_layers import Span, Tracer  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "memsim.simulator.simt_s", "unit": "s", "better": "lower"},
        {"name": "core.shared_cache.hits", "unit": "count",
         "better": "higher"},
    ],
}


def good_result() -> Result:
    return Result(correct=True, attempted=10, failed=0, metrics={
        "setup_s": Metric(0.41, "s", 3),
        "ops_per_s": Metric(12.5, "1/s", 4),
        "peak_rss_mb": Metric(80.2, "MiB"),
    })


def test_good_result_prints_json_last_line():
    out, err = io.StringIO(), io.StringIO()
    assert emit(good_result(), SPEC, trace=False, out=out, err=err) == 0
    line = json.loads(out.getvalue().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 0.41, "unit": "s"}
    assert err.getvalue() == ""


@pytest.mark.parametrize("breakage, reason", [
    (lambda r: r.metrics.pop("ops_per_s"), "declared but missing"),
    (lambda r: r.metrics.update(extra=Metric(1.0, "s", 1)), "not declared"),
    (lambda r: setattr(r.metrics["setup_s"], "unit", "ms"), "declared 's'"),
    (lambda r: setattr(r.metrics["setup_s"], "value", float("nan")),
     "non-numeric"),
    (lambda r: setattr(r.metrics["setup_s"], "value", "0.4"),
     "non-numeric"),
    (lambda r: setattr(r.metrics["peak_rss_mb"], "unit", ""), "no unit"),
    (lambda r: setattr(r.metrics["ops_per_s"], "samples", None),
     "states no sample count"),
    (lambda r: setattr(r.metrics["setup_s"], "samples", 0),
     "states no sample count"),
    (lambda r: setattr(r, "attempted", 0), "attempted is below 1"),
    (lambda r: setattr(r, "failed", 11), "outside 0..attempted"),
    (lambda r: setattr(r, "failed", 1.5), "failed is not a whole number"),
])
def test_known_bad_result_exits_nonzero_without_output(breakage, reason):
    result = good_result()
    breakage(result)
    out, err = io.StringIO(), io.StringIO()
    assert emit(result, SPEC, trace=False, out=out, err=err) != 0
    assert out.getvalue() == ""
    message = err.getvalue()
    assert reason in message
    assert message.count("\n") == 1


def test_per_layer_timing_may_be_zero_over_zero_samples():
    result = Result(correct=True, attempted=1, failed=0, metrics={
        "memsim.simulator.simt_s": Metric(0.0, "s", 0),
        "core.shared_cache.hits": Metric(0, "count"),
    })
    assert problems(result, SPEC, trace=True) == []
    assert problems(result, SPEC, trace=False)  # wrong metric set


def test_self_time_subtracts_child_coverage():
    tracer = Tracer("t")
    spans = [Span(0, "root", 0.0, None), Span(1, "a", 1.0, 0),
             Span(2, "b", 2.0, 1), Span(3, "a", 5.0, 0)]
    for span, end in zip(spans, (10.0, 4.0, 3.0, 6.0)):
        span.end = end
    tracer.spans = spans
    totals = tracer.layer_totals()
    assert totals["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["a"]["busy_s"] == pytest.approx(4.0)
    assert totals["a"]["self_s"] == pytest.approx(3.0 - 1.0 + 1.0)
    assert totals["a"]["calls"] == 2


def test_nested_same_layer_counts_busy_time_once():
    tracer = Tracer("t")
    outer, inner = Span(0, "scan", 0.0, None), Span(1, "scan", 1.0, 0)
    outer.end, inner.end = 5.0, 3.0
    tracer.spans = [outer, inner]
    totals = tracer.layer_totals()
    assert totals["scan"]["busy_s"] == pytest.approx(5.0)
    assert totals["scan"]["self_s"] == pytest.approx(5.0)


def test_wrap_and_unpatch_restore_the_original():
    class Owner:
        @classmethod
        def build(cls, x):
            return x + 1

        def run(self, x):
            return x * 2

    tracer = Tracer("t")
    original_run = Owner.__dict__["run"]
    tracer.wrap(Owner, "build", "layer.build")
    tracer.wrap(Owner, "run", "layer.run",
                after=lambda t, r: t.counts.update(runs=r))
    assert Owner.build(1) == 2
    assert Owner().run(3) == 6
    assert [s.name for s in tracer.spans] == ["layer.build", "layer.run"]
    assert tracer.counts["runs"] == 6
    tracer.unpatch()
    assert Owner.__dict__["run"] is original_run
    assert isinstance(Owner.__dict__["build"], classmethod)


def test_reference_seconds_scale_by_the_mean_probe():
    ref = host_speed.REFERENCE_S
    # A step that ran while the probe took twice its reference time ran
    # on a host half as fast: it reports half its wall time.
    assert host_speed.reference_seconds(3.0, 2 * ref) == pytest.approx(1.5)
    assert host_speed.reference_seconds(3.0, None) == 3.0


def test_sampler_probes_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with host_speed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 10 * host_speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples and sampler.mean_probe_s() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
