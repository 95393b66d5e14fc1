"""G-MAP benchmark: one workload per run, one JSON result line at the end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload validate --seed 1234 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``validate``    cold ``run_experiment`` per kernel, SIMT mode on reduced
                fig6a and analytic mode on fig6a + fig6b
``sweep_flat``  ``gmap simulate --sweep l1|l2 --full`` on numpy replay
``serve_mix``   a seeded job stream through a 1-replica fleet

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics, writing the spans to ``perfbench/.work/traces/``.
Sweep and set-up times are scaled to a reference host speed
(``host_speed.py``).
The result is checked against ``BENCHMARK.json`` before it is printed;
a malformed result exits 3 with a one-line reason instead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import host_speed
from result import TIMING_UNITS, Metric, Result, emit
from sweep_workloads import FIDELITY_METRICS
from trace_layers import SWEEP_ENGINE, TIMED_LAYERS, Tracer, Window, run_traced

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Seed whose digests ``reference.json`` records besides the default; a
#: later change confirms a claim on it after tuning on other seeds.
DEFAULT_SEED = 1234
HELD_OUT_SEED = 8191
#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPS = 5
#: Seconds a set-up probe may take before the run fails.
PROBE_TIMEOUT = 120.0

WORKLOADS = ("validate", "sweep_flat", "serve_mix")


class Context:
    """Per-run settings and scratch space."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.trace: bool = bool(args.trace)
        self.work = work
        self.tracer: Optional[Tracer] = (
            Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
            if self.trace else None)
        self._cold = 0

    def cold_dir(self) -> Path:
        """A fresh, empty directory for one cold unit."""
        self._cold += 1
        path = self.work / f"cold-{self._cold}"
        path.mkdir(parents=True)
        return path

    def traced(self, body: Callable[[], Any]) -> Tuple[Any, Window]:
        """Run ``body`` with the layer wrappers installed."""
        assert self.tracer is not None
        return run_traced(self.tracer, body)


def load_reference(workload: str, seed: int) -> Optional[Any]:
    """Recorded output digests for ``seed`` (or for every seed), if any."""
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    return entry.get(str(seed), entry.get("any"))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (and of reaped children), MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def median(values: List[float]) -> float:
    """Median of ``values``; 0 for none (a layer or job type never seen)."""
    return statistics.median(values) if values else 0.0


def program_setup(workload: str, seed: int) -> Any:
    """Import the program modules the workload runs and build its inputs:
    the kernel models, or for ``serve_mix`` the inline profile and the
    job stream."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if workload == "serve_mix":
        import serve_workload

        return serve_workload.setup(seed)
    import sweep_workloads

    return sweep_workloads.setup()


def probe_setup(ctx: "Context") -> List[float]:
    """Reference seconds from process start to set-up done, per fresh
    interpreter.

    Imports happen once per process, so each sample is a new
    ``setup_probe.py`` process; the clock stops when it reports ready,
    with the mean host-speed probe time it measured meanwhile.
    """
    times = []
    argv = [sys.executable, str(HERE / "setup_probe.py"), ctx.workload,
            str(ctx.seed)]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        words = line.split()
        if words[:1] != ["ready"] or len(words) != 2 or proc.returncode:
            raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
        mean_probe = None if words[1] == "none" else float(words[1])
        times.append(host_speed.reference_seconds(wall, mean_probe))
    return times


def in_process_setup(ctx: "Context") -> Tuple[Any, Optional[Window]]:
    """The run's own set-up (traced, for ``workloads.make``, if tracing)."""
    body = lambda: program_setup(ctx.workload, ctx.seed)  # noqa: E731
    if ctx.tracer is None:
        return body(), None
    return ctx.traced(body)


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer: Tracer, windows: List[Window]) -> Dict[str, Metric]:
    """Per-layer busy/self seconds, calls and counts, each the median over
    the traced windows."""
    per_window = [tracer.layer_totals(w.first, w.last) for w in windows]
    samples = len(per_window)
    metrics: Dict[str, Metric] = {}

    def med(name: str, field: str) -> float:
        return median([w.get(name, {}).get(field, 0.0) for w in per_window])

    def count(name: str) -> float:
        return median([w.counts.get(name, 0) for w in windows])

    for name in TIMED_LAYERS:
        n = samples if any(name in w for w in per_window) else 0
        metrics[f"{name}_s"] = Metric(med(name, "busy_s"), "s", n)
        metrics[f"{name}.self_s"] = Metric(med(name, "self_s"), "s", n)
        metrics[f"{name}.calls"] = Metric(med(name, "calls"), "count")
    engine = any(SWEEP_ENGINE in w for w in per_window)
    metrics["validation.parallel.self_s"] = Metric(
        med(SWEEP_ENGINE, "self_s"), "s", samples if engine else 0)
    simt = metrics["memsim.simulator.simt_s"]
    requests = count("memsim.simulator.requests")
    metrics["memsim.simulator.requests"] = Metric(requests, "count")
    metrics["memsim.simulator.requests_per_s"] = Metric(
        requests / simt.value if simt.value else 0.0, "1/s", simt.samples)
    for name in ("gpu.executor.transactions",
                 "memsim.vectorized.oracle_fallbacks"):
        metrics[name] = Metric(count(name), "count")
    return metrics


def setup_layer_metrics(tracer: Tracer, window: Optional[Window]
                        ) -> Dict[str, Metric]:
    """``workloads.make`` as timed during the run's own set-up."""
    assert window is not None
    setup = layer_metrics(tracer, [window])
    return {key: setup[key] for key in (
        "workloads.make_s", "workloads.make.self_s", "workloads.make.calls")}


def zero_metrics(names_units: List[Tuple[str, str]]) -> Dict[str, Metric]:
    """Metrics of layers this workload never reaches: 0 over 0 samples."""
    return {name: Metric(0.0, unit, 0 if unit in TIMING_UNITS else None)
            for name, unit in names_units}


SERVICE_METRICS = [
    ("service.handlers.simulate_ms", "ms"),
    ("service.handlers.simulate_sweep_ms", "ms"),
    ("service.handlers.profile_ms", "ms"),
    ("service.handlers.generate_ms", "ms"),
    ("service.handlers.validate_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.hit_ms", "ms"),
    ("service.job_p95_ms", "ms"),
    ("core.shared_cache.hits", "count"),
    ("core.shared_cache.builds", "count"),
    ("core.shared_cache.coalesced", "count"),
    ("core.shared_cache.hit_ratio", "ratio"),
    ("service.router.routed", "count"),
    ("service.router.spilled", "count"),
    ("service.router.reassigned", "count"),
]
SWEEP_METRICS = [
    ("analytical.analytic.fallbacks", "count"),
    ("core.cache.bytes_written", "bytes"),
    ("sim.memsim.cycles", "sim_cycles"),
    ("sim.memsim.l1.misses", "sim_count"),
    ("sim.memsim.l2.misses", "sim_count"),
] + [(f"sim.fidelity.{name}", "sim_r" if name.endswith("corr") else "sim_pp")
      for name in FIDELITY_METRICS]


# -- sweep workloads -----------------------------------------------------------


class UnitRun:
    """One timed unit: its wall and reference seconds, and its checked
    outcome."""

    def __init__(self, key: str, cycle: int, traced: bool, wall: float,
                 seconds: float, outcome: Any) -> None:
        self.key = key
        self.cycle = cycle
        self.traced = traced
        self.wall = wall
        self.seconds = seconds
        self.outcome = outcome


def sweep_units(ctx: Context, kernels: Any
                ) -> Tuple[List[UnitRun], List[Window]]:
    """Run units, cycle after cycle, while another one fits in the run.

    An untraced run may stop inside a cycle but always finishes the
    first.  A traced run alternates untraced and traced cycles (at least
    one of each) and stops only between cycles; each traced cycle is one
    window of spans, its checks made after the window closes.
    """
    import sweep_workloads as sw

    keys = sw.unit_keys(ctx.workload, ctx.seed)
    runs: List[UnitRun] = []
    windows: List[Window] = []
    start = time.perf_counter()

    def fits(keys_left: List[str]) -> bool:
        # Each unit costs its median wall time so far.
        cost = sum(median([r.wall for r in runs if r.key == key])
                   for key in keys_left)
        return time.perf_counter() - start + cost <= ctx.seconds

    def timed(key: str, cycle: int, traced: bool) -> Tuple[Any, ...]:
        cold = ctx.cold_dir()
        tracer = ctx.tracer if traced else None
        raw, wall, seconds = host_speed.timed(lambda: sw.run_unit(
            ctx.workload, key, kernels, ctx.seed, cold, tracer))
        return key, cycle, traced, wall, seconds, raw, cold

    def check(key: str, cycle: int, traced: bool, wall: float,
              seconds: float, raw: Any, cold: Path) -> None:
        outcome = sw.check_unit(ctx.workload, key, raw, cold,
                                check_traces=cycle == 0)
        runs.append(UnitRun(key, cycle, traced, wall, seconds, outcome))

    cycle = 0
    while True:
        traced = ctx.trace and cycle % 2 == 1
        if traced:
            done, window = ctx.traced(
                lambda: [timed(key, cycle, True) for key in keys])
            windows.append(window)
            for unit in done:
                check(*unit)
        else:
            for key in keys:
                if cycle and not ctx.trace and not fits([key]):
                    return runs, windows
                check(*timed(key, cycle, False))
        cycle += 1
        if ctx.trace and cycle >= 2 and not fits(keys):
            return runs, windows


def run_sweep_workload(ctx: Context, setup_times: List[float]) -> Result:
    import sweep_workloads as sw

    kernels, setup_window = in_process_setup(ctx)
    runs, windows = sweep_units(ctx, kernels)
    keys = sw.unit_keys(ctx.workload, ctx.seed)
    outcomes = [r.outcome for r in runs]
    first_cycle = [r.outcome for r in runs if r.cycle == 0]

    failed = sum(o.failed_points for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    digest_failed, digest_problems = sw.check_digests(
        outcomes, load_reference(ctx.workload, ctx.seed))
    failed += digest_failed
    problems += digest_problems
    attempted = sum(o.points for o in outcomes)
    for r in runs:
        print(f"unit {r.key} {'traced' if r.traced else 'untraced'}: "
              f"{r.wall:.3f} s wall, {r.seconds:.3f} s reference",
              file=sys.stderr)
    for line in problems:
        print(f"check: {line}", file=sys.stderr)

    def sweep_s(traced: bool) -> Tuple[float, int]:
        """One cold sweep: the sum over keys of each key's median."""
        chosen = [r for r in runs if r.traced == traced]
        total = sum(median([r.seconds for r in chosen if r.key == key])
                    for key in keys)
        return total, len(chosen)

    untraced_s, untraced_n = sweep_s(False)
    if not ctx.trace:
        points = sum(o.points for o in first_cycle)
        metrics = {
            "setup_s": Metric(median(setup_times), "s", len(setup_times)),
            "latency_p50_ms": Metric(untraced_s * 1e3, "ms", untraced_n),
            "ops_per_s": Metric(points / untraced_s, "1/s", untraced_n),
            "peak_rss_mb": Metric(peak_rss_mb(), "MiB"),
        }
        return Result(correct=not problems, attempted=attempted,
                      failed=failed, metrics=metrics)

    tracer = ctx.tracer
    assert tracer is not None
    metrics = layer_metrics(tracer, windows)
    metrics.update(setup_layer_metrics(tracer, setup_window))
    modelled: Counter = Counter()
    for outcome in first_cycle:
        modelled.update(outcome.modelled)
    metrics["analytical.analytic.fallbacks"] = Metric(
        sum(o.analytic_fallbacks for o in first_cycle), "count")
    metrics["core.cache.bytes_written"] = Metric(
        sum(o.cache_bytes for o in first_cycle), "bytes")
    for name in ("cycles", "l1.misses", "l2.misses"):
        unit = "sim_cycles" if name == "cycles" else "sim_count"
        metrics[f"sim.memsim.{name}"] = Metric(
            modelled[f"memsim.{name}"], unit)
    found = sw.fidelity(first_cycle) if ctx.workload == "validate" else {}
    for name in sw.FIDELITY_METRICS:
        unit = "sim_r" if name.endswith("corr") else "sim_pp"
        metrics[f"sim.fidelity.{name}"] = Metric(found.get(name, 0.0), unit)
    metrics.update(zero_metrics(SERVICE_METRICS))
    traced_s, _ = sweep_s(True)
    metrics["bench.trace_overhead_frac"] = Metric(
        (traced_s - untraced_s) / untraced_s, "frac")
    metrics["bench.failed_frac"] = Metric(failed / attempted, "frac")
    return Result(correct=not problems, attempted=attempted, failed=failed,
                  metrics=metrics)


# -- serve workload ------------------------------------------------------------


def run_serve_workload(ctx: Context, setup_times: List[float]) -> Result:
    import serve_workload as sv

    env = {
        "PYTHONPATH": str(SRC),
        "GMAP_CACHE_DIR": os.environ["GMAP_CACHE_DIR"],
        "TMPDIR": os.environ["TMPDIR"],
    }
    (_profile, stream), setup_window = in_process_setup(ctx)
    boots: List[float] = []
    fleet = None
    try:
        for attempt in range(SETUP_REPS):
            if fleet is not None:
                fleet.stop()
            t0 = time.perf_counter()
            fleet = sv.boot_fleet(ctx.work / f"fleet-{attempt}", env)
            boots.append(time.perf_counter() - t0)
        records, elapsed = sv.run_load(fleet.router_url, stream, ctx.seconds)
        counters = fleet.snapshot().get("counters", {})
    finally:
        if fleet is not None:
            fleet.stop()

    reference = load_reference(ctx.workload, ctx.seed)
    failed = 0
    problems: List[str] = []
    built: Dict[str, str] = {}
    for record in records:
        if record.status != "completed":
            failed += 1
            problems.append(f"job {record.job.index} ({record.job.job_type}) "
                            f"{record.status}: {record.error}")
            continue
        got = sv.digest(record.outcome.get("result"))
        want = (reference.get(record.job.key) if reference is not None
                else built.setdefault(record.job.key, got))
        if got != want:
            failed += 1
            problems.append(f"job {record.job.index} ({record.job.job_type}) "
                            f"result digest {got} != {want}")
    completed = [r for r in records if r.status == "completed"]
    # A job that failed or was refused missed every latency limit: it
    # counts at the client's deadline.
    latencies = [r.latency_ms if r.status == "completed"
                 else sv.JOB_DEADLINE * 1e3 for r in records]

    handlers = window = None
    if ctx.trace:
        handlers, window = ctx.traced(lambda: sv.time_handlers(records))
        for key, got in handlers["digests"].items():
            fleet_digest = next(sv.digest(r.outcome.get("result"))
                                for r in completed if r.job.key == key)
            if got != fleet_digest:
                failed += 1
                problems.append(f"payload {key}: in-process result differs "
                                f"from the fleet's")
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    attempted = max(1, len(records))

    if not ctx.trace:
        metrics = {
            "setup_s": Metric(median(setup_times) + median(boots), "s",
                              len(boots)),
            "latency_p50_ms": Metric(median(latencies), "ms", len(latencies)),
            "ops_per_s": Metric(len(completed) / elapsed, "1/s",
                                len(records)),
            "peak_rss_mb": Metric(peak_rss_mb(children=True), "MiB"),
        }
        return Result(correct=not problems, attempted=attempted,
                      failed=failed, metrics=metrics)

    tracer = ctx.tracer
    assert tracer is not None and handlers is not None
    assert window is not None
    metrics = layer_metrics(tracer, [window])
    metrics.update(setup_layer_metrics(tracer, setup_window))
    metrics.update(zero_metrics(SWEEP_METRICS))
    for job_type in sv.JOB_TYPES:
        metrics[f"service.handlers.{job_type}_ms"] = Metric(
            handlers["type_ms"].get(job_type, 0.0), "ms",
            handlers["type_samples"].get(job_type, 0))
    builds = [r for r in completed if r.cache_status == "built"]
    hits = [r for r in completed if r.cache_status == "hit"]
    in_process = [handlers["key_ms"][r.job.key] for r in builds
                  if r.job.key in handlers["key_ms"]]
    metrics["service.overhead_ms"] = Metric(
        median([r.latency_ms for r in builds]) - median(in_process), "ms",
        len(builds))
    metrics["service.hit_ms"] = Metric(
        median([r.latency_ms for r in hits]), "ms", len(hits))
    metrics["service.job_p95_ms"] = Metric(
        sv.percentile(latencies, 95), "ms", len(latencies))
    statuses = Counter(r.cache_status for r in completed)
    for key, status in (("hits", "hit"), ("builds", "built"),
                        ("coalesced", "coalesced")):
        metrics[f"core.shared_cache.{key}"] = Metric(statuses[status], "count")
    shared = statuses["hit"] + statuses["built"] + statuses["coalesced"]
    metrics["core.shared_cache.hit_ratio"] = Metric(
        statuses["hit"] / max(1, shared), "ratio")
    for key in ("routed", "spilled", "reassigned"):
        metrics[f"service.router.{key}"] = Metric(
            counters.get(key, 0), "count")
    # The load phase carries no instrumentation in either mode: spans are
    # taken only in the in-process handler phase that follows it.
    metrics["bench.trace_overhead_frac"] = Metric(0.0, "frac")
    metrics["bench.failed_frac"] = Metric(failed / attempted, "frac")
    return Result(correct=not problems, attempted=attempted, failed=failed,
                  metrics=metrics)


# -- entry point ---------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env(work: Path) -> None:
    """Keep every file the program writes inside ``work``."""
    for name in list(os.environ):
        if name.startswith("GMAP_"):
            del os.environ[name]
    os.environ["GMAP_CACHE_DIR"] = str(work / "gmap-cache")
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = None  # re-read TMPDIR


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: error: run from the root of a G-MAP checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hermetic_env(work)
    sys.path.insert(0, str(SRC))
    ctx = Context(args, work)
    runner = (run_serve_workload if args.workload == "serve_mix"
              else run_sweep_workload)
    try:
        result = runner(ctx, probe_setup(ctx))
    finally:
        if ctx.tracer is not None:
            ctx.tracer.unpatch()
            ctx.tracer.write(HERE / ".work" / "traces"
                             / f"{ctx.tracer.run_id}.json")
        shutil.rmtree(work, ignore_errors=True)
    return emit(result, spec, ctx.trace)


if __name__ == "__main__":
    sys.exit(main())
