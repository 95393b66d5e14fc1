"""The two in-process sweep workloads and their output checks.

``validate`` runs what a cold ``gmap validate --benchmarks <kernel>``
runs, once per kernel and sim mode: :meth:`SweepRunner.run_experiment`
with one worker, the artifact cache and the run journal on, both in an
empty directory; SIMT mode over the reduced fig6a grid, analytic mode
over the full fig6a and fig6b grids.  ``sweep_flat`` runs what a cold
``gmap simulate <kernel> --sweep l1|l2 --full`` runs, once per kernel
and grid: ``execute_kernel`` -> ``flat_drain`` -> ``multi_config_report``.

Each of those invocations is one *unit*, named by its key
(``simt/kmeans``, ``srad/l2``, ...).  A *cycle* runs every key of the
workload once, in a seeded order; one cold sweep of the workload is one
cycle.

Every sweep point's results are digested; the digests are compared with
the recorded references (``reference.json``) or, for a seed without a
reference, with the run's first unit of the same key.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

KERNELS: Tuple[str, ...] = ("kmeans", "srad", "bfs")
SCALE = "tiny"
CORES = 8
BACKEND = "numpy"

#: (experiment id, reduced grid) per sim mode of the ``validate`` units.
VALIDATE_PLANS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "simt": (("fig6a", True),),
    "analytic": (("fig6a", False), ("fig6b", False)),
}
#: The paper's claim per sim mode: mean |original - proxy| miss rate (pp)
#: and mean Pearson r of each level the mode's experiments measure.
FIDELITY_METRICS: Tuple[str, ...] = (
    "simt_l1_err_pp", "simt_l1_corr",
    "analytic_l1_err_pp", "analytic_l1_corr", "analytic_l2_err_pp")
#: Grids of ``sweep_flat``, each replayed in full on every kernel.
FLAT_GRIDS: Tuple[str, ...] = ("l1", "l2")


def digest(payload: Any) -> str:
    """Short digest of a JSON-serialisable payload (canonical form)."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class UnitOutcome:
    """One checked unit: everything the output checks and metrics need."""

    key: str
    points: int = 0
    failed_points: int = 0
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Per experiment id, the unit's ``ExperimentReport`` (validate only).
    reports: Dict[str, Any] = field(default_factory=dict)
    modelled: Dict[str, float] = field(default_factory=dict)
    analytic_fallbacks: int = 0
    cache_bytes: int = 0


def setup() -> List[Any]:
    """Import what the sweeps run and build the kernel models (set-up)."""
    import repro.analysis.verify  # noqa: F401
    import repro.analytical.analytic  # noqa: F401
    import repro.memsim.simulator  # noqa: F401
    import repro.memsim.vectorized  # noqa: F401
    import repro.validation.experiments  # noqa: F401
    import repro.validation.parallel  # noqa: F401
    from repro.workloads import suite

    return [suite.make(name, scale=SCALE) for name in KERNELS]


def unit_keys(workload: str, seed: int) -> List[str]:
    """The keys of one cycle, in the seeded order the run uses."""
    if workload == "sweep_flat":
        keys = [f"{k}/{g}" for k in KERNELS for g in FLAT_GRIDS]
    else:
        keys = [f"{m}/{k}" for m in VALIDATE_PLANS for k in KERNELS]
    random.Random(seed).shuffle(keys)
    return keys


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _add_modelled(totals: Dict[str, float], cycles: float, l1_misses: int,
                  l2_misses: int) -> None:
    for name, value in (("memsim.cycles", cycles),
                        ("memsim.l1.misses", l1_misses),
                        ("memsim.l2.misses", l2_misses)):
        totals[name] = totals.get(name, 0) + value


def run_unit(workload: str, key: str, kernels: Sequence[Any], seed: int,
             cold: Path, tracer: Any = None) -> Any:
    """The timed part of one unit; :func:`check_unit` digests its result."""
    by_name = {k.name: k for k in kernels}
    if workload == "sweep_flat":
        name, grid = key.split("/")
        return _flat_unit(by_name[name], grid, tracer)
    sim_mode, name = key.split("/")
    return _validate_unit(sim_mode, by_name[name], seed, cold, tracer)


def _validate_unit(sim_mode: str, kernel: Any, seed: int, cold: Path,
                   tracer: Any) -> List[Tuple[str, Any, Any, List[Any]]]:
    from repro.validation import parallel
    from repro.validation.experiments import experiment
    from repro.validation.parallel import SweepRunner

    from trace_layers import SWEEP_ENGINE

    class CapturingRunner(SweepRunner):
        """Keeps the per-kernel sweep results behind the report."""

        last_sweeps: List[Any] = []

        def run(self, *args: Any, **kwargs: Any) -> Any:
            self.last_sweeps = super().run(*args, **kwargs)
            return self.last_sweeps

    cold.mkdir(parents=True, exist_ok=True)
    # A fresh ``gmap validate`` process starts with an empty pipeline
    # memo; the journal's run id is deterministic, so clear it per unit.
    parallel._WORKER_PIPELINES.clear()
    runs = []
    for experiment_id, reduced in VALIDATE_PLANS[sim_mode]:
        spec = experiment(experiment_id)
        runner = CapturingRunner(
            jobs=1, use_cache=True, cache_dir=cold / "cache",
            journal=True, journal_dir=cold / "journal")
        span = tracer.span(SWEEP_ENGINE) if tracer else nullcontext()
        with span:
            report = runner.run_experiment(
                [kernel], spec.configs(reduced=reduced), spec.metric,
                seed=seed, num_cores=CORES, backend=BACKEND,
                sim_mode=sim_mode)
        runs.append((experiment_id, spec.configs(reduced=reduced), report,
                     runner.last_sweeps))
    return runs


def _flat_unit(kernel: Any, grid: str, tracer: Any) -> Tuple[Any, Any, Any]:
    from repro.gpu import executor
    from repro.memsim import simulator
    from repro.validation import sweeps

    grids = {"l1": sweeps.l1_sweep, "l2": sweeps.l2_sweep}
    span = tracer.span("bench.simulate_sweep") if tracer else nullcontext()
    with span:
        assignments = executor.execute_kernel(kernel, CORES)
        flat = executor.flat_drain(assignments)
        configs = [c.with_(num_cores=CORES)
                   for c in grids[grid](reduced=False)]
        report = simulator.multi_config_report(
            flat, configs, backend=BACKEND, target=kernel.name)
    return flat, configs, report


def check_unit(workload: str, key: str, raw: Any, cold: Path,
               check_traces: bool = False) -> UnitOutcome:
    """Digest and check one unit's results (untimed); removes ``cold``.

    With ``check_traces`` a ``sweep_flat`` unit's drained trace is also
    asked which configs it would send to the scalar oracle for trace
    reasons (texture/constant traffic).
    """
    outcome = UnitOutcome(key)
    if workload == "sweep_flat":
        _check_flat(outcome, *raw, check_traces=check_traces)
    else:
        outcome.cache_bytes = _tree_bytes(cold / "cache")
        _check_validate(outcome, raw)
    shutil.rmtree(cold, ignore_errors=True)
    return outcome


def _check_validate(outcome: UnitOutcome, runs: List[Any]) -> None:
    from repro.core.cache import sim_result_to_payload

    for experiment_id, configs, report, sweeps in runs:
        outcome.reports[experiment_id] = report
        outcome.points += len(configs)
        label = f"{experiment_id}/{outcome.key}"
        missing = sum(f.num_configs for f in report.failures)
        if missing:
            outcome.failed_points += missing
            outcome.problems.append(f"{label}: {missing} sweep points "
                                    f"quarantined")
        for sweep in sweeps:
            fallbacks = len(sweep.analytic_fallbacks)
            if fallbacks:
                outcome.analytic_fallbacks += fallbacks
                outcome.failed_points += fallbacks
                outcome.problems.append(
                    f"{label}: {fallbacks} analytic fallbacks")
            for pair in sweep.pairs:
                outcome.digests.append(digest([
                    sim_result_to_payload(pair.original),
                    sim_result_to_payload(pair.proxy)]))
                for result in (pair.original, pair.proxy):
                    _add_modelled(outcome.modelled, result.cycles,
                                  result.l1.misses, result.l2.misses)


def _check_flat(outcome: UnitOutcome, flat: Any, configs: List[Any],
                report: Dict[str, Any], check_traces: bool) -> None:
    from repro.analysis.verify import verify_multi_config_report
    from repro.memsim.vectorized import FlatTraceArrays

    label = outcome.key
    if check_traces:
        arrays = FlatTraceArrays(flat)
        fallbacks = sum(1 for c in configs if arrays.fallback_reasons(c))
        if fallbacks:
            outcome.failed_points += fallbacks
            outcome.problems.append(f"{label}: {fallbacks} configs fall "
                                    f"back to the oracle on trace features")
    outcome.points += report["num_configs"]
    findings = verify_multi_config_report(report, origin=label)
    if findings:
        outcome.failed_points += report["num_configs"]
        outcome.problems.append(
            f"{label}: multi-config verifier: {findings[0].message}")
    fallbacks = len(report["oracle_fallbacks"])
    if fallbacks:
        outcome.failed_points += fallbacks
        outcome.problems.append(f"{label}: {fallbacks} oracle fallbacks")
    for entry in report["results"]:
        block = entry["result"]
        outcome.digests.append(digest(block))
        _add_modelled(outcome.modelled, block["cycles"],
                      block["l1"]["misses"], block["l2"]["misses"])


def fidelity(outcomes: Sequence[UnitOutcome]) -> Dict[str, float]:
    """The paper's claim over one cycle of ``validate`` units: per sim mode
    and level, the ``ExperimentReport`` mean |original - proxy| miss rate
    (pp) and mean Pearson r over the kernels, in :data:`KERNELS` order.
    Keys are :data:`FIDELITY_METRICS`."""
    from repro.validation.harness import ExperimentReport

    by_key = {o.key: o for o in outcomes}
    found: Dict[str, float] = {}
    for sim_mode, plan in VALIDATE_PLANS.items():
        for experiment_id, _reduced in plan:
            parts = [by_key[f"{sim_mode}/{k}"].reports[experiment_id]
                     for k in KERNELS]
            report = ExperimentReport(
                metric=parts[0].metric,
                comparisons=[c for p in parts for c in p.comparisons],
                failures=[f for p in parts for f in p.failures])
            level = "l1" if report.metric.startswith("l1") else "l2"
            found[f"{sim_mode}_{level}_err_pp"] = report.mean_error * 100.0
            found[f"{sim_mode}_{level}_corr"] = report.mean_correlation
    return {name: found[name] for name in FIDELITY_METRICS}


def check_digests(outcomes: List[UnitOutcome],
                  reference: Optional[Dict[str, List[str]]]
                  ) -> Tuple[int, List[str]]:
    """Count sweep points whose digest differs from the reference.

    Without a recorded reference for this seed, the run's first unit of
    each key is the reference of the others (each unit starts cold, so a
    difference is nondeterminism).
    """
    failed = 0
    problems: List[str] = []
    first: Dict[str, List[str]] = {}
    for index, outcome in enumerate(outcomes):
        if reference is not None:
            base = reference.get(outcome.key, [])
            label = "recorded reference"
        else:
            base = first.setdefault(outcome.key, outcome.digests)
            label = "first unit"
        if len(outcome.digests) != len(base):
            failed += outcome.points
            problems.append(
                f"unit {index} ({outcome.key}): {len(outcome.digests)} point "
                f"digests, {label} has {len(base)}")
            continue
        bad = sum(1 for a, b in zip(outcome.digests, base) if a != b)
        if bad:
            failed += bad
            problems.append(f"unit {index} ({outcome.key}): {bad} point "
                            f"digests differ from the {label}")
    return failed, problems
