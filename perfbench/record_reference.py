"""Record the output digests the benchmark checks its runs against.

Run from the root of a checkout, after a change that is *meant* to alter
simulated results (never after a speed-up, which must leave them
identical)::

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: for the default and the held-out
seed, the per-sweep-point digests of each ``validate`` unit (one kernel
in one sim mode) and the per-payload result digests of the whole
``serve_mix`` stream (each payload run once in-process); ``sweep_flat``
does not depend on the seed and gets one entry, per unit (kernel and
grid), for every seed.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import serve_workload as sv
    import sweep_workloads as sw
    from repro.service.handlers import execute_job

    work = HERE / ".work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    run.hermetic_env(work)
    reference = {}
    try:
        kernels = sw.setup()
        seeds = {"validate": (run.DEFAULT_SEED, run.HELD_OUT_SEED),
                 "sweep_flat": (run.DEFAULT_SEED,)}
        for workload, workload_seeds in seeds.items():
            reference[workload] = {}
            for seed in workload_seeds:
                units = {}
                for key in sw.unit_keys(workload, seed):
                    cold = work / f"{workload}-{seed}-{len(units)}"
                    raw = sw.run_unit(workload, key, kernels, seed, cold)
                    outcome = sw.check_unit(workload, key, raw, cold,
                                            check_traces=True)
                    if outcome.problems:
                        print("\n".join(outcome.problems), file=sys.stderr)
                        return 1
                    units[key] = outcome.digests
                label = "any" if workload == "sweep_flat" else str(seed)
                reference[workload][label] = units
                print(f"{workload} seed {label}: "
                      f"{sum(map(len, units.values()))} points")
        reference["serve_mix"] = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            digests = {}
            for job in sv.setup(seed)[1]:
                if job.key in digests:
                    continue
                outcome = execute_job(dict(job.payload), sv.BACKEND)
                if not outcome.get("ok") or outcome.get("degraded_reasons"):
                    print(f"serve_mix seed {seed}: job {job.index} "
                          f"({job.job_type}) failed: {outcome}",
                          file=sys.stderr)
                    return 1
                digests[job.key] = sv.digest(outcome["result"])
            reference["serve_mix"][str(seed)] = digests
            print(f"serve_mix seed {seed}: {len(digests)} payloads")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
