"""The ``serve_mix`` workload: a seeded job stream through a 1-replica fleet.

A :class:`repro.service.fleet.Fleet` (router in this process, one
``gmap serve`` replica with two fork workers, a fresh shared result
cache) is driven closed-loop by two client threads: each submits a job,
polls it to a terminal status, then takes the next job of the stream.

The stream mixes five job types — SIMT ``simulate``, analytic L1-sweep
``simulate``, ``profile``, ``generate`` from an inline profile built at
set-up, and ``validate`` of the reduced fig6a grid on one kernel.  Which
jobs are built is the same for every seed; the seed orders each round of
five builds, picks the generate/validate seeds, and places the repeats:
three of every ten jobs resubmit an earlier job, so they read the shared
cache instead of building.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from sweep_workloads import digest

#: Every kernel of the paper suite; simulate and profile jobs walk it in
#: this fixed order, so the built work is the same for every seed.
SUITE_ORDER: Tuple[str, ...] = (
    "heartwall", "backprop", "kmeans", "srad", "hotspot", "nw", "lud",
    "bfs", "pathfinder", "streamcluster", "scalarprod", "blackscholes",
    "fwt", "montecarlo", "sortingnetworks", "cp", "lib", "aes",
)
#: Kernels whose reduced fig6a validate takes well under a second at tiny
#: scale.  pathfinder is left out: its validate job comes back partial
#: (a known defect, see perfbench/README.md).
VALIDATE_POOL: Tuple[str, ...] = (
    "backprop", "nw", "scalarprod", "blackscholes", "fwt",
    "sortingnetworks", "lib", "heartwall",
)
#: The kernel whose profile generate jobs carry inline.
GENERATE_PROFILE_KERNEL = "kmeans"
JOB_TYPES: Tuple[str, ...] = (
    "simulate", "simulate_sweep", "profile", "generate", "validate")
STREAM_LENGTH = 600
BLOCK = 10
REPEATS_PER_BLOCK = 3
CLIENTS = 2
POLL_INTERVAL = 0.01
JOB_DEADLINE = 60.0
SCALE = "tiny"
CORES = 8
BACKEND = "numpy"


@dataclass
class Job:
    """One stream entry; ``repeat_of`` is the index of the job it repeats."""

    index: int
    job_type: str
    payload: Dict[str, Any]
    repeat_of: Optional[int] = None

    @property
    def key(self) -> str:
        """Stable identity of the submission body (kind + params)."""
        return digest(self.payload)


def _build_payload(job_type: str, ordinal: int, rng: random.Random,
                   profile: Dict[str, Any]) -> Dict[str, Any]:
    common = {"scale": SCALE, "cores": CORES}
    if job_type == "simulate":
        return {"kind": "simulate", "params": dict(
            common, target=SUITE_ORDER[ordinal % len(SUITE_ORDER)])}
    if job_type == "simulate_sweep":
        return {"kind": "simulate", "params": dict(
            common, target=SUITE_ORDER[ordinal % len(SUITE_ORDER)],
            sweep="l1", analytic=True)}
    if job_type == "profile":
        return {"kind": "profile", "params": {
            "benchmark": SUITE_ORDER[ordinal % len(SUITE_ORDER)],
            "scale": SCALE,
            "coalescing": (ordinal // len(SUITE_ORDER)) % 2 == 0}}
    if job_type == "generate":
        return {"kind": "generate", "params": {
            "profile": profile, "seed": rng.randrange(1, 2**31)}}
    return {"kind": "validate", "params": dict(
        common, experiment="fig6a",
        benchmarks=[VALIDATE_POOL[ordinal % len(VALIDATE_POOL)]],
        seed=rng.randrange(1, 2**31))}


def make_stream(seed: int, profile: Dict[str, Any],
                length: int = STREAM_LENGTH) -> List[Job]:
    """The seeded, fixed job stream (the program sees only these bodies).

    Builds cycle through the five types, each round of five in a seeded
    order.  Kernel-keyed types run out of distinct keys after
    ``len(SUITE_ORDER)`` (``2x`` for profile) builds and then hand their
    slot to ``generate``; that hand-over happens at the same build for
    every seed.
    """
    rng = random.Random(seed)
    limits = {"simulate": len(SUITE_ORDER), "simulate_sweep": len(SUITE_ORDER),
              "profile": 2 * len(SUITE_ORDER)}
    ordinals = {job_type: 0 for job_type in JOB_TYPES}
    jobs: List[Job] = []
    builds: List[int] = []
    round_types: List[str] = []
    repeat_slots: set = set()
    for index in range(length):
        if index % BLOCK == 0:
            first = index == 0
            slots = rng.sample(range(1 if first else 0, BLOCK),
                               REPEATS_PER_BLOCK)
            repeat_slots = {index + slot for slot in slots}
        if index in repeat_slots and builds:
            original = jobs[rng.choice(builds)]
            jobs.append(Job(index, original.job_type, original.payload,
                            repeat_of=original.index))
            continue
        if not round_types:
            round_types = list(JOB_TYPES)
            rng.shuffle(round_types)
        job_type = round_types.pop()
        if ordinals[job_type] >= limits.get(job_type, length):
            job_type = "generate"
        payload = _build_payload(job_type, ordinals[job_type], rng, profile)
        ordinals[job_type] += 1
        builds.append(index)
        jobs.append(Job(index, job_type, payload))
    return jobs


@dataclass
class JobRecord:
    """Client-side view of one submitted job."""

    job: Job
    submitted: float = 0.0
    finished: float = 0.0
    status: str = "pending"
    outcome: Dict[str, Any] = field(default_factory=dict)
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.submitted) * 1e3

    @property
    def cache_status(self) -> str:
        events = self.outcome.get("integrity_events") or {}
        for status in ("hit", "coalesced", "built"):
            if events.get(f"shared_cache_{status}"):
                return status
        return "uncached"


def setup(seed: int) -> Tuple[Dict[str, Any], List[Job]]:
    """Import the service stack, build the inline profile and the stream."""
    import repro.service.fleet  # noqa: F401
    import repro.service.handlers  # noqa: F401
    import repro.service.router  # noqa: F401
    from repro.core.profiler import GmapProfiler
    from repro.workloads import suite

    profile = GmapProfiler(backend=BACKEND).profile(
        suite.make(GENERATE_PROFILE_KERNEL, scale=SCALE)).to_dict()
    return profile, make_stream(seed, profile)


def boot_fleet(work: Path, env: Dict[str, str]):
    """Start a 1-replica fleet with a fresh shared cache under ``work``."""
    from repro.service.fleet import Fleet, FleetConfig

    config = FleetConfig(
        replicas=1, workers=2, backend=BACKEND, job_timeout=JOB_DEADLINE,
        shared_cache_dir=str(work / "shared-cache"), extra_env=env,
        boot_timeout=60.0)
    fleet = Fleet(config)
    fleet.start()
    return fleet


def _drive(base: str, record: JobRecord) -> None:
    from repro.service.protocol import TERMINAL_STATUSES
    from repro.service.router import http_json

    record.submitted = time.perf_counter()
    try:
        status, body = http_json("POST", f"{base}/jobs", record.job.payload)
    except OSError as exc:
        record.finished = time.perf_counter()
        record.status, record.error = "lost", f"submit: {exc}"
        return
    if status in (429, 503):
        record.finished = time.perf_counter()
        record.status = "shed"
        return
    if status != 202:
        record.finished = time.perf_counter()
        record.status, record.error = "failed", f"submit http {status}"
        return
    job_id = body["job_id"]
    deadline = record.submitted + JOB_DEADLINE
    while time.perf_counter() < deadline:
        try:
            code, state = http_json("GET", f"{base}/jobs/{job_id}")
        except OSError:
            code, state = 0, {}
        if code == 200 and state.get("status") in TERMINAL_STATUSES:
            record.finished = time.perf_counter()
            record.outcome = state
            if state["status"] != "completed":
                record.status = "failed"
                record.error = str(state.get("error_kind") or state["status"])
            elif state.get("degraded"):
                record.status = "degraded"
                record.error = ",".join(state.get("degraded_reasons") or ())
            else:
                record.status = "completed"
            return
        time.sleep(POLL_INTERVAL)
    record.finished = time.perf_counter()
    record.status, record.error = "lost", "no terminal status"


def run_load(base: str, stream: List[Job], seconds: float
             ) -> Tuple[List[JobRecord], float]:
    """Closed loop: CLIENTS threads take the next stream job until the
    stream ends or ``seconds`` pass; returns records and elapsed time."""
    records: List[JobRecord] = []
    lock = threading.Lock()
    cursor = iter(stream)
    start = time.perf_counter()

    def client() -> None:
        while time.perf_counter() - start < seconds:
            with lock:
                job = next(cursor, None)
                if job is None:
                    return
                record = JobRecord(job)
                records.append(record)
            _drive(base, record)

    threads = [threading.Thread(target=client, name=f"bench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_DEADLINE + 30.0)
    elapsed = time.perf_counter() - start
    return sorted(records, key=lambda r: r.job.index), elapsed


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def time_handlers(records: List[JobRecord]) -> Dict[str, Any]:
    """Run each distinct built payload once in-process, no shared cache.

    Returns per-type median milliseconds, per-key milliseconds and the
    in-process result digests (compared against the fleet's results).
    """
    from repro.service.handlers import execute_job

    per_type: Dict[str, List[float]] = {}
    per_key_ms: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    for record in records:
        job = record.job
        if job.repeat_of is not None or job.key in per_key_ms:
            continue
        if record.status != "completed":
            continue
        t0 = time.perf_counter()
        outcome = execute_job(dict(job.payload), BACKEND)
        ms = (time.perf_counter() - t0) * 1e3
        per_key_ms[job.key] = ms
        per_type.setdefault(job.job_type, []).append(ms)
        digests[job.key] = (digest(outcome.get("result"))
                            if outcome.get("ok") else "error")
    return {
        "type_ms": {t: statistics.median(v) for t, v in per_type.items()},
        "type_samples": {t: len(v) for t, v in per_type.items()},
        "key_ms": per_key_ms,
        "digests": digests,
    }
