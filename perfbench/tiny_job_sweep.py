"""Workload ``tiny_job_sweep``: thousands of tiny simulated points through
the 2-worker process pool into an on-disk result cache, then the same
grid again, served from that cache.

Each point simulates in well under a millisecond, so pool start-up,
dispatch, pickling and the checksummed cache writes and reads take most
of the time and the sim kernel does little.  The seed draws the model's
knobs and the block of simulator seeds that makes every point a
distinct cache key.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from perfbench.common import (Outcome, check, clear_memos, fresh_dir,
                              median)
from perfbench.tracing import OFF

NAME = "tiny_job_sweep"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9

WORKERS = min(2, os.cpu_count() or 1)
PROCESSES = (2, 4)
SEEDS_PER_POINT = 500           # jobs = len(PROCESSES) * this
VERIFY_SAMPLE = 24
LAYER_SAMPLE = 200

#: Rounds that start with a cold pass into a fresh cache; later rounds
#: are warm passes over those caches.  This bounds the files one run
#: leaves behind (the benchmark deletes nothing, see
#: ``common.fresh_dir``) to COLD_ROUNDS × jobs.
COLD_ROUNDS = 6

PER_LAYER = (
    ("sweep.execute_job_us", "us"),
    ("sweep.dispatch_us_per_job", "us"),
    ("sweep.pool_startup_ms", "ms"),
    ("sweep.cache_put_us", "us"),
    ("sweep.cache_get_us", "us"),
    ("sweep.cache_entry_bytes", "bytes"),
    ("sweep.cache_hits", "count"),
)


@dataclass
class State:
    jobs: list
    model: object
    seed: int


def prepare(seed: int) -> State:
    from repro.scenarios import build_scenario
    from repro.sweep import SweepSpec, expand
    rng = random.Random(seed)
    model = build_scenario("butterfly_allreduce", rounds=1,
                           vector_bytes=float(rng.randint(512, 4096)),
                           flop_cost=rng.uniform(0.5e-9, 2e-9))
    base = rng.randrange(1 << 20) * SEEDS_PER_POINT
    spec = SweepSpec(models=[("tiny", model)], processes=list(PROCESSES),
                     backends=["codegen"],
                     seeds=list(range(base, base + SEEDS_PER_POINT)))
    return State(expand(spec), model, seed)


def _payloads(result) -> list[dict]:
    return [{"predicted_time": r.predicted_time, "events": r.events,
             "trace_records": r.trace_records} for r in result]


def _sweep(state: State, cache_dir):
    from repro.sweep import ResultCache, run_sweep
    return run_sweep(state.jobs, cache=ResultCache(cache_dir),
                     executor="process", max_workers=WORKERS,
                     trace="summary")


def measure(state: State, seconds: float | None = None,
            rounds: int | None = None, tr=OFF) -> Outcome:
    jobs = len(state.jobs)
    cold_walls, warm_walls = [], []
    caches = []
    failed = 0
    first: tuple | None = None
    done = 0
    start = time.perf_counter()
    while True:
        if done < COLD_ROUNDS:
            caches.append(fresh_dir("tiny-cache"))
            clear_memos()
            t0 = time.perf_counter()
            with tr.operation("sweep.cold_pass"):
                cold = _sweep(state, caches[-1])
            cold_walls.append(time.perf_counter() - t0)
            failed += len(cold.failed())
        clear_memos()
        t0 = time.perf_counter()
        with tr.operation("sweep.warm_pass"):
            warm = _sweep(state, caches[done % len(caches)])
        warm_walls.append(time.perf_counter() - t0)
        failed += len(warm.failed())
        tr.add("sweep.cache_hits", warm.cache_stats.hits)
        check(warm.cache_stats.hits == jobs == warm.cached_count,
              f"warm pass hit the cache {warm.cache_stats.hits} times "
              f"for {jobs} jobs")
        if first is None:
            first = (_payloads(cold), _payloads(warm),
                     [r.job for r in cold], [r.status for r in cold])
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if tr.enabled:
        _trace_layers(state, first[2], tr)

    outcome = Outcome(rounds=done, wall=sum(cold_walls) + sum(warm_walls))
    outcome.count(jobs * (len(cold_walls) + len(warm_walls)), failed)
    # Medians over the rounds: a slow window of the host (this pass
    # forks processes and writes thousands of files) moves a figure
    # only when it covers most rounds.
    outcome.metrics["ops_per_s"] = (jobs / median(cold_walls), "1/s")
    outcome.metrics["aux_ops_per_s"] = (jobs / median(warm_walls), "1/s")
    outcome.extra["tiny_cold_points_per_s"] = outcome.metrics["ops_per_s"]
    outcome.extra["tiny_warm_points_per_s"] = outcome.metrics["aux_ops_per_s"]
    outcome.extra["cold_pass_p50_ms"] = (median(cold_walls) * 1e3, "ms")
    outcome.extra["warm_pass_p50_ms"] = (median(warm_walls) * 1e3, "ms")
    verify(state, *first, outcome)
    return outcome


def verify(state: State, cold: list[dict], warm: list[dict], jobs,
           statuses: list[str], outcome: Outcome) -> None:
    from perfbench import checks
    from repro.estimator.backends import evaluate_point
    checks.all_ok(statuses, NAME)
    checks.payloads_identical(cold, warm, "warm pass vs cold pass")
    rng = random.Random(state.seed ^ 0x7111)
    for index in rng.sample(range(len(jobs)), VERIFY_SAMPLE):
        job = jobs[index]
        reference = evaluate_point(state.model, job.backend, job.params,
                                   job.network, job.seed,
                                   trace="summary")
        checks.matches_reference(cold[index], reference,
                                 f"tiny job {index}")
    outcome.checks.append(
        f"warm payloads byte-equal to cold ones; {VERIFY_SAMPLE} sampled "
        "points equal in-process evaluate_point; warm pass all cache hits")


def _trace_layers(state: State, jobs, tr) -> None:
    """Time the layers a tiny job crosses, one public call at a time."""
    from repro.sweep import ResultCache, execute_job, run_sweep
    sample = jobs[:LAYER_SAMPLE]
    clear_memos()
    execute_job(sample[0], "summary")  # parses and memoizes the model
    payloads = []
    for job in sample:
        with tr.span("sweep.execute_job"):
            outcome = execute_job(job, "summary")
        payloads.append((job.cache_key(), outcome))
    cache = ResultCache(fresh_dir("tiny-layer-cache"))
    for key, outcome in payloads:
        with tr.span("sweep.cache_put"):
            path = cache.put(key, {k: outcome[k] for k in
                                   ("predicted_time", "events",
                                    "trace_records")})
        tr.add("sweep.cache_entry_bytes", path.stat().st_size)
    for key, _ in payloads:
        with tr.span("sweep.cache_get"):
            cache.get(key)
    for _ in range(3):
        clear_memos()
        with tr.span("sweep.pool_startup"):
            run_sweep(jobs[:WORKERS], cache=None, executor="process",
                      max_workers=WORKERS, min_pool_jobs=0,
                      trace="summary")


def layer_metrics(tr, outcome: Outcome) -> dict[str, tuple[float, str]]:
    execute = median(tr.durations("sweep.execute_job"))
    put = median(tr.durations("sweep.cache_put"))
    startup = (median(tr.durations("sweep.pool_startup"))
               - WORKERS * execute)
    cold = tr.durations("sweep.cold_pass")
    jobs = len(PROCESSES) * SEEDS_PER_POINT
    dispatch = (median(cold) - startup) / jobs - execute / WORKERS - put
    samples = len(tr.durations("sweep.cache_put"))
    return {
        "sweep.execute_job_us": (execute * 1e6, "us"),
        "sweep.dispatch_us_per_job": (dispatch * 1e6, "us"),
        "sweep.pool_startup_ms": (startup * 1e3, "ms"),
        "sweep.cache_put_us": (put * 1e6, "us"),
        "sweep.cache_get_us": (
            median(tr.durations("sweep.cache_get")) * 1e6, "us"),
        "sweep.cache_entry_bytes": (
            tr.counters["sweep.cache_entry_bytes"] / samples, "bytes"),
        "sweep.cache_hits": (
            tr.counters["sweep.cache_hits"] // outcome.rounds, "count"),
    }
