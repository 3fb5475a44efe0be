"""Workload ``serve_mix``: a ``prophet serve`` subprocess under an
open-loop schedule of mixed requests.

Most requests are small cache-warm batches and analytic batches, where
transport dominates; some are cache-missing simulations; a few ingest
unseen models, which writes through the analyzer gate into the registry
beside the reads.  Load comes from this one process through at most
``nproc`` (here 2) client threads, each with one connection at a time.
A request is timed from when it was due, so a stall also counts
against the requests queued behind it.

Three phases: a fixed offered rate (the latency figures); a closed
loop in which every client thread sends its next request as soon as the
last completes (the most requests per second the server completes,
``ops_per_s``); and an open-loop ladder at fixed fractions of that rate,
reporting the highest rung that keeps the 90th percentile under the
limit with no growing backlog.  That ladder figure is printed but not
gated: on a 2-core host shared by client and server its rung flips
between runs by more than any useful bound.  Every request, its kind
and its due time come from the seed.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from perfbench.common import (ROOT, Outcome, check, fresh_dir, median,
                              percentile)
from perfbench.tracing import OFF

NAME = "serve_mix"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

CLIENT_THREADS = min(2, os.cpu_count() or 1)

#: Offered rate of the latency phase, requests/s (about 35% of what
#: this mix sustains on a 2-core host, so queueing stays small and a
#: slow spell of the host is not amplified by a growing queue).
FIXED_RATE = 30.0

#: Shares of the run length spent at the fixed rate, saturated, and on
#: the open-loop ladder.
FIXED_SHARE, SATURATE_SHARE, LADDER_SHARE = 0.55, 0.25, 0.2

#: Runs of completions the closed-loop phase is cut into.
SATURATE_WINDOWS = 8

#: Ladder rungs as fractions of the saturated rate.
LADDER = (0.7, 0.85, 1.0)

#: A rung passes when its 90th-percentile latency stays under this and
#: its last request completes within this of the rung's end.
LATENCY_LIMIT_S = 0.100

#: Shares of the request kinds (warm batch, analytic batch, cache-missing
#: simulation, ingest of an unseen model).
MIX = (("warm", 0.55), ("analytic", 0.25), ("miss", 0.12),
       ("ingest", 0.08))

#: Network latencies the analytic what-ifs draw from: users re-ask the
#: same few questions.  Set-up evaluates each once, so in the measured
#: phases analytic points come from the result cache like warm batches
#: (see perfbench/README.md for why they are not fresh each time).
ANALYTIC_LATENCIES = 6

#: Seconds ``prophet serve`` gets to print its address.
START_TIMEOUT_S = 60

SCENARIOS = ("pipeline", "stencil2d", "master_worker",
             "butterfly_allreduce", "fork_join")

PER_LAYER = (
    ("service.health_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.plan_batch_us", "us"),
    ("service.submit_inproc_ms", "ms"),
    ("service.http_server_mean_ms", "ms"),
    ("service.submit_mean_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_lookups", "count"),
    ("service.registry_ingest_ms", "ms"),
    ("service.rejected", "count"),
    ("service.generator_lag_ms", "ms"),
)


@dataclass
class Server:
    """A running ``prophet serve`` subprocess and what was loaded in it."""

    proc: subprocess.Popen
    url: str
    models: dict = field(default_factory=dict)     # ref → Model
    refs: list = field(default_factory=list)
    warm: list = field(default_factory=list)       # warm request batches
    latencies: tuple = ()                          # analytic what-ifs
    seed: int = 0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _start_server() -> tuple[subprocess.Popen, str]:
    registry_dir = fresh_dir("serve-registry")
    cache_dir = fresh_dir("serve-cache")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--registry",
         str(registry_dir), "--cache-dir", str(cache_dir), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if " on http://" not in line:
        proc.kill()
        proc.wait(timeout=20)
        raise RuntimeError(f"prophet serve did not start: {line!r}")
    url = line.split(" on ", 1)[1].split()[0]
    return proc, url


def prepare(seed: int) -> Server:
    from repro.scenarios import build_scenario
    from repro.service import ServiceClient
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.writer import model_to_xml

    rng = random.Random(seed)
    proc, url = _start_server()
    server = Server(proc, url, seed=seed,
                    latencies=tuple(rng.uniform(0.5e-6, 4e-6)
                                    for _ in range(ANALYTIC_LATENCIES)))
    try:
        client = ServiceClient(url)
        for name in SCENARIOS:
            model = build_scenario(name)
            record = client.ingest_xml(model_to_xml(model))
            check(record["ref"] == model_structural_hash(model),
                  f"ingest ref of {name} differs from its structural hash")
            server.models[record["ref"]] = model
            server.refs.append(record["ref"])
        for _ in range(16):
            ref = rng.choice(server.refs)
            batch = [{"model_ref": ref, "backend": "codegen",
                      "seed": rng.randrange(1000),
                      "params": {"processes": p}} for p in (2, 4)]
            server.warm.append(batch)
            client.evaluate(batch)
        # Every analytic what-if once, and a few requests of every
        # kind, so the measured phases see a server whose lazy imports,
        # per-model memos and analytic cache entries are in place, as
        # in a long-running service.
        for ref in server.refs:
            for latency in server.latencies:
                client.evaluate(_analytic_batch(ref, latency))
        for _, kind, body in schedule(server, rng, 200.0, 0.1):
            _call(client, Sample(kind, body, 0.0), OFF)
    except BaseException:
        server.close()
        raise
    return server



# -- the request schedule ----------------------------------------------------


def _unseen_model(rng: random.Random) -> tuple[str, str]:
    """(XML, structural hash) of a model the server has not seen: the
    stencil scenario with freshly drawn knob values, so every ingest
    stores and analyzes a new structure of the same size."""
    from repro.scenarios import build_scenario
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.writer import model_to_xml
    model = build_scenario("stencil2d", cell_cost=rng.uniform(1e-8, 1e-7),
                           halo_bytes=float(rng.randrange(1, 60000)))
    return model_to_xml(model), model_structural_hash(model)


def _analytic_batch(ref: str, latency: float) -> list[dict]:
    return [{"model_ref": ref, "backend": "analytic",
             "params": {"processes": p}, "network": {"latency": latency}}
            for p in (2, 4, 8, 16)]


def schedule(server: Server, rng: random.Random, rate: float,
             seconds: float) -> list[tuple]:
    """(due time from the phase start, kind, body) for an open-loop
    phase at ``rate``."""
    count = int(round(rate * seconds))
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * int(round(share * count))
    kinds = (kinds + ["warm"] * count)[:count]
    rng.shuffle(kinds)
    plan = []
    for index, kind in enumerate(kinds):
        due = index / rate
        if kind == "warm":
            body = rng.choice(server.warm)
        elif kind == "analytic":
            body = _analytic_batch(rng.choice(server.refs),
                                   rng.choice(server.latencies))
        elif kind == "miss":
            body = [{"model_ref": rng.choice(server.refs),
                     "backend": "codegen",
                     "seed": rng.randrange(10 ** 6, 10 ** 9),
                     "params": {"processes": rng.choice((2, 4))}}]
        else:
            body = _unseen_model(rng)
        plan.append((due, kind, body))
    return plan


@dataclass
class Sample:
    kind: str
    body: object
    due: float
    submitted: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: str = "ok"
    response: object = None


def _call(client, sample: Sample, tr) -> None:
    from repro.service import ServiceClientError
    sample.sent = time.perf_counter()
    try:
        with tr.operation(f"client.{sample.kind}"):
            if sample.kind == "ingest":
                sample.response = client.ingest_xml(sample.body[0])
            else:
                sample.response = client.evaluate(sample.body)
    except ServiceClientError as exc:
        sample.status = ("rejected" if exc.status in (429, 503)
                         else "unreachable" if exc.status is None
                         else "error")
    sample.done = time.perf_counter()


def run_phase(server: Server, plan, tr=OFF) -> list[Sample]:
    """Send ``plan`` open loop; returns one sample per request."""
    from repro.service import ServiceClient
    client = ServiceClient(server.url, timeout=30.0)
    samples = [Sample(kind, body, due) for due, kind, body in plan]
    origin = time.perf_counter()

    def send(sample: Sample) -> None:
        _call(client, sample, tr)

    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        futures = []
        for sample in samples:
            sample.due += origin
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample.submitted = time.perf_counter()
            futures.append(pool.submit(send, sample))
        for future in futures:
            future.result()
    return samples


def _latencies(samples) -> list[float]:
    return [s.done - s.due for s in samples]


def saturate(server: Server, rng: random.Random, seconds: float,
             tr=OFF) -> tuple[float, list[Sample]]:
    """Closed loop: every client thread sends its next request as soon
    as its last one completes.  Returns (completions/s, samples)."""
    from repro.service import ServiceClient
    client = ServiceClient(server.url, timeout=30.0)
    plan = iter(schedule(server, rng, 1000.0, seconds))
    lock = threading.Lock()
    samples: list[Sample] = []
    start = time.perf_counter()
    stop = start + seconds

    def worker() -> None:
        while time.perf_counter() < stop:
            with lock:
                item = next(plan, None)
            if item is None:
                return
            sample = Sample(item[1], item[2], time.perf_counter())
            sample.submitted = sample.due
            _call(client, sample, tr)
            samples.append(sample)

    threads = [threading.Thread(target=worker)
               for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
        check(not thread.is_alive(), "a client thread did not finish")
    # The completions cut into equal runs; each run's rate is its size
    # over the time it spanned, and the figure is the median rate, so a
    # slow spell of the host moves it only when it covers most runs.
    done = sorted(s.done for s in samples)
    size = max(2, len(done) // SATURATE_WINDOWS)
    rates = [(size - 1) / (done[i + size - 1] - done[i])
             for i in range(0, len(done) - size + 1, size)]
    return median(rates), samples


def measure(state: Server, seconds: float | None = None,
            rounds: int | None = None, tr=OFF) -> Outcome:
    """The three phases, sized by ``seconds``; ``rounds`` is accepted
    for symmetry with the other workloads (one pass is one round)."""
    from repro.service import ServiceClient
    rng = random.Random(state.seed ^ 0x5E)
    client = ServiceClient(state.url)
    before = client.metrics()
    fixed = run_phase(state, schedule(state, rng, FIXED_RATE,
                                      FIXED_SHARE * seconds), tr)
    after = client.metrics()
    capacity, saturated = saturate(state, rng, SATURATE_SHARE * seconds,
                                   tr)
    best_rate = 0.0
    ladder = []
    for fraction in LADDER:
        rate = fraction * capacity
        samples = run_phase(state, schedule(
            state, rng, rate, LADDER_SHARE * seconds / len(LADDER)), tr)
        ladder += samples
        lat = _latencies(samples)
        backlog = max(s.done for s in samples) - (
            max(s.due for s in samples) + 1.0 / rate)
        if all(s.status == "ok" for s in samples) \
                and percentile(lat, 90) <= LATENCY_LIMIT_S \
                and backlog <= LATENCY_LIMIT_S:
            best_rate = rate

    everything = fixed + saturated + ladder
    failed = [s for s in everything if s.status != "ok"]
    outcome = Outcome(rounds=1, wall=sum(s.done - s.sent
                                         for s in everything))
    outcome.count(len(everything), len(failed))
    lat = _latencies([s for s in fixed if s.status == "ok"])
    ingests = [s.done - s.due for s in fixed
               if s.kind == "ingest" and s.status == "ok"]
    outcome.metrics["ops_per_s"] = (capacity, "1/s")
    outcome.metrics["op_p50_ms"] = (median(lat) * 1e3, "ms")
    outcome.metrics["aux_p50_ms"] = (median(ingests) * 1e3, "ms")
    outcome.extra["serve_saturated_rps"] = (capacity, "1/s")
    outcome.extra["serve_max_rps (open-loop ladder, p90 limit "
                  f"{LATENCY_LIMIT_S * 1e3:g} ms)"] = (best_rate, "1/s")
    outcome.extra["serve_p50_ms"] = outcome.metrics["op_p50_ms"]
    for q in (99, 95, 90):
        if len(lat) * (100 - q) / 100 >= 10:
            outcome.extra[f"serve_p{q}_ms ({len(lat)} samples)"] = (
                percentile(lat, q) * 1e3, "ms")
            break
    outcome.extra[f"serve_ingest_p50_ms ({len(ingests)} samples)"] = \
        outcome.metrics["aux_p50_ms"]
    lags = [s.submitted - s.due for s in fixed + ladder]
    outcome.extra["generator_lag_p99_ms"] = (percentile(lags, 99) * 1e3,
                                             "ms")
    outcome.extra["rejected_or_failed"] = (len(failed), "count")
    verify(state, everything, outcome)
    if tr.enabled:
        outcome.detail["observed"] = (fixed, before, after, everything)
        _trace_layers(state, rng, tr)
    return outcome


def verify(state: Server, samples, outcome: Outcome) -> None:
    from perfbench import checks
    from repro.estimator.backends import evaluate_point
    from repro.service.request import request_from_payload
    references: dict[str, dict] = {}
    served = 0
    for sample in samples:
        if sample.status != "ok":
            continue
        if sample.kind == "ingest":
            check(sample.response["ref"] == sample.body[1],
                  "served ingest ref differs from the structural hash")
            continue
        for request, result in zip(sample.body,
                                   sample.response["results"]):
            key = json.dumps(request, sort_keys=True)
            if key not in references:
                parsed = request_from_payload(request)
                references[key] = evaluate_point(
                    state.models[parsed.model_ref], parsed.backend,
                    parsed.system_parameters(), parsed.network_config(),
                    parsed.seed, trace="summary")
            checks.all_ok([result["status"]], "served request")
            checks.matches_reference(result, references[key],
                                     f"served {sample.kind} request")
            served += 1
    outcome.checks.append(
        f"{served} served payloads equal in-process evaluate_point "
        f"({len(references)} distinct); every ingest ref equals the "
        "structural hash")


# -- the traced run's layer probes -------------------------------------------


def _trace_layers(state: Server, rng: random.Random, tr) -> None:
    """Time the serving layers one public call at a time: the transport
    floor over HTTP, and planning, submission and ingest in-process
    against a copy of the served registry."""
    from repro.service import EvaluationService, ServiceClient
    from repro.service.batcher import plan_batch
    from repro.service.registry import ModelRegistry
    from repro.service.request import request_from_payload
    from repro.xmlio.writer import model_to_xml

    client = ServiceClient(state.url)
    for _ in range(60):
        with tr.span("service.health"):
            client.health()
    registry = ModelRegistry(fresh_dir("serve-inproc-registry"))
    for model in state.models.values():
        registry.ingest_xml(model_to_xml(model))
    batches = [[request_from_payload(r) for r in batch]
               for batch in state.warm]
    for _ in range(10):
        for batch in batches:
            with tr.span("service.plan_batch"):
                plan_batch(batch, registry)
    service = EvaluationService(registry,
                                cache=fresh_dir("serve-inproc-cache"))
    try:
        for batch in batches:
            service.submit(batch)  # fills the cache: later submits hit
        for _ in range(5):
            for batch in batches:
                with tr.span("service.submit_inproc"):
                    service.submit(batch)
    finally:
        service.close()
    scratch = ModelRegistry(fresh_dir("serve-ingest-registry"))
    for _ in range(12):
        xml, _ = _unseen_model(rng)
        with tr.span("service.registry_ingest"):
            scratch.ingest_xml(xml)


def _histogram_mean(before: dict, after: dict, suffix: str,
                    route: str | None = None) -> float:
    """Mean of a histogram family over the interval between two
    ``GET /metrics`` snapshots (sum and count deltas)."""
    def totals(snapshot):
        total_sum = total_count = 0.0
        for name, family in snapshot.items():
            if not name.endswith(suffix):
                continue
            for series in family["series"]:
                if route is None or series["labels"].get("route") == route:
                    total_sum += series["sum"]
                    total_count += series["count"]
        return total_sum, total_count
    sum0, count0 = totals(before)
    sum1, count1 = totals(after)
    check(count1 > count0, f"no {suffix} observations between snapshots")
    return (sum1 - sum0) / (count1 - count0)


def layer_metrics(tr, outcome: Outcome) -> dict[str, tuple[float, str]]:
    fixed, before, after, everything = outcome.detail["observed"]
    evaluations = [s for s in fixed
                   if s.kind != "ingest" and s.status == "ok"]
    client_mean = sum(s.done - s.sent for s in evaluations) / len(
        evaluations)
    server_mean = _histogram_mean(before, after, "http_request_seconds",
                                  "/evaluate")
    hits = lookups = 0
    for sample in everything:
        if sample.kind != "ingest" and sample.status == "ok":
            stats = sample.response["stats"]
            hits += stats["cache_hits"]
            lookups += stats["cache_hits"] + stats["cache_misses"]
    lags = [s.submitted - s.due for s in everything if s.submitted]
    return {
        "service.health_ms": (
            median(tr.durations("service.health")) * 1e3, "ms"),
        "service.transport_ms": ((client_mean - server_mean) * 1e3, "ms"),
        "service.plan_batch_us": (
            median(tr.durations("service.plan_batch")) * 1e6, "us"),
        "service.submit_inproc_ms": (
            median(tr.durations("service.submit_inproc")) * 1e3, "ms"),
        "service.http_server_mean_ms": (server_mean * 1e3, "ms"),
        "service.submit_mean_ms": (_histogram_mean(
            before, after, "service_submit_seconds") * 1e3, "ms"),
        "service.cache_hit_ratio": (hits / lookups, "ratio"),
        "service.cache_lookups": (lookups, "count"),
        "service.registry_ingest_ms": (
            median(tr.durations("service.registry_ingest")) * 1e3, "ms"),
        "service.rejected": (sum(s.status == "rejected"
                                 for s in everything), "count"),
        "service.generator_lag_ms": (percentile(lags, 99) * 1e3, "ms"),
    }
