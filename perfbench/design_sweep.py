"""Workload ``design_sweep``: a cold what-if sweep over the scenario
library at realistic sizes, then a dense analytic grid on the same
models.

The simulated sweep runs every scenario on the codegen and interp
backends at 2, 4 and 8 processes, serially, with no result cache and
every process-local memo cleared first, so the sim kernel and the
workload layer take most of the time while dispatch and cache do almost
nothing.  The analytic latency × bandwidth grid bypasses the kernel
entirely.

The seed draws the scenarios' cost and message-size knobs (below the
eager threshold); sizes, and so event counts, are fixed, so every seed
does the same amount of simulation.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

from perfbench.common import Outcome, best, clear_memos, median
from perfbench.tracing import OFF

NAME = "design_sweep"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 25

PROCESSES = (2, 4, 8)
BACKENDS = ("codegen", "interp")

#: Grid axes; index 0 of each is the base network (1 µs, 1 GB/s), the
#: point the analytic-band check compares with the simulation.
LATENCIES = tuple(1e-6 * 2 ** (k / 2) for k in range(8))
BANDWIDTHS = tuple(1e9 / 2 ** (k / 2) for k in range(8))

PER_LAYER = (
    ("estimator.prepare_ms", "ms"),
    ("estimator.run_codegen_ms", "ms"),
    ("estimator.run_interp_ms", "ms"),
    ("sweep.runner_overhead_ms", "ms"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("estimator.grid_plan_compile_ms", "ms"),
    ("estimator.grid_replay_us_per_point", "us"),
)


def build_models(seed: int):
    """(scenario name, knobs, Model) for every scenario."""
    from repro.scenarios import build_scenario
    rng = random.Random(seed)

    def cost(base: float) -> float:
        return base * rng.uniform(0.5, 2.0)

    def size(base: float) -> float:
        return float(round(base * rng.uniform(0.5, 2.0)))

    knobs = {
        "pipeline": dict(stages=200, msg_bytes=size(1024),
                         stage_cost=cost(1e-3)),
        "stencil2d": dict(nx=96, ny=96, iters=60,
                          halo_bytes=size(2048), cell_cost=cost(5e-8)),
        "master_worker": dict(tasks=400, task_bytes=size(1024),
                              task_cost=cost(2e-3)),
        "butterfly_allreduce": dict(rounds=40, vector_bytes=size(8192),
                                    flop_cost=cost(1e-9)),
        "fork_join": dict(depth=3, fanout=3, split_cost=cost(1e-4),
                          leaf_cost=cost(5e-4)),
    }
    return [(name, values, build_scenario(name, **values))
            for name, values in knobs.items()]


@dataclass
class State:
    models: list                 # (name, knobs, Model)
    sim_jobs: list               # expanded simulated sweep per model
    grid_jobs: list              # expanded analytic grid per model
    seed: int


def prepare(seed: int) -> State:
    from repro.sweep import expand
    models = build_models(seed)
    return State(models,
                 [expand(_sim_spec(name, model))
                  for name, _, model in models],
                 [expand(_grid_spec(name, model))
                  for name, _, model in models], seed)



def _sim_spec(name, model):
    from repro.sweep import SweepSpec
    return SweepSpec(models=[(name, model)], processes=list(PROCESSES),
                     backends=list(BACKENDS), seeds=[0])


def _grid_spec(name, model):
    from repro.sweep import make_spec
    return make_spec(model, label=name, processes=list(PROCESSES),
                     backends=["analytic"], latencies=list(LATENCIES),
                     bandwidths=list(BANDWIDTHS))


def _trace_layers(model, tr) -> None:
    """The simulated sweep's work, called layer by layer under spans."""
    from repro.estimator.manager import PerformanceEstimator
    from repro.machine.params import SystemParameters
    for backend in BACKENDS:
        with tr.span("estimator.prepare"):
            prepared = PerformanceEstimator().prepare(model, backend)
        for processes in PROCESSES:
            estimator = PerformanceEstimator(
                SystemParameters(nodes=processes, processes=processes),
                trace="summary")
            with tr.span(f"estimator.run_{backend}"):
                result = estimator.run_prepared(prepared)
            tr.add("sim.events", result.events_processed)


def _trace_grid(model, tr) -> None:
    from repro.estimator.analytic_plan import GridPoint, compile_plan
    from repro.estimator.backends import evaluate_grid
    from repro.machine.network import NetworkConfig
    from repro.machine.params import SystemParameters
    with tr.span("estimator.grid_plan_compile"):
        compile_plan(model)
    points = [GridPoint(SystemParameters(nodes=p, processes=p),
                        NetworkConfig(latency=lat, bandwidth=bw))
              for p in PROCESSES for lat in LATENCIES for bw in BANDWIDTHS]
    evaluate_grid(model, points, check=False)  # compiles the memo'd plan
    with tr.span("estimator.grid_replay"):
        evaluate_grid(model, points, check=False)
    tr.add("grid.points", len(points))


def measure(state: State, seconds: float | None = None,
            rounds: int | None = None, tr=OFF) -> Outcome:
    from repro.sweep import run_sweep

    count = len(state.models)
    sim_walls = [[] for _ in range(count)]   # per scenario, per round
    grid_walls = [[] for _ in range(count)]
    sim_points = grid_points = events = failed = 0
    first_round: list[tuple] = []
    done = 0
    start = time.perf_counter()
    while True:
        # Collect the previous round's garbage outside the timed calls.
        gc.collect()
        for index, (name, knobs, model) in enumerate(state.models):
            clear_memos()
            t0 = time.perf_counter()
            with tr.operation("sweep.run_sweep"):
                sim = run_sweep(state.sim_jobs[index], cache=None,
                                executor="serial", trace="summary")
            sim_walls[index].append(time.perf_counter() - t0)
            clear_memos()
            t0 = time.perf_counter()
            with tr.operation("sweep.grid"):
                grid = run_sweep(state.grid_jobs[index], cache=None,
                                 executor="serial")
            grid_walls[index].append(time.perf_counter() - t0)
            if tr.enabled:
                clear_memos()
                with tr.operation("layers.sim"):
                    _trace_layers(model, tr)
                clear_memos()
                with tr.operation("layers.grid"):
                    _trace_grid(model, tr)
            sim_points += len(sim)
            grid_points += len(grid)
            events += sum(r.events for r in sim)
            failed += len(sim.failed()) + len(grid.failed())
            if done == 0:
                first_round.append((name, knobs, sim, grid))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break

    per_sim = [best(walls) for walls in sim_walls]
    per_grid = [best(walls) for walls in grid_walls]
    outcome = Outcome(rounds=done, wall=sum(map(sum, sim_walls))
                      + sum(map(sum, grid_walls)))
    outcome.count(sim_points + grid_points, failed)
    round_sim, round_grid = sim_points / done, grid_points / done
    outcome.metrics["ops_per_s"] = (round_sim / sum(per_sim), "1/s")
    outcome.metrics["aux_ops_per_s"] = (round_grid / sum(per_grid), "1/s")
    outcome.extra["sim_points_per_s"] = outcome.metrics["ops_per_s"]
    outcome.extra["sim_events_per_s"] = (events / done / sum(per_sim),
                                         "events/s")
    outcome.extra["grid_points_per_s"] = outcome.metrics["aux_ops_per_s"]
    outcome.extra["sim_sweep_p50_ms"] = (median(per_sim) * 1e3, "ms")
    outcome.extra["grid_sweep_p50_ms"] = (median(per_grid) * 1e3, "ms")
    verify(first_round, outcome)
    return outcome


def verify(first_round, outcome: Outcome) -> None:
    from perfbench import checks
    from repro.scenarios import get_scenario
    for name, knobs, sim, grid in first_round:
        sim_rows = [(r.job.backend, r.job.params.processes,
                     r.predicted_time, r.events, r.status) for r in sim]
        checks.all_ok([row[4] for row in sim_rows]
                      + [r.status for r in grid], name)
        checks.codegen_equals_interp(sim_rows, name)
        grid_rows = [(r.job.params.processes, r.job.network.latency,
                      r.job.network.bandwidth, r.predicted_time)
                     for r in grid]
        checks.grid_monotone(grid_rows, name)
        simulated = {p: t for backend, p, t, _, _ in sim_rows
                     if backend == "codegen"}
        analytic = {p: t for p, lat, bw, t in grid_rows
                    if lat == LATENCIES[0] and bw == BANDWIDTHS[0]}
        checks.within_band(simulated, analytic,
                           get_scenario(name).analytic_rtol, name)
        if name == "butterfly_allreduce":
            checks.butterfly_closed_form(simulated, knobs,
                                         LATENCIES[0], BANDWIDTHS[0])
        if name == "fork_join":
            checks.fork_join_closed_form(simulated, knobs)
    outcome.checks.append(
        "codegen ≡ interp exactly; butterfly and fork/join closed forms; "
        "analytic within each scenario's band; grid monotone in latency "
        "and bandwidth")


def layer_metrics(tr, outcome: Outcome) -> dict[str, tuple[float, str]]:
    run_walls = {backend: tr.durations(f"estimator.run_{backend}")
                 for backend in BACKENDS}
    sweeps = tr.durations("sweep.run_sweep")
    layer_sums = tr.per_operation("estimator.prepare", "layers.sim")
    for backend in BACKENDS:
        per_op = tr.per_operation(f"estimator.run_{backend}",
                                  "layers.sim")
        layer_sums = [a + b for a, b in zip(layer_sums, per_op)]
    overheads = [sweep - layers for sweep, layers
                 in zip(sweeps, layer_sums)]
    replay = tr.durations("estimator.grid_replay")
    all_runs = run_walls["codegen"] + run_walls["interp"]
    return {
        "estimator.prepare_ms": (
            median(tr.durations("estimator.prepare")) * 1e3, "ms"),
        "estimator.run_codegen_ms": (median(run_walls["codegen"]) * 1e3,
                                     "ms"),
        "estimator.run_interp_ms": (median(run_walls["interp"]) * 1e3,
                                    "ms"),
        "sweep.runner_overhead_ms": (median(overheads) * 1e3, "ms"),
        "sim.host_ns_per_event": (
            sum(all_runs) / tr.counters["sim.events"] * 1e9, "ns"),
        "sim.events": (tr.counters["sim.events"] // outcome.rounds,
                       "count"),
        "estimator.grid_plan_compile_ms": (
            median(tr.durations("estimator.grid_plan_compile")) * 1e3,
            "ms"),
        "estimator.grid_replay_us_per_point": (
            sum(replay) / tr.counters["grid.points"] * 1e6, "us"),
    }
