"""Workload ``model_pipeline``: the paper's path, UML model XML in and
the C++ performance model (PMP) out.

Every model runs parse → hash → expression parse → check → analyze →
IR → C++/Python/skeleton emission → prepare for all three backends →
XML write.  Nothing is simulated, so a transform, checker or analyzer
change shows here and almost nowhere else.  The second path ingests the
same XML into a fresh model registry, the gate every served model goes
through (parse, check, analyze, store; no code generation).

Inputs: random models at three sizes with forks and collectives, the
paper's sample models, and the five scenarios.  The seed draws the
scenarios' cost and message-size knobs and the order of the corpus.  The
random models' structures, and the scenarios' counts (stages, tasks,
grid extent, iterations, rounds), come from a fixed stream instead, so
that every seed does the same work: with seed-drawn structures the
pipeline work of one round differed between seeds by 14 % (interquartile
range over median, eight seeds, each model's best of five rounds), which
would have hidden any change smaller than that.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

from perfbench.common import Outcome, best, check, fresh_dir, median
from perfbench.tracing import OFF

NAME = "model_pipeline"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Random models per size class and round.
RANDOM_PER_SIZE = 12

#: Seed of the random models' structures, the same for every run.
STRUCTURE_SEED = 2008

#: (target_actions, max_depth) of the three random size classes.
SIZES = ((8, 2), (20, 3), (40, 4))

#: Models whose emitted C++ is compiled by g++ per run.
CPP_SAMPLE = 6

#: Stage spans of one model, in pipeline order; the per-layer metrics
#: are their medians per model.
STAGES = ("xmlio.parse", "uml.hash", "lang.parse", "checker.check",
          "analysis.analyze", "transform.build_ir", "transform.cpp_emit",
          "transform.py_emit", "appgen.skeleton",
          "estimator.prepare_codegen", "estimator.prepare_interp",
          "estimator.plan_compile", "xmlio.write")

PER_LAYER = tuple((f"{stage}_ms", "ms") for stage in STAGES)


@dataclass
class Corpus:
    """One round of input models: (kind, XML text, structural hash)."""

    items: list[tuple[str, str, str]] = field(default_factory=list)


def build_corpus(seed: int) -> Corpus:
    from repro.samples import build_kernel6_model, build_sample_model
    from repro.scenarios import build_scenario
    from repro.uml.hashing import model_structural_hash
    from repro.uml.random_models import RandomModelConfig, random_model
    from repro.xmlio.writer import model_to_xml

    structures = random.Random(STRUCTURE_SEED)
    models = []
    for actions, depth in SIZES:
        config = RandomModelConfig(target_actions=actions,
                                   max_depth=depth, p_fork=0.1,
                                   p_collective=0.1)
        for _ in range(RANDOM_PER_SIZE):
            models.append(("random", random_model(
                structures.randrange(2 ** 31), config)))
    models.append(("sample", build_sample_model()))
    models.append(("sample", build_kernel6_model()))
    rng = random.Random(seed)

    def cost(base: float) -> float:
        return base * rng.uniform(0.5, 2.0)

    def size(base: float) -> float:
        return float(round(base * rng.uniform(0.5, 2.0)))

    models += [
        ("scenario", build_scenario(
            "pipeline", stages=9, msg_bytes=size(1024),
            stage_cost=cost(1e-3))),
        ("scenario", build_scenario(
            "master_worker", tasks=12, task_bytes=size(1024),
            task_cost=cost(2e-3))),
        ("scenario", build_scenario(
            "stencil2d", nx=96, iters=4, halo_bytes=size(2048),
            cell_cost=cost(5e-8))),
        ("scenario", build_scenario(
            "butterfly_allreduce", rounds=3, vector_bytes=size(8192),
            flop_cost=cost(1e-9))),
        ("scenario", build_scenario(
            "fork_join", split_cost=cost(1e-4), leaf_cost=cost(5e-4))),
    ]
    rng.shuffle(models)
    corpus = Corpus()
    for kind, model in models:
        corpus.items.append((kind, model_to_xml(model),
                             model_structural_hash(model)))
    return corpus


def annotation_sources(model):
    """Every piece of annotation text of ``model``, as (parser, text).

    Walks the model's public attributes: variable initializers, cost
    function bodies, action costs and code fragments, loop and parallel
    counts, decision guards, and expression-valued stereotype tags.
    """
    sources = []
    for variable in model.variables:
        if variable.init is not None:
            sources.append(("expr", variable.init))
    for function in model.cost_functions.values():
        sources.append(("body", function.body_source))
    for diagram in model.diagrams:
        for node in diagram.nodes:
            for attribute in ("cost", "iterations", "num_threads"):
                text = getattr(node, attribute, None)
                if isinstance(text, str):
                    sources.append(("expr", text))
            code = getattr(node, "code", None)
            if code is not None:
                sources.append(("program", code))
            for edge in node.outgoing:
                if edge.guard not in (None, "else"):
                    sources.append(("expr", edge.guard))
            for application in node.applied:
                for tag, value in application.items():
                    if tag in ("dest", "source", "size", "root",
                               "iterations", "numthreads") \
                            and isinstance(value, str):
                        sources.append(("expr", value))
    return sources


def _parse_sources(sources) -> None:
    from repro.lang.parser import (parse_expression, parse_function_body,
                                   parse_program)
    for kind, text in sources:
        if kind == "expr":
            parse_expression(text)
        elif kind == "program":
            parse_program(text)
        else:
            parse_function_body("f", text)


@dataclass
class Result:
    """What one model's pipeline produced, kept for the checks."""

    kind: str
    xml_hash: str
    parsed_hash: str
    rewritten_xml: str
    check_errors: int
    analysis_ok: bool
    cpp_source: str
    cpp_header: str
    skeleton_source: str


def run_model(kind: str, xml: str, expected_hash: str, tr) -> Result:
    """The whole pipeline for one model, one span per stage."""
    from repro.analysis import ModelAnalyzer
    from repro.appgen import generate_skeleton
    from repro.checker import ModelChecker
    from repro.estimator.analytic_plan import compile_plan
    from repro.estimator.manager import PerformanceEstimator
    from repro.transform import (build_ir, transform_to_cpp,
                                 transform_to_python)
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.reader import model_from_xml
    from repro.xmlio.writer import model_to_xml

    with tr.span("xmlio.parse"):
        model = model_from_xml(xml)
    with tr.span("uml.hash"):
        digest = model_structural_hash(model)
    sources = annotation_sources(model)
    with tr.span("lang.parse"):
        _parse_sources(sources)
    with tr.span("checker.check"):
        report = ModelChecker().check(model)
    with tr.span("analysis.analyze"):
        analysis = ModelAnalyzer().analyze(model, digest)
    with tr.span("transform.build_ir"):
        ir = build_ir(model)
    with tr.span("transform.cpp_emit"):
        cpp = transform_to_cpp(ir)
    with tr.span("transform.py_emit"):
        transform_to_python(ir)
    with tr.span("appgen.skeleton"):
        skeleton = generate_skeleton(ir)
    with tr.span("estimator.prepare_codegen"):
        PerformanceEstimator().prepare(model, "codegen")
    with tr.span("estimator.prepare_interp"):
        PerformanceEstimator().prepare(model, "interp")
    with tr.span("estimator.plan_compile"):
        compile_plan(model)
    with tr.span("xmlio.write"):
        rewritten = model_to_xml(model)
    return Result(kind, expected_hash, digest, rewritten,
                  len(report.errors()), analysis.ok, cpp.source,
                  cpp.header, skeleton.source)


@dataclass
class State:
    corpus: Corpus
    seed: int


def prepare(seed: int) -> State:
    """Build the corpus and ingest it once into a throwaway registry.

    The ingest fills the process's analysis memo, so every measured
    ingest is of a structure the process has analyzed before: the
    second path then measures parse, check, hash and the registry's
    writes, while the analyzer's own cost shows on the first path.
    """
    from repro.service.registry import ModelRegistry
    corpus = build_corpus(seed)
    registry = ModelRegistry(fresh_dir("pipeline-registry"))
    for _, xml, _ in corpus.items:
        registry.ingest_xml(xml)
    return State(corpus, seed)


def measure(state: State, seconds: float | None = None,
            rounds: int | None = None, tr=OFF) -> Outcome:
    from repro.service.registry import ModelRegistry

    items = state.corpus.items
    model_walls = [[] for _ in items]    # per model, one wall per round
    ingest_walls = [[] for _ in items]
    first_round: list[Result] = []
    ingest_refs: list[tuple[str, str]] = []
    done = 0
    start = time.perf_counter()
    while True:
        # Collect the previous round's garbage outside the timed calls.
        gc.collect()
        for index, (kind, xml, expected) in enumerate(items):
            t0 = time.perf_counter()
            with tr.operation("pipeline.model"):
                result = run_model(kind, xml, expected, tr)
            model_walls[index].append(time.perf_counter() - t0)
            if done == 0:
                first_round.append(result)
        registry_dir = fresh_dir("pipeline-registry")
        registry = ModelRegistry(registry_dir)
        for index, (_, xml, expected) in enumerate(items):
            t0 = time.perf_counter()
            with tr.operation("pipeline.ingest"):
                with tr.span("service.registry_ingest"):
                    record = registry.ingest_xml(xml)
            ingest_walls[index].append(time.perf_counter() - t0)
            ingest_refs.append((record.ref, expected))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break

    per_model = [best(walls) for walls in model_walls]
    per_ingest = [best(walls) for walls in ingest_walls]
    outcome = Outcome(rounds=done,
                      wall=sum(map(sum, model_walls))
                      + sum(map(sum, ingest_walls)))
    outcome.count(2 * len(items) * done)
    outcome.metrics["ops_per_s"] = (len(items) / sum(per_model), "1/s")
    outcome.metrics["aux_ops_per_s"] = (len(items) / sum(per_ingest),
                                        "1/s")
    outcome.extra["pipeline_models_per_s"] = outcome.metrics["ops_per_s"]
    outcome.extra["ingest_models_per_s"] = outcome.metrics["aux_ops_per_s"]
    outcome.extra["pipeline_p50_ms"] = (median(per_model) * 1e3, "ms")
    outcome.extra["ingest_p50_ms"] = (median(per_ingest) * 1e3, "ms")
    verify(state, first_round, ingest_refs, outcome)
    return outcome


def verify(state: State, results: list[Result],
           ingest_refs: list[tuple[str, str]], outcome: Outcome) -> None:
    from perfbench import checks
    for result in results:
        checks.same_hash_after_round_trip(result)
        if result.kind == "random":
            check(result.check_errors == 0,
                  f"checker reported {result.check_errors} error(s) on a "
                  "random model, which is valid by construction")
        check(result.check_errors == 0 and result.analysis_ok,
              "a corpus model failed the checker or the analyzer")
        compile(result.skeleton_source, "<skeleton>", "exec")
    outcome.checks.append(
        f"XML round trip kept the structural hash of {len(results)} "
        "models; random models had zero checker errors")
    for ref, expected in ingest_refs:
        check(ref == expected, f"registry ref {ref[:12]} differs from "
                               f"the structural hash {expected[:12]}")
    outcome.checks.append(
        f"{len(ingest_refs)} registry refs equal the structural hash")
    rng = random.Random(state.seed ^ 0xC0DE)
    sample = rng.sample(results, min(CPP_SAMPLE, len(results)))
    verdict = checks.cpp_syntax(
        [(f"model{i}", r.cpp_source) for i, r in enumerate(sample)],
        sample[0].cpp_header)
    if verdict is None:
        outcome.skipped.append("g++ -fsyntax-only (no g++ on PATH)")
    else:
        outcome.checks.append(
            f"g++ -std=c++17 -fsyntax-only accepted {verdict} emitted "
            "C++ models")


def layer_metrics(tr, outcome: Outcome) -> dict[str, tuple[float, str]]:
    metrics = {}
    for stage in STAGES:
        per_model = tr.per_operation(stage, "pipeline.model")
        metrics[f"{stage}_ms"] = (median(per_model) * 1e3, "ms")
    return metrics
