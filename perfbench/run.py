"""Run the benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload model_pipeline --seed 1 \\
        --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics of the workload; with ``--trace 1`` it
holds the per-layer metrics of the traced run, which covers every
workload's layers (see README.md).  ``--workload all`` runs the four
workloads one after another.  ``--self-test`` shows that every
correctness check fails on a perturbed output.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = ("model_pipeline", "design_sweep", "tiny_job_sweep", "serve_mix")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` (no install)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program sources under {ROOT / 'src'}; run the "
            "benchmark from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import WORK
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of every child it starts stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def _module(name: str):
    import importlib
    return importlib.import_module(f"perfbench.{name}")


def _print_block(title: str, values: dict) -> None:
    print(title)
    for key, (value, unit) in values.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")


def run_untraced(name: str, seed: int, seconds: float):
    from perfbench.common import peak_rss_mb, timed_setups
    module = _module(name)
    state, setup_s = timed_setups(lambda: module.prepare(seed),
                                  module.SETUP_REPEATS)
    try:
        outcome = module.measure(state, seconds=seconds)
    finally:
        if hasattr(state, "close"):
            state.close()
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"),
               **outcome.metrics}
    return outcome, metrics


def _measure_once(module, seed: int, **how):
    state = module.prepare(seed)
    try:
        return module.measure(state, **how)
    finally:
        if hasattr(state, "close"):
            state.close()


def run_traced(seed: int, seconds: float):
    """Every workload: untraced rounds, then as many traced rounds."""
    from perfbench.common import WORK, Outcome
    from perfbench.tracing import Tracer
    total = Outcome()
    metrics = {}
    share = seconds / len(ORDER)
    for name in ORDER:
        module = _module(name)
        # A fresh set-up for each pass, so the traced pass does not run
        # against caches the untraced pass filled.
        plain = _measure_once(module, seed, seconds=share)
        tracer = Tracer()
        traced = _measure_once(module, seed, seconds=share,
                               rounds=plain.rounds, tr=tracer)
        path = tracer.dump(WORK / "traces" / f"{name}-seed{seed}.json")
        print(f"{name}: {len(tracer.spans)} spans written to {path}")
        layers = module.layer_metrics(tracer, traced)
        layers[f"trace.{name}.overhead_pct"] = (
            (traced.wall / plain.wall - 1.0) * 100.0, "%")
        _print_block(f"{name} (traced, {traced.rounds} round(s)):",
                     layers)
        _print_block("  self time by span (s):", {
            span: (row["self_s"], f"s over {row['count']} span(s)")
            for span, row in tracer.summary().items()})
        metrics.update(layers)
        for outcome in (plain, traced):
            total.count(outcome.attempted, outcome.failed)
            total.checks += outcome.checks
            total.skipped += outcome.skipped
    return total, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ORDER + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.common import CheckFailed

    if args.self_test:
        from perfbench.checks import self_test
        try:
            names = self_test()
        except CheckFailed as exc:
            print(f"self-test failed: {exc}", file=sys.stderr)
            return 1
        print("every check failed on its perturbed output: "
              + ", ".join(names))
        return 0

    names = ORDER if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace:
            outcome, metrics = run_traced(args.seed, args.seconds)
            runs = [("traced run", outcome, metrics)]
        else:
            runs = []
            for name in names:
                outcome, metrics = run_untraced(name, args.seed,
                                                args.seconds)
                runs.append((name, outcome, metrics))
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    for name, outcome, metrics in runs:
        rounds = f", {outcome.rounds} round(s)" if outcome.rounds else ""
        _print_block(f"{name}: {outcome.attempted} operation(s) "
                     f"attempted, {outcome.failed} failed{rounds}",
                     metrics)
        if outcome.extra:
            _print_block("  in the workload's own units:", outcome.extra)
        for line in outcome.checks:
            print(f"  check passed: {line}")
        for line in outcome.skipped:
            print(f"  check SKIPPED: {line}")
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        prefix = f"{name}." if len(runs) > 1 else ""
        result["metrics"].update(
            {prefix + key: {"value": value, "unit": unit}
             for key, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
