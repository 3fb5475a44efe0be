"""Steadiness runs: each workload repeatedly, one seed per run.

    python3 perfbench/steady.py --runs 10 --seconds 40 \\
        [--workload NAME ...] [--first-seed 1] [--trace 0]

Without ``--workload`` it runs the workloads BENCHMARK.json gates.

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json and the ratio of the two.  A spread
above a third of its bound is flagged.  The runs' figures are also
written to ``.perfbench_work/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import WORK, quartiles  # noqa: E402
from perfbench.run import ORDER  # noqa: E402


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def bounds() -> dict[str, float]:
    return {m["name"]: m["bound"] for m in spec().get("end_to_end", [])}


def gated() -> list[str]:
    """The workloads BENCHMARK.json names, or all of them without it."""
    names = [w["name"] for w in spec().get("workloads", [])]
    return names or list(ORDER)


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def report(workload: str, runs: list[dict], limits: dict) -> list[str]:
    flagged = []
    print(f"\n{workload}: {len(runs)} runs, run wall "
          f"{min(r['wall_s'] for r in runs):.1f}–"
          f"{max(r['wall_s'] for r in runs):.1f} s")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share per run: {sorted(shares)}")
    print(f"  {'metric':<42}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'ratio':>7}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = limits.get(name)
        ratio = spread / bound if bound else None
        mark = ""
        if ratio is not None and ratio > 1 / 3 and name != "setup_s":
            mark = "  <-- above a third of the bound"
            flagged.append(f"{workload}/{name}")
        print(f"  {name:<42}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{bound if bound else '':>7}"
              f"{'' if ratio is None else format(ratio, '.2f'):>7}"
              + mark)
    return flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=ORDER,
                        default=gated())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limits = bounds()
    flagged = []
    for workload in args.workload:
        runs = [one_run(workload, args.first_seed + i, args.seconds,
                        args.trace) for i in range(args.runs)]
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"steady-{workload}.json").write_text(
            json.dumps(runs, indent=1) + "\n", encoding="utf-8")
        flagged += report(workload, runs, limits)
    if flagged:
        print("\nspread above a third of the bound: " + ", ".join(flagged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
