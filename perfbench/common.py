"""Shared plumbing: statistics, memory, the run workspace, results."""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes lives under here (ignored by git).
WORK = ROOT / ".perfbench_work"

class CheckFailed(Exception):
    """An output of the program disagreed with an independent check."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


_dirs = itertools.count()
_run = f"run-{os.getpid()}-{time.time_ns()}"


def fresh_dir(name: str) -> Path:
    """A new empty directory for this run, never reused.

    Nothing the benchmark writes is deleted by it, neither during a run
    nor after: on this class of host (ext4 with online discard) the
    deletion of one run's few thousand cache files slowed the next
    run's cold ``tiny_job_sweep`` passes by up to 2×.  Runs leave their
    files in ``.perfbench_work/run-*``; remove that by hand.
    """
    path = WORK / _run / f"{name}-{next(_dirs)}"
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def best(values) -> float:
    """The fastest of one operation's repeated walls in a run.

    The host is shared: other tenants slow it for spells of seconds to
    minutes, and such a spell can cover most of a run, which moves a
    median.  The work itself is the same on every repetition, so its
    fastest repetition is the figure a slow spell moves least.
    """
    return float(min(values))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (pool workers, the served subprocess), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(make, repeats: int):
    """Run ``make()`` ``repeats`` times; return (last state, median s).

    Each earlier state is closed (``close()``) before the next set-up,
    so a set-up that starts processes leaves only one set running.
    """
    walls = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = make()
        walls.append(time.perf_counter() - start)
    return state, median(walls)


@dataclass
class Outcome:
    """What one workload measurement hands back to the driver script."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Numbers printed for people but not part of the JSON contract.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    #: Whole rounds measured, and their summed operation wall seconds
    #: (the traced run compares the latter to give the overhead).
    rounds: int = 0
    wall: float = 0.0
    #: What a traced run keeps for the workload's ``layer_metrics``.
    detail: dict = field(default_factory=dict)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


def clear_memos() -> None:
    """Drop every process-local memo a sweep could reuse, so the next
    sweep runs cold."""
    from repro.estimator.backends import (clear_plan_cache,
                                          clear_prepared_cache)
    from repro.sweep.runner import clear_preflight_memo, clear_worker_memos
    clear_prepared_cache()
    clear_plan_cache()
    clear_worker_memos()
    clear_preflight_memo()
