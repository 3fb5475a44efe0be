"""Correctness checks, each computed apart from the program under test.

Every check takes outputs of the program and compares them with a
closed form, a second backend, a property the method must have, or an
external tool (g++), and raises :class:`CheckFailed` on disagreement.
:func:`self_test` shows that each check fails on a deliberately
perturbed output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess

from perfbench.common import CheckFailed, check, fresh_dir

#: Relative tolerance of the closed forms (float association only).
CLOSED_FORM_RTOL = 1e-9


def all_ok(statuses, where: str) -> None:
    bad = [status for status in statuses if status != "ok"]
    check(not bad, f"{where}: {len(bad)} point(s) did not succeed")


def same_hash_after_round_trip(result) -> None:
    """Parsing the XML and writing it back keeps the structural hash."""
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.reader import model_from_xml
    check(result.parsed_hash == result.xml_hash,
          "structural hash changed when the model was read from XML")
    again = model_structural_hash(model_from_xml(result.rewritten_xml))
    check(again == result.xml_hash,
          "structural hash changed across an XML write/read round trip")


def cpp_syntax(sources: list[tuple[str, str]], header: str) -> int | None:
    """Run ``g++ -std=c++17 -fsyntax-only`` over emitted C++ sources.

    Returns how many sources compiled, or ``None`` when no g++ is on the
    PATH (the caller reports the check as skipped, never as passed).
    """
    compiler = shutil.which("g++")
    if compiler is None:
        return None
    folder = fresh_dir("cpp")
    (folder / "prophet_runtime.h").write_text(header, encoding="utf-8")
    files = []
    for name, source in sources:
        path = folder / f"{name}.cpp"
        path.write_text(source, encoding="utf-8")
        files.append(str(path))
    proc = subprocess.run(
        [compiler, "-std=c++17", "-fsyntax-only", "-I", str(folder),
         *files], capture_output=True, text=True, timeout=150,
        cwd=folder)
    check(proc.returncode == 0,
          "g++ rejected emitted C++: " + proc.stderr.strip()[:400])
    return len(files)


def codegen_equals_interp(rows, where: str) -> None:
    """rows: (backend, processes, predicted_time, events, status)."""
    by_point: dict[int, dict[str, tuple]] = {}
    for backend, processes, predicted, events, _ in rows:
        by_point.setdefault(processes, {})[backend] = (predicted, events)
    for processes, backends in by_point.items():
        check(backends["codegen"] == backends["interp"],
              f"{where} at {processes} processes: codegen "
              f"{backends['codegen']} != interp {backends['interp']}")


def grid_monotone(rows, where: str) -> None:
    """rows: (processes, latency, bandwidth, predicted_time).

    Time never falls as latency rises and never rises as bandwidth
    rises, at every process count.
    """
    table = {(p, lat, bw): t for p, lat, bw, t in rows}
    for (p, lat, bw), t in table.items():
        for (q, lat2, bw2), t2 in table.items():
            if q != p:
                continue
            if bw2 == bw and lat2 > lat:
                check(t2 >= t, f"{where}: time fell from {t} to {t2} as "
                               f"latency rose at {p} processes")
            if lat2 == lat and bw2 > bw:
                check(t2 <= t, f"{where}: time rose from {t} to {t2} as "
                               f"bandwidth rose at {p} processes")


def within_band(simulated: dict, analytic: dict, rtol: float,
                where: str) -> None:
    """Analytic makespans lie within ``rtol`` of the simulated ones."""
    check(simulated.keys() == analytic.keys() and simulated,
          f"{where}: analytic and simulated points differ")
    for processes, sim_time in simulated.items():
        error = abs(analytic[processes] - sim_time) / sim_time
        check(error <= rtol,
              f"{where} at {processes} processes: analytic is "
              f"{error:.3g} off the simulation (band {rtol:g})")


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=CLOSED_FORM_RTOL)


def butterfly_closed_form(simulated: dict, knobs: dict, latency: float,
                          bandwidth: float) -> None:
    """rounds·(flop_cost·bytes + 2·⌈log2 P⌉·(L + bytes/B)), one process
    per node."""
    size = knobs["vector_bytes"]
    for processes, predicted in simulated.items():
        steps = math.ceil(math.log2(processes))
        expected = knobs["rounds"] * (
            knobs["flop_cost"] * size
            + 2 * steps * (latency + size / bandwidth))
        check(_close(predicted, expected),
              f"butterfly at {processes} processes: {predicted} != "
              f"closed form {expected}")


def fork_join_closed_form(simulated: dict, knobs: dict) -> None:
    """With one processor per process the arms serialize: the makespan
    is the total split and leaf work."""
    depth, fanout = knobs["depth"], knobs["fanout"]
    splits = sum(fanout ** level for level in range(depth))
    expected = (splits * knobs["split_cost"]
                + fanout ** depth * knobs["leaf_cost"])
    for processes, predicted in simulated.items():
        check(_close(predicted, expected),
              f"fork_join at {processes} processes: {predicted} != "
              f"closed form {expected}")


def payloads_identical(first: list[dict], second: list[dict],
                       where: str) -> None:
    """Byte equality of two payload lists (canonical JSON)."""
    check(len(first) == len(second), f"{where}: lengths differ")
    for a, b in zip(first, second):
        check(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True),
              f"{where}: payload {a} != {b}")


def matches_reference(served: dict, reference: dict, where: str) -> None:
    """A served or cached payload equals in-process ``evaluate_point``."""
    for key in ("predicted_time", "events", "trace_records"):
        check(served.get(key) == reference[key],
              f"{where}: {key} {served.get(key)!r} != in-process "
              f"{reference[key]!r}")


# -- self-test ---------------------------------------------------------------


def _expect_failure(name: str, call) -> str:
    try:
        call()
    except CheckFailed:
        return name
    raise CheckFailed(f"self-test: check {name!r} passed a perturbed "
                      "output")


def self_test() -> list[str]:
    """Run every check on real outputs (must pass), then on perturbed
    copies (must fail).  Returns the names of the checks exercised."""
    from dataclasses import replace

    from repro.estimator.backends import evaluate_point
    from repro.machine.params import SystemParameters
    from repro.scenarios import build_scenario
    from repro.transform import transform_to_cpp

    from perfbench import design_sweep, model_pipeline
    from perfbench.tracing import OFF

    exercised = []
    corpus = model_pipeline.build_corpus(0)
    kind, xml, digest = corpus.items[0]
    result = model_pipeline.run_model(kind, xml, digest, OFF)
    same_hash_after_round_trip(result)
    exercised.append(_expect_failure(
        "xml-round-trip", lambda: same_hash_after_round_trip(replace(
            result, rewritten_xml=result.rewritten_xml.replace(
                'name="', 'name="x', 1)))))

    if shutil.which("g++") is not None:
        cpp = transform_to_cpp(build_scenario("stencil2d"))
        cpp_syntax([("good", cpp.source)], cpp.header)
        broken = cpp.source.replace("return", "retrun", 1)
        exercised.append(_expect_failure(
            "cpp-syntax", lambda: cpp_syntax([("bad", broken)],
                                             cpp.header)))

    knobs = dict(rounds=3, vector_bytes=4096.0, flop_cost=1e-9)
    model = build_scenario("butterfly_allreduce", **knobs)
    rows, simulated = [], {}
    for processes in (2, 4):
        params = SystemParameters(nodes=processes, processes=processes)
        for backend in design_sweep.BACKENDS:
            payload = evaluate_point(model, backend, params,
                                     trace="summary")
            rows.append((backend, processes, payload["predicted_time"],
                         payload["events"], "ok"))
        simulated[processes] = payload["predicted_time"]
    codegen_equals_interp(rows, "self-test")
    exercised.append(_expect_failure(
        "codegen-equals-interp", lambda: codegen_equals_interp(
            rows[:-1] + [rows[-1][:3] + (rows[-1][3] + 1, "ok")],
            "self-test")))
    butterfly_closed_form(simulated, knobs, 1e-6, 1e9)
    exercised.append(_expect_failure(
        "butterfly-closed-form", lambda: butterfly_closed_form(
            {p: t * (1 + 1e-6) for p, t in simulated.items()}, knobs,
            1e-6, 1e9)))

    fork_knobs = dict(depth=2, fanout=3, split_cost=1e-4, leaf_cost=5e-4)
    fork = build_scenario("fork_join", **fork_knobs)
    fork_time = {1: evaluate_point(fork, "codegen",
                                   trace="summary")["predicted_time"]}
    fork_join_closed_form(fork_time, fork_knobs)
    exercised.append(_expect_failure(
        "fork-join-closed-form", lambda: fork_join_closed_form(
            {1: fork_time[1] + 1e-4}, fork_knobs)))

    analytic = {p: evaluate_point(model, "analytic", SystemParameters(
        nodes=p, processes=p))["predicted_time"] for p in simulated}
    within_band(simulated, analytic, 1e-9, "self-test")
    exercised.append(_expect_failure(
        "analytic-band", lambda: within_band(
            simulated, {p: t * 1.01 for p, t in analytic.items()}, 1e-9,
            "self-test")))

    grid = [(2, lat, bw, lat * 10 + 1 / bw)
            for lat in (1e-6, 2e-6) for bw in (1e9, 2e9)]
    grid_monotone(grid, "self-test")
    exercised.append(_expect_failure(
        "grid-monotone", lambda: grid_monotone(
            grid[:-1] + [grid[-1][:3] + (1.0,)], "self-test")))

    payload = evaluate_point(model, "codegen", SystemParameters(
        nodes=2, processes=2), trace="summary")
    payloads_identical([payload], [dict(payload)], "self-test")
    exercised.append(_expect_failure(
        "payload-bytes", lambda: payloads_identical(
            [payload], [{**payload, "events": payload["events"] + 1}],
            "self-test")))
    matches_reference(payload, payload, "self-test")
    exercised.append(_expect_failure(
        "matches-reference", lambda: matches_reference(
            {**payload, "predicted_time": payload["predicted_time"] * 2},
            payload, "self-test")))
    exercised.append(_expect_failure(
        "all-ok", lambda: all_ok(["ok", "error"], "self-test")))
    return exercised
