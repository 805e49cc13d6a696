"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, one pass per workload:
- a traced pass gives fronts byte-identical to an untraced pass, and every
  output check passes in both;
- the layer metrics each workload exists to exercise read nonzero, so a
  renamed function fails here instead of reading zero;
- every wrapped binding is restored after the traced pass, and a binding
  that does not exist makes `Tracer.install` raise without wrapping anything;
- every per-layer metric is listed in BENCHMARK.json and in layer_map.json;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import prepare
import run
import tracing

# The layer metrics each workload is there to exercise.
EXERCISED = {
    "deep45": ["geometry.lp_calls"],
    "check3": ["geometry.pprune.oracle_rows"],
    "degen": ["search.fallback_direct"],
    "wide3": ["mdp.eval_calls"],
}


def bindings() -> list:
    return [getattr(importlib.import_module(f"momdp_pareto.{m}"), a)
            for m, a, _ in tracing.BINDINGS]


def restored(before: list) -> bool:
    return all(a is b for a, b in zip(before, bindings()))


def one_pass(state, tracer):
    checker = run.Checker(tracer)
    if tracer:
        tracer.install()
    try:
        _, _, counts = run.run_pass(state, state.instances, checker, tracer, verify_seed=0)
    finally:
        if tracer:
            tracer.restore()
    return checker, counts


def check_workload(workload: str) -> list[str]:
    errors = []
    _, state = prepare.prepare(workload)
    before = bindings()
    plain, _ = one_pass(state, None)
    tracer = tracing.Tracer()
    traced, counts = one_pass(state, tracer)
    if not restored(before):
        errors.append(f"{workload}: wrapped functions were not restored")
    for checker, kind in ((plain, "untraced"), (traced, "traced")):
        errors += [f"{workload} {kind}: {f}" for f in checker.failures]
    if plain.texts != traced.texts or len(plain.texts) != len(state.instances):
        errors.append(f"{workload}: traced fronts differ from untraced fronts")
    values = {**tracing.layer_values(tracer.spans), **counts}
    for metric in EXERCISED[workload]:
        if not values.get(metric):
            errors.append(f"{workload}: {metric} reads zero")
        print(f"{workload}: {metric} = {values.get(metric)}")
    return errors


def check_missing_binding() -> list[str]:
    before = bindings()
    tracing.BINDINGS.append(("search", "no_such_function", "x"))
    try:
        tracing.Tracer().install()
        return ["install accepted a binding that does not exist"]
    except AttributeError:
        pass
    finally:
        tracing.BINDINGS.pop()
    if not restored(before):
        return ["a failed install left functions wrapped"]
    return []


def check_metric_lists() -> list[str]:
    declared = {m["name"] for m in json.loads(
        (prepare.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    mapped = {name for row in json.loads((prepare.HERE / "layer_map.json").read_text())
              ["layers"] for name in row["metrics"]}
    reported = set(run.PER_LAYER)
    errors = []
    if declared != reported:
        errors.append(f"BENCHMARK.json per_layer differs from run.py: "
                      f"{sorted(declared ^ reported)}")
    if mapped != reported:
        errors.append(f"layer_map.json differs from run.py: {sorted(mapped ^ reported)}")
    return errors


def check_bare_directory() -> list[str]:
    bare = prepare.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(prepare.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(prepare.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "degen", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without the solver source the benchmark still printed a result"]
    return []


def main() -> int:
    prepare.import_solver()
    errors = check_metric_lists() + check_missing_binding() + check_bare_directory()
    for workload in EXERCISED:
        errors += check_workload(workload)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
