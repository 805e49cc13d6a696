"""Measure the baseline every later performance change is judged against.

    python3 perfbench/make_baseline.py

For every workload in BENCHMARK.json, at its run_seconds, it makes ten
untraced runs (seeds 1..10) and one traced run (seed 1), and writes
perfbench/baseline.json:
per end-to-end metric the median over runs, the quartiles and their spread
(third minus first quartile, over the median); the traced run's per-layer
metrics and self-time shares; the known oracle defects seen; the environment;
and a SHA-256 over the solver's source files, which names the code measured.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys

import prepare

RUNS = 10  # untraced runs per workload, as in the acceptance check


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=prepare.ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((prepare.HERE / "out" /
                         f"report-{workload}-trace{trace}-seed{seed}.json").read_text())
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed checks {report['failures']}")
    return report


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((prepare.SRC / "momdp_pareto").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    bench = json.loads((prepare.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"source_sha256": source_digest(), "run_seconds": seconds,
           "runs_per_workload": RUNS, "layer_map": "layer_map.json", "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        reports = [run_once(name, s, seconds, 0) for s in range(1, RUNS + 1)]
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in reports]
            q1, _, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / statistics.median(values),
                              "unit": m["unit"], "values": values}
            print(f"{name} {m['name']}: median {e2e[m['name']]['median']:.6g} "
                  f"spread {e2e[m['name']]['spread']:.4f} (bound {m['bound']})", flush=True)
        traced = run_once(name, 1, seconds, 1)
        out["env"] = traced["env"]
        out["workloads"][name] = {
            "why": w["why"],
            "instances": traced["instances"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_shares": traced["self_shares"],
            "known_oracle_defects": traced["known_oracle_defects"],
        }
    (prepare.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
