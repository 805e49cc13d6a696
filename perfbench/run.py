"""Benchmark of the momdp-pareto solver.

    python3 perfbench/run.py --workload wide3 --seed 1 --seconds 30 --trace 0

Load model: a closed loop. One caller in one process runs one operation at a
time (`search`, `brute_force_front`, `verify_front`), each with
`thread_count=1`. A run repeats passes over the workload's fixed instance set
until `--seconds` is used up; the seed orders the instances inside each pass
and seeds `verify_front`'s sample weights. Every output is checked after its
timer stops, against the stored reference fronts in `perfbench/refs/`.

Untraced operations and set-ups are timed by `speed.section`, which scales
their wall time by the speed of the shared core they ran on, measured while
they run; the raw wall times are printed next to them.

With `--trace 0` the run reports the end-to-end metrics: the median over
passes of the summed time of each operation, the median set-up time of the
run and of one fresh process after each pass, and peak resident memory. With
`--trace 1` it alternates untraced and traced passes, reports the per-layer
metrics of the traced passes and the tracing overhead (from wall times), and
writes the spans to `perfbench/out/`. Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple

import prepare
import speed
import tracing
from workloads import WORKLOADS

TOL = 1e-8  # compare_fronts tolerance, scaled return space
OUT = prepare.HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OPS = ("solve", "oracle", "verify")
# Substrings of the three warning forms `search` emits when a fallback fires.
FALLBACKS = {
    "search.fallback_jitter": "jitter applied before hull construction",
    "search.fallback_direct": "testing faces directly instead",
    "search.fallback_collapsed": "collapsed onto coincident global vertices",
}
# Every metric a traced run reports, with its unit.
PER_LAYER = {
    **{m[0]: m[1] for m in tracing.LAYER_METRICS},
    "geometry.lp_pass_frac": "ratio",
    "oracle.nondominated": "count",
    **dict.fromkeys(["search.vertices", "search.faces", "search.policies_evaluated",
                     "search.iterations", *FALLBACKS, "oracle.policies",
                     "oracle.known_defects", "serialize.byte_identical"], "count"),
    "serialize.front_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_count": 1,
    }


def setup_probe(workload: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter; returns its own (scaled, wall) seconds."""
    proc = subprocess.run(
        [sys.executable, str(prepare.HERE / "prepare.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, wall = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(wall)


def oracle_symptom(front, ref_front, report) -> str:
    """How an oracle front differs from the reference, in counts."""
    diffs = report.face_diffs
    return (f"{len(front.vertices)} vertices and {len(front.faces)} faces where the "
            f"reference has {len(ref_front.vertices)} and {len(ref_front.faces)}: "
            f"{len(report.unmatched_a)} extra and {len(report.unmatched_b)} missing "
            f"vertices, {len(diffs['a_only'])} extra and {len(diffs['b_only'])} "
            f"missing faces")


class Checker:
    """Checks each operation's output and keeps the tally for `fail_frac`."""

    def __init__(self, tracer):
        self.oracle = importlib.import_module("momdp_pareto.oracle")
        self.serialize = importlib.import_module("momdp_pareto.serialize")
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.known: dict[str, str] = {}  # instance -> known oracle defect seen
        self.notes: set[str] = set()
        self.texts: dict[str, str] = {}  # instance -> last front JSON from solve

    def _span(self):
        return self.tracer.open("check") if self.tracer else None

    def _end(self, span):
        if span is not None:
            self.tracer.close(span)

    def fail(self, inst, op, message):
        self.failures.append(f"{inst.name} {op}: {message}")

    def solve(self, inst, front, exc, ref, counts):
        self.attempted += 1
        if exc is not None:
            self.fail(inst, "solve", f"raised {exc!r}")
            return
        ref_text, ref_front = ref
        span = self._span()
        try:
            report = self.oracle.compare_fronts(front, ref_front, TOL)
            text = self.serialize.dump_json(self.serialize.front_to_dict(front))
        finally:
            self._end(span)
        if not report.match:
            self.fail(inst, "solve", f"front differs from the reference: "
                      f"{len(report.unmatched_a)} extra, {len(report.unmatched_b)} missing "
                      f"vertices, faces {report.face_diffs}")
        self.texts[inst.name] = text
        counts["serialize.front_bytes"] += len(text.encode())
        counts["serialize.byte_identical"] += int(text == ref_text)
        counts["search.vertices"] += len(front.vertices)
        counts["search.faces"] += len(front.faces)
        counts["search.policies_evaluated"] += front.stats.policies_evaluated
        counts["search.iterations"] += front.stats.iterations
        for name, needle in FALLBACKS.items():
            counts[name] += sum(needle in w for w in front.stats.warnings)

    def oracle_front(self, inst, front, exc, ref, counts):
        """Compare the oracle with the reference.

        The oracle answers wrongly on some degenerate instances (ROADMAP item
        4). Such an answer counts as a failure unless its symptom, as
        `oracle_symptom` words it, equals the instance's
        `known_oracle_defect` exactly; then it is reported as a known defect
        by instance, in the output and in `oracle.known_defects`.
        """
        self.attempted += 1
        if exc is not None:
            symptom = f"raised {exc!r}"
        else:
            counts["oracle.policies"] += front.stats.policies_evaluated
            span = self._span()
            try:
                report = self.oracle.compare_fronts(front, ref[1], TOL)
            finally:
                self._end(span)
            if report.match:
                if inst.known_oracle_defect:
                    self.notes.add(f"{inst.name}: known oracle defect "
                                   f"'{inst.known_oracle_defect}' no longer reproduces")
                return
            symptom = oracle_symptom(front, ref[1], report)
        if symptom == inst.known_oracle_defect:
            self.known[inst.name] = symptom
            counts["oracle.known_defects"] += 1
        else:
            self.fail(inst, "oracle", symptom)

    def verify(self, inst, report, exc):
        self.attempted += 1
        if exc is not None:
            self.fail(inst, "verify", f"raised {exc!r}")
        elif not report.passed:
            bad = [c.face_id for c in report.face_checks if not c.passed]
            self.fail(inst, "verify", f"dominated vertices {report.dominated_vertices}, "
                      f"failed faces {bad}")


def timed(tracer, op, fn, *args, **kwargs):
    """Run one operation; return (result, exception, scaled seconds, wall seconds).

    A full garbage collection first, untimed, so that every operation starts
    from the same collector state instead of paying for its predecessors.
    Traced operations are timed by wall clock alone, because the speed
    samples would land inside the spans; their scaled seconds are the wall.
    """
    gc.collect()
    span = tracer.open(op) if tracer else None
    with contextlib.nullcontext() if tracer else speed.section(numpy=True) as t:
        try:
            result, exc = fn(*args, **kwargs), None
        except Exception as e:  # a raising operation is an outcome to check
            result, exc = None, e
    if span is None:
        return result, exc, t.seconds, t.wall
    tracer.close(span)
    return result, exc, span.end - span.start, span.end - span.start


def run_pass(state, order, checker, tracer, verify_seed):
    """Run every operation of every instance once.

    Returns per-op summed scaled seconds, per-op summed wall seconds, and counts.
    """
    from momdp_pareto import SearchConfig, search

    oracle = importlib.import_module("momdp_pareto.oracle")
    sums = dict.fromkeys(OPS, 0.0)
    walls = dict.fromkeys(OPS, 0.0)
    counts: Counter = Counter()
    for inst in order:
        mdp, ref = state.mdps[inst.name], state.refs[inst.name]
        if tracer:
            tracer.instance = inst.name
        front, exc, dt, wall = timed(tracer, "solve", search, mdp,
                                     SearchConfig(thread_count=1))
        sums["solve"] += dt
        walls["solve"] += wall
        checker.solve(inst, front, exc, ref, counts)
        if "oracle" in inst.ops:
            ofront, exc, dt, wall = timed(tracer, "oracle", oracle.brute_force_front, mdp,
                                          thread_count=1)
            sums["oracle"] += dt
            walls["oracle"] += wall
            checker.oracle_front(inst, ofront, exc, ref, counts)
        if "verify" in inst.ops:
            if front is None:
                checker.attempted += 1
                checker.fail(inst, "verify", "skipped: solve produced no front")
                continue
            report, exc, dt, wall = timed(tracer, "verify", oracle.verify_front, mdp, front,
                                          seed=verify_seed, thread_count=1)
            sums["verify"] += dt
            walls["verify"] += wall
            checker.verify(inst, report, exc)
    return sums, walls, counts


def summary(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


# One pass of a run: per-op summed scaled seconds and wall seconds, counts
# (with the layer values of a traced pass), and the pass's own wall seconds.
Pass = namedtuple("Pass", "traced seconds walls counts wall")


def measure(state, args, tracer):
    """Passes until the time is used up. With a tracer, odd passes are traced;
    without one, each pass is followed by a set-up in a fresh process, so the
    set-up samples spread over the run as the passes do.

    Returns (passes, checker, set-ups), each set-up a (scaled, wall) pair.
    """
    rng = random.Random(args.seed)
    checker = Checker(None)
    passes = []
    setups = []
    rounds = []  # wall seconds of each pass with its set-up probe
    begin = time.perf_counter()
    min_passes = 2 if tracer else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(state.instances)
        rng.shuffle(order)
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
            checker.tracer = tracer
        t0 = time.perf_counter()
        try:
            sums, walls, counts = run_pass(state, order, checker,
                                           tracer if traced else None, rng.randrange(2**31))
        finally:
            if traced:
                tracer.restore()
                checker.tracer = None
        wall = time.perf_counter() - t0
        if tracer is None:
            setups.append(setup_probe(args.workload))
        rounds.append(time.perf_counter() - t0)
        if traced:
            spans = tracer.spans[first_span:]
            counts.update(tracing.layer_values(spans))
            counts["oracle.nondominated"] = tracing.oracle_nondominated(spans)
        passes.append(Pass(traced, sums, walls, counts, wall))
        elapsed = time.perf_counter() - begin
        if len(passes) >= min_passes and elapsed + statistics.median(rounds) > args.seconds:
            return passes, checker, setups


def main(argv=None) -> int:
    args = parse_args(argv)
    own_setup, state = prepare.prepare(args.workload)
    own_setup = (own_setup.seconds, own_setup.wall)
    env = environment()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.workload = args.workload
    passes, checker, probes = measure(state, args, tracer)
    setups = [own_setup, *probes]

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    n_inst = len(state.instances)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(traced)} traced)  instances per pass {n_inst}")
    print("env " + json.dumps(env))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "instances": [i.name for i in state.instances],
              "env": env}

    metrics = {}

    def put(name, values, unit, runs_word="passes"):
        med, q1, q3 = summary(values)
        print(f"  {name:34s} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}; "
              f"{len(values)} {runs_word} x {n_inst} instances)")
        metrics[name] = {"value": med, "unit": unit}

    def wall(label, values, runs_word="passes"):
        med, q1, q3 = summary(values)
        print(f"    {label:32s} {med:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g}; {runs_word})")

    if args.trace == 0:
        put("setup_s", [s[0] for s in setups], "s", "set-ups")
        wall("wall time of set-up", [s[1] for s in setups], "set-ups")
        for op in OPS:
            put(f"{op}_s", [p.seconds[op] for p in plain], "s")
            wall(f"wall time of {op}", [p.walls[op] for p in plain])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        put("peak_rss_mb", [rss], "MB", "run")
    else:
        op_time = lambda p: sum(p.walls.values())  # noqa: E731
        overhead = (statistics.median(map(op_time, traced))
                    / statistics.median(map(op_time, plain)) - 1.0)
        for name, unit in PER_LAYER.items():
            if name != "trace.overhead_frac":
                put(name, [p.counts.get(name, 0) for p in traced], unit, "traced passes")
        put("trace.overhead_frac", [overhead], "ratio", "run")
        shares = tracing.self_shares(tracer.spans)
        print("self-time shares of each operation (traced passes):")
        for op, layers in shares.items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(layers.items())[:6])
            print(f"  {op}: {top}")
        report["self_shares"] = shares
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "env": env})

    attempted, failed = checker.attempted, len(checker.failures)
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} operations)")
    for f in checker.failures[:20]:
        print(f"FAILED {f}")
    for name, what in sorted(checker.known.items()):
        print(f"known oracle defect {name}: {what}")
    for note in sorted(checker.notes):
        print(f"note {note}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report.update(result, failures=checker.failures, known_oracle_defects=checker.known,
                  setups=setups,
                  pass_seconds=[{"traced": p.traced, **p.seconds} for p in passes],
                  pass_walls=[{"traced": p.traced, **p.walls} for p in passes])
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
