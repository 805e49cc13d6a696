"""Spans around the solver's public functions, installed from outside `src/`.

Every layer function is wrapped at each module that looks it up by name, so
the program itself is left untouched. `momdp_pareto.search` and friends are
reached through `importlib.import_module`: the package's `__init__` rebinds
`momdp_pareto.search` to the *function* `search`, so attribute access on the
package would silently give the function instead of the module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). The span name is the layer; which top-level
# operation a span ran under is recorded separately, so `pprune` under the
# oracle and `pprune` under search are told apart without two names.
BINDINGS = [
    ("search", "long_term_return", "mdp.eval"),
    ("oracle", "long_term_return", "mdp.eval"),
    ("search", "solve_scalarized", "mdp.planner"),
    ("search", "dominance", "geometry.dominance"),
    ("search", "pprune", "geometry.pprune"),
    ("oracle", "pprune", "geometry.pprune"),
    ("search", "convex_hull", "geometry.hull"),
    ("oracle", "convex_hull", "geometry.hull"),
    ("search", "pareto_lp", "geometry.lp"),
    ("search", "affine_dimension", "geometry.svd"),
    ("geometry", "affine_dimension", "geometry.svd"),
    ("oracle", "affine_dimension", "geometry.svd"),
    ("search", "subfaces_at", "geometry.subfaces"),
    ("search", "select_pareto_faces", "search.faces"),
    ("oracle", "select_pareto_faces", "search.faces"),
    ("search", "consolidate_faces", "search.consolidate"),
    ("oracle", "consolidate_faces", "search.consolidate"),
    ("search", "explore_vertex", "search.explore"),
    ("oracle", "compare_fronts", "oracle.compare"),
    ("serialize", "front_to_dict", "serialize.front_json"),
    ("serialize", "dump_json", "serialize.front_json"),
]


def _rows(args, kwargs, result):
    return {"rows": int(len(args[0])), "out": len(result)}


def _lp(args, kwargs, result, eps_pos):
    return {"passed": int(result.t_star > eps_pos)}


def _faces(args, kwargs, result):
    return {"passed": len(result[0])}


def _consolidate(args, kwargs, result):
    return {"in": len(args[0]), "out": len(result)}


# Counts taken from a wrapped call's arguments and result, per layer.
# "geometry.lp" is added by `Tracer.install`, which reads the threshold an LP
# has to pass from the program.
NOTES = {
    "geometry.pprune": _rows,
    "search.faces": _faces,
    "search.consolidate": _consolidate,
}

# Top-level operations: the benchmark opens these spans itself, around its
# calls to `search`, `brute_force_front` and `verify_front`. Output checks run
# under "check".
OPS = ("solve", "oracle", "verify", "check")


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "workload", "instance",
                 "child", "error", "note")

    def __init__(self, name, parent, root, workload, instance):
        self.name = name
        self.parent = parent
        self.root = root
        self.workload = workload
        self.instance = instance
        self.child = 0.0
        self.error = None
        self.note = None
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span recorder; `install` wraps the layers, `restore` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.workload = ""
        self.instance = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]].name if self._stack else name
        span = Span(name, parent, root, self.workload, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]].child += span.end - span.start

    def _wrap(self, original, name, note):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding; a renamed function raises AttributeError here."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        found = []
        for mod_name, attr, span_name in BINDINGS:
            module = importlib.import_module(f"momdp_pareto.{mod_name}")
            found.append((module, attr, getattr(module, attr), span_name))
        # The benchmark runs `search` with the default config, so an LP
        # passes above the default positivity threshold.
        eps_pos = importlib.import_module("momdp_pareto.search").SearchConfig().eps_pos
        notes = {**NOTES, "geometry.lp": functools.partial(_lp, eps_pos=eps_pos)}
        for module, attr, original, span_name in found:
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, notes.get(span_name)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one line per span:
        [name, start, end, parent index, workload, instance]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.workload,
                                     s.instance]) + "\n")


def aggregate(spans: list[Span]) -> dict[tuple[str, str], dict[str, float]]:
    """Totals per (operation, layer): calls, inclusive and self seconds, notes,
    and the number of calls that raised each exception type."""
    agg: dict[tuple[str, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[(s.root, s.name)]
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += s.self_s
        if s.error is not None:
            a["raised." + s.error] += 1
        if s.note:
            for k, v in s.note.items():
                a[k] += v
    return agg


# Per-layer metrics: (name, unit, operation, layer, field). Field "s" is
# inclusive time, "self_s" self time, "calls" the call count; any other field
# is a note or an exception count summed over calls.
LAYER_METRICS = [
    ("mdp.eval_s", "s", "solve", "mdp.eval", "s"),
    ("mdp.eval_calls", "count", "solve", "mdp.eval", "calls"),
    ("mdp.planner_s", "s", "solve", "mdp.planner", "s"),
    ("mdp.planner_calls", "count", "solve", "mdp.planner", "calls"),
    ("geometry.dominance_s", "s", "solve", "geometry.dominance", "s"),
    ("geometry.dominance_calls", "count", "solve", "geometry.dominance", "calls"),
    ("geometry.pprune.search_s", "s", "solve", "geometry.pprune", "s"),
    ("geometry.pprune.search_rows", "count", "solve", "geometry.pprune", "rows"),
    ("geometry.pprune.oracle_s", "s", "oracle", "geometry.pprune", "s"),
    ("geometry.pprune.oracle_rows", "count", "oracle", "geometry.pprune", "rows"),
    ("geometry.hull_s", "s", "solve", "geometry.hull", "s"),
    ("geometry.hull_calls", "count", "solve", "geometry.hull", "calls"),
    ("geometry.hull_degenerate", "count", "solve", "geometry.hull", "raised.DegenerateHullError"),
    ("search.faces_s", "s", "solve", "search.faces", "s"),
    ("search.faces_calls", "count", "solve", "search.faces", "calls"),
    ("search.faces_passed", "count", "solve", "search.faces", "passed"),
    ("geometry.lp_s", "s", "solve", "geometry.lp", "s"),
    ("geometry.lp_calls", "count", "solve", "geometry.lp", "calls"),
    ("geometry.svd_s", "s", "solve", "geometry.svd", "s"),
    ("geometry.svd_calls", "count", "solve", "geometry.svd", "calls"),
    ("geometry.subfaces_s", "s", "solve", "geometry.subfaces", "s"),
    ("geometry.subfaces_calls", "count", "solve", "geometry.subfaces", "calls"),
    ("search.consolidate_s", "s", "solve", "search.consolidate", "s"),
    ("search.consolidate_in", "count", "solve", "search.consolidate", "in"),
    ("search.consolidate_out", "count", "solve", "search.consolidate", "out"),
    ("search.explore_s", "s", "solve", "search.explore", "s"),
    ("search.explore_calls", "count", "solve", "search.explore", "calls"),
    ("search.explore_self_s", "s", "solve", "search.explore", "self_s"),
    ("oracle.self_s", "s", "oracle", "oracle", "self_s"),
    ("oracle.hull_s", "s", "oracle", "geometry.hull", "s"),
    ("oracle.faces_s", "s", "oracle", "search.faces", "s"),
    ("oracle.consolidate_s", "s", "oracle", "search.consolidate", "s"),
    ("oracle.verify_eval_s", "s", "verify", "mdp.eval", "s"),
    ("oracle.verify_samples", "count", "verify", "mdp.eval", "calls"),
    ("oracle.verify_self_s", "s", "verify", "verify", "self_s"),
    ("oracle.compare_s", "s", "check", "oracle.compare", "s"),
    ("serialize.front_json_s", "s", "check", "serialize.front_json", "s"),
]


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values over a list of spans, plus `geometry.lp_pass_frac`."""
    agg = aggregate(spans)
    out = {}
    for name, _unit, op, layer, fld in LAYER_METRICS:
        out[name] = agg.get((op, layer), {}).get(fld, 0.0)
    lp = agg.get(("solve", "geometry.lp"), {})
    out["geometry.lp_pass_frac"] = lp.get("passed", 0.0) / lp["calls"] if lp else 0.0
    return out


def oracle_nondominated(spans: list[Span]) -> int:
    """Points left by the last `pprune` call of each oracle run, summed.

    The oracle prunes large arrays chunk by chunk and then prunes the
    survivors, so only its last call returns the non-dominated set.
    """
    total = last = 0
    for s in spans:
        if s.parent == -1 and s.name == "oracle":
            total, last = total + last, 0
        elif s.root == "oracle" and s.name == "geometry.pprune" and s.note:
            last = s.note["out"]
    return total + last


def self_shares(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time of each layer as a share of its operation's total time.

    Self times partition an operation's span, so these shares sum to one per
    operation and rank the layers without double counting nested calls.
    """
    agg = aggregate(spans)
    totals = {op: agg[(op, op)]["s"] for op in OPS if (op, op) in agg}
    shares: dict[str, dict[str, float]] = defaultdict(dict)
    for (op, layer), a in agg.items():
        if op in totals and totals[op] > 0:
            shares[op][layer] = a["self_s"] / totals[op]
    return {op: dict(sorted(v.items(), key=lambda kv: -kv[1])) for op, v in shares.items()}
