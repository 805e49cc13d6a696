"""Command line front end: gen, solve, oracle, compare, verify, bench, export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable

from . import __version__
from .mdp import InvalidMdpError, check_count, gen_gridworld, gen_random_mdp
from .oracle import (
    EnumerationCapError,
    bench_suite,
    brute_force_front,
    compare_fronts,
    verify_front,
)
from .search import SearchAbortError, SearchConfig, search
from .serialize import (
    bench_rows_to_csv,
    dump_json,
    front_from_dict,
    front_to_csv,
    front_to_dict,
    front_to_off,
    mdp_from_dict,
    mdp_to_dict,
    sha256_hex,
    write_json,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_ABORT = 3
EXIT_CAP = 4


def _int_list(flag: str, text: str) -> list[int]:
    """The comma-separated ints of text; a ValueError naming flag if not."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated ints, got {text!r}") from None


def _meta(config: dict[str, Any], input_bytes: bytes | None) -> dict[str, Any]:
    return {
        "tool": "momdp-pareto",
        "version": __version__,
        "config": config,
        "input_sha256": sha256_hex(input_bytes) if input_bytes is not None else None,
    }


def _meta_comments(meta: dict[str, Any]) -> list[str]:
    return [
        f"tool={meta['tool']} version={meta['version']}",
        "config=" + json.dumps(meta["config"]),
        f"input_sha256={meta['input_sha256']}",
    ]


def _load(path: str, from_dict: Callable[[dict[str, Any]], Any]):
    """The object from_dict builds from a JSON file, and the file's bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return from_dict(json.loads(blob.decode("utf-8"))), blob


def _print_stats_line(front) -> None:
    total = front.stats.wall_time.get("total", 0.0)
    print(
        f"vertices={len(front.vertices)} faces={len(front.faces)} "
        f"policies_evaluated={front.stats.policies_evaluated} "
        f"planner_calls={front.stats.planner_calls} "
        f"lps_solved={front.stats.lps_solved} "
        f"lps_screened={front.stats.lps_screened} "
        f"vertex_scans={front.stats.vertex_scans} "
        f"wall_time_s={total:.3f} "
        f"degeneracy_warnings={len(front.stats.warnings)}"
    )
    for w in front.stats.warnings:
        print(f"warning: {w}", file=sys.stderr)


def cmd_gen(args: argparse.Namespace) -> int:
    config: dict[str, Any] = {
        "command": "gen",
        "kind": args.kind,
        "seed": args.seed,
        "gamma": args.gamma,
        "objectives": args.objectives,
        "output": args.output,
    }
    if args.kind == "random":
        config.update({"states": args.states, "actions": args.actions})
        mdp = gen_random_mdp(args.seed, args.states, args.actions, args.objectives, args.gamma)
    else:
        config.update({"rows": args.rows, "cols": args.cols})
        mdp = gen_gridworld(args.seed, args.rows, args.cols, args.objectives, args.gamma)
    write_json(args.output, mdp_to_dict(mdp), _meta(config, None))
    print(
        f"wrote {args.output}: states={mdp.num_states} actions={mdp.num_actions} "
        f"objectives={mdp.num_objectives} gamma={mdp.gamma}"
    )
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    config = {
        "command": "solve",
        "input": args.mdp,
        "output": args.output,
        "seed": args.seed,
    }
    mdp, blob = _load(args.mdp, mdp_from_dict)
    front = search(mdp, SearchConfig(seed=args.seed))
    write_json(args.output, front_to_dict(front), _meta(config, blob))
    _print_stats_line(front)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    config = {
        "command": "oracle",
        "input": args.mdp,
        "output": args.output,
        "cap": args.cap,
    }
    mdp, blob = _load(args.mdp, mdp_from_dict)
    front = brute_force_front(mdp, cap=args.cap)
    write_json(args.output, front_to_dict(front), _meta(config, blob))
    _print_stats_line(front)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    front_a, _ = _load(args.front_a, front_from_dict)
    front_b, _ = _load(args.front_b, front_from_dict)
    report = compare_fronts(front_a, front_b, tol=args.tol)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(
            f"vertex_match={report.vertex_match} face_match={report.face_match} "
            f"max_vertex_distance={report.max_vertex_distance:.3e} tol={report.tol:g}"
        )
        for ret in report.unmatched_a:
            print(f"only in {args.front_a}: return {ret}")
        for ret in report.unmatched_b:
            print(f"only in {args.front_b}: return {ret}")
        for key in report.face_diffs["a_only"]:
            print(f"face only in {args.front_a}: vertices {list(key)}")
        for key in report.face_diffs["b_only"]:
            print(f"face only in {args.front_b}: vertices {list(key)}")
    return EXIT_OK if report.match else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    mdp, _ = _load(args.mdp, mdp_from_dict)
    front, _ = _load(args.front, front_from_dict)
    report = verify_front(
        mdp,
        front,
        samples_per_face=args.samples,
        tol=args.tol,
        seed=args.seed,
        cap=args.cap,
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(
            f"verified={report.passed} faces={len(report.face_checks)} "
            f"samples_per_face={args.samples}"
        )
        for vid in report.dominated_vertices:
            print(f"vertex {vid} is dominated by an enumerated policy")
        for check in report.face_checks:
            if not check.passed:
                print(
                    f"face {check.face_id} failed: max_affine_residual="
                    f"{check.max_affine_residual:.3e} dominated_samples={check.n_dominated}"
                )
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_bench(args: argparse.Namespace) -> int:
    config = {
        "command": "bench",
        "states": args.states,
        "actions": args.actions,
        "objectives": args.objectives,
        "seeds": args.seeds,
        "gamma": args.gamma,
        "cap": args.cap,
        "output": args.output,
    }
    states = _int_list("--states", args.states)
    actions = _int_list("--actions", args.actions)
    check_count("--seeds", args.seeds, 1)
    rows = bench_suite(
        states, actions, args.objectives, list(range(args.seeds)), gamma=args.gamma, cap=args.cap
    )
    text = bench_rows_to_csv(rows, _meta_comments(_meta(config, None)))
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    config = {
        "command": "export",
        "input": args.front,
        "format": args.format,
        "output": args.output,
    }
    front, blob = _load(args.front, front_from_dict)
    meta = _meta(config, blob)
    if args.format == "off":
        text = front_to_off(front, _meta_comments(meta))
    elif args.format == "csv":
        text = front_to_csv(front, _meta_comments(meta))
    else:
        text = dump_json(front_to_dict(front), meta)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momdp-pareto",
        description="Exact Pareto fronts (vertices and faces) for multi-objective MDPs.",
    )
    parser.add_argument("--version", action="version", version=f"momdp-pareto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an MDP and write it as JSON")
    p.add_argument("kind", choices=["random", "grid"])
    p.add_argument("--states", type=int, default=4, help="state count (random)")
    p.add_argument("--actions", type=int, default=3, help="action count (random)")
    p.add_argument("--rows", type=int, default=3, help="grid rows (grid)")
    p.add_argument("--cols", type=int, default=3, help="grid cols (grid)")
    p.add_argument("--objectives", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="compute the Pareto front by local-hull search")
    p.add_argument("mdp")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="compute the Pareto front by full enumeration")
    p.add_argument("mdp")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="match two front files vertex by vertex")
    p.add_argument("front_a")
    p.add_argument("front_b")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="sample faces of a front and check them")
    p.add_argument("mdp")
    p.add_argument("front")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time solve and oracle over an instance grid")
    p.add_argument("--states", default="5", help="comma-separated state counts")
    p.add_argument("--actions", default="5,6,7", help="comma-separated action counts")
    p.add_argument("--objectives", type=int, default=3)
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (0..n-1)")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="re-emit a front as JSON, CSV or an OFF mesh")
    p.add_argument("front")
    p.add_argument("--format", choices=["json", "csv", "off"], default="json")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its errors become one stderr line each and an exit
    code, never a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidMdpError as exc:
        for line in exc.violations:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_INVALID
    except SearchAbortError as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
