"""JSON round-tripping for MDPs and fronts, plus OFF and CSV exports."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Any

import numpy as np

from .mdp import Mdp
from .search import FaceRecord, ParetoFront, SearchStats, VertexRecord


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mdp_to_dict(mdp: Mdp) -> dict[str, Any]:
    """Plain-JSON representation of an MDP; floats keep full precision."""
    return {
        "states": mdp.num_states,
        "actions": mdp.num_actions,
        "objectives": mdp.num_objectives,
        "gamma": mdp.gamma,
        "mu": mdp.mu.tolist(),
        "P": mdp.P.tolist(),
        "r": mdp.r.tolist(),
    }


def _whole(value: Any, what: str) -> int:
    """A whole JSON number as an int, never truncated; else a ValueError naming `what`."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def mdp_from_dict(data: dict[str, Any]) -> Mdp:
    """Rebuild an MDP, checking the declared sizes against the arrays."""
    try:
        S, A, D = (_whole(data[k], k) for k in ("states", "actions", "objectives"))
        P = np.asarray(data["P"], dtype=float)
        r = np.asarray(data["r"], dtype=float)
        mu = np.asarray(data["mu"], dtype=float)
        gamma = float(data["gamma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed MDP payload: {exc}") from exc
    if P.shape != (S, A, S):
        raise ValueError(f"P has shape {P.shape}, declared sizes require {(S, A, S)}")
    if r.shape != (S, A, D):
        raise ValueError(f"r has shape {r.shape}, declared sizes require {(S, A, D)}")
    if mu.shape != (S,):
        raise ValueError(f"mu has shape {mu.shape}, declared sizes require {(S,)}")
    return Mdp(P=P, r=r, gamma=gamma, mu=mu)


def front_to_dict(front: ParetoFront) -> dict[str, Any]:
    """Plain-JSON representation of a front, stable across repeated runs.

    Wall-clock timings are deliberately left out so identical runs serialize
    to identical bytes; they remain available on the in-memory SearchStats.
    """
    return {
        "vertices": [
            {
                "id": v.id,
                "actions": [int(a) for a in v.policy],
                "return": [float(x) for x in v.ret],
                "co_policies": [[int(a) for a in p] for p in v.co_policies],
            }
            for v in front.vertices
        ],
        "faces": [
            {
                "vertex_ids": list(f.vertex_ids),
                "dim": f.dim,
                "normals": np.asarray(f.normals, dtype=float).tolist(),
                "alpha": np.asarray(f.alpha, dtype=float).tolist(),
                "t_star": float(f.t_star),
            }
            for f in front.faces
        ],
        "stats": {
            "iterations": front.stats.iterations,
            "policies_evaluated": front.stats.policies_evaluated,
            "planner_calls": front.stats.planner_calls,
            "return_scale": front.return_scale,
        },
        "warnings": list(front.stats.warnings),
    }


def _actions(actions: Any, what: str) -> np.ndarray:
    return np.array(
        [_whole(a, f"{what}: action at state {s}") for s, a in enumerate(actions)], dtype=np.int64
    )


def _vertex_id(vid: Any, count: int, what: str) -> int:
    vid = _whole(vid, f"{what}: vertex id")
    if not 0 <= vid < count:
        raise ValueError(f"{what}: vertex id {vid} is not in [0, {count})")
    return vid


def front_from_dict(data: dict[str, Any]) -> ParetoFront:
    """Rebuild a front. Ids, actions, dimensions and counts must be whole
    numbers, each vertex id its position in the list, every return as long
    as the first, and every face must have vertex ids, each naming a
    vertex; the error names the entry."""
    try:
        vertices = [
            VertexRecord(
                id=_whole(v["id"], f"vertex {k}: id"),
                policy=_actions(v["actions"], f"vertex {k}"),
                co_policies=[
                    _actions(p, f"vertex {k}, co-policy {j}")
                    for j, p in enumerate(v["co_policies"])
                ],
                ret=np.asarray(v["return"], dtype=float),
            )
            for k, v in enumerate(data["vertices"])
        ]
        for k, v in enumerate(vertices):
            if v.id != k:
                raise ValueError(f"vertex {k}: id {v.id} is not its position {k}")
            if v.ret.ndim != 1 or v.ret.size != vertices[0].ret.size:
                first = vertices[0].ret.size
                raise ValueError(f"vertex {k}: return has {v.ret.size} entries, vertex 0's {first}")
        faces = [
            FaceRecord(
                vertex_ids=tuple(
                    _vertex_id(i, len(vertices), f"face {k}") for i in f["vertex_ids"]
                ),
                dim=_whole(f["dim"], f"face {k}: dim"),
                normals=np.asarray(f["normals"], dtype=float),
                alpha=np.asarray(f["alpha"], dtype=float),
                t_star=float(f["t_star"]),
            )
            for k, f in enumerate(data["faces"])
        ]
        for k, f in enumerate(faces):
            if not f.vertex_ids:
                raise ValueError(f"face {k}: no vertex ids")
        stats = SearchStats(
            iterations=_whole(data["stats"]["iterations"], "iterations"),
            policies_evaluated=_whole(data["stats"]["policies_evaluated"], "policies_evaluated"),
            planner_calls=_whole(data["stats"]["planner_calls"], "planner_calls"),
            warnings=[str(w) for w in data.get("warnings", [])],
        )
        scale = float(data["stats"]["return_scale"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed front payload: {exc}") from exc
    return ParetoFront(vertices=vertices, faces=faces, stats=stats, return_scale=scale)


def dump_json(payload: dict[str, Any], meta: dict[str, Any] | None = None) -> str:
    """Serialize a payload dict, appending run metadata under "meta"."""
    body = dict(payload)
    if meta is not None:
        body["meta"] = meta
    return json.dumps(body, indent=2) + "\n"


def write_json(path: str, payload: dict[str, Any], meta: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(payload, meta))


def _fan_triangles(points: np.ndarray, vertex_ids: list[int]) -> list[tuple[int, int, int]]:
    """Triangulate one planar polygon by ordering its vertices angularly."""
    pts = points[vertex_ids]
    center = pts.mean(axis=0)
    centered = pts - center
    # Basis of the polygon's plane from the two leading right-singular vectors.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    uv = centered @ vt[:2].T
    order = sorted(range(len(vertex_ids)), key=lambda i: float(np.arctan2(uv[i, 1], uv[i, 0])))
    ring = [vertex_ids[i] for i in order]
    return [(ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]


def front_to_off(front: ParetoFront, comments: list[str] | None = None) -> str:
    """OFF mesh of a 3-objective front: all vertices, 2-faces triangulated."""
    dims = {len(v.ret) for v in front.vertices}
    if dims != {3}:
        raise ValueError("OFF export requires exactly 3 objectives")
    points = np.array([v.ret for v in front.vertices])
    triangles: list[tuple[int, int, int]] = []
    for face in front.faces:
        if face.dim != 2:
            continue
        triangles.extend(_fan_triangles(points, list(face.vertex_ids)))
    lines = [f"# {c}" for c in comments or []]
    lines.append("OFF")
    lines.append(f"{len(points)} {len(triangles)} 0")
    for p in points:
        lines.append(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    for tri in triangles:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    return "\n".join(lines) + "\n"


def front_to_csv(front: ParetoFront, comments: list[str] | None = None) -> str:
    """CSV table of the front's vertices: ids, action vectors and returns."""
    buf = io.StringIO()
    for c in comments or []:
        buf.write(f"# {c}\n")
    n_states = len(front.vertices[0].policy) if front.vertices else 0
    n_obj = len(front.vertices[0].ret) if front.vertices else 0
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["id"]
        + [f"action_{s}" for s in range(n_states)]
        + [f"return_{d}" for d in range(n_obj)]
        + ["co_policies"]
    )
    for v in front.vertices:
        writer.writerow(
            [v.id]
            + [int(a) for a in v.policy]
            + [repr(float(x)) for x in v.ret]
            + [len(v.co_policies)]
        )
    return buf.getvalue()


def bench_rows_to_csv(rows, comments: list[str] | None = None) -> str:
    """CSV table for benchmark rows."""
    buf = io.StringIO()
    for c in comments or []:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["states", "actions", "objectives", "seed", "solver", "vertices", "faces", "seconds"])
    for row in rows:
        writer.writerow(
            [row.states, row.actions, row.objectives, row.seed, row.solver, row.vertices, row.faces, repr(row.seconds)]
        )
    return buf.getvalue()
