"""Pareto front construction by vertex traversal with local-hull face tests."""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .geometry import (
    ApexNotVertexError,
    DegenerateHullError,
    Dominance,
    FaceDescriptor,
    LocalHull,
    LpCertificate,
    affine_dimension,
    convex_hull,
    deterministic_jitter,
    dominance,
    incident_facets,
    pareto_lp,
    passes_sign_screen,
    pprune,
    subfaces_at,
)
from .mdp import (
    InvalidMdpError,
    Mdp,
    long_term_return,
    mix_policies,
    neighbors_one,
    solve_scalarized,
    validate_mdp,
)


class SearchAbortError(RuntimeError):
    """Raised when a return assumed to be a Pareto vertex turns out not to be."""


@dataclass(eq=False)
class VertexRecord:
    """One Pareto vertex: its return and every policy known to achieve it."""

    id: int
    policy: np.ndarray
    co_policies: list[np.ndarray]
    ret: np.ndarray


@dataclass(eq=False)
class FaceRecord:
    """One Pareto face with the LP certificate that admitted it.

    `normals` holds the defining facet normals from the local hull where the
    face was first discovered; `alpha` are the certificate weights over those
    normals and `t_star` the certified LP optimum.
    """

    vertex_ids: tuple[int, ...]
    dim: int
    normals: np.ndarray
    alpha: np.ndarray
    t_star: float


@dataclass
class SearchStats:
    iterations: int = 0
    policies_evaluated: int = 0
    planner_calls: int = 0
    warnings: list[str] = field(default_factory=list)
    wall_time: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class ParetoFront:
    """All Pareto vertices and faces of one MDP, plus run statistics."""

    vertices: list[VertexRecord]
    faces: list[FaceRecord]
    stats: SearchStats
    return_scale: float


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for `search`; the defaults suit well-conditioned instances.

    `initial_policy` overrides the scalarized planner start; it exists for
    testing pathological starts and is not exposed on the command line.
    """

    seed: int = 0
    thread_count: int = 1
    eps_equal: float = 1e-9
    eps_geom: float = 1e-9
    eps_pos: float = 1e-9
    initial_policy: Sequence[int] | None = None


def return_scale(mdp: Mdp) -> float:
    """Factor mapping raw returns to a [0, 1]-ish range for comparisons."""
    return (1.0 - mdp.gamma) / max(1.0, float(np.abs(mdp.r).max()))


def _policy_key(policy: np.ndarray) -> tuple[int, ...]:
    return tuple(int(a) for a in policy)


@dataclass(eq=False)
class _Group:
    """Coincident-return neighbors collapsed to one representative."""

    policy: np.ndarray
    raw: np.ndarray
    scaled: np.ndarray
    co: list[np.ndarray]


@dataclass(eq=False)
class SearchContext:
    """Mutable state shared across vertex explorations of one search run."""

    mdp: Mdp
    config: SearchConfig
    scale: float
    z: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    vertices: list[VertexRecord] = field(default_factory=list)
    scaled: list[np.ndarray] = field(default_factory=list)
    faces: list[FaceRecord] = field(default_factory=list)
    face_keys: set[tuple[int, ...]] = field(default_factory=set)
    queue: deque[int] = field(default_factory=deque)
    stats: SearchStats = field(default_factory=SearchStats)

    def warn(self, message: str) -> None:
        self.stats.warnings.append(message)


def make_context(mdp: Mdp, config: SearchConfig | None = None) -> SearchContext:
    config = config or SearchConfig()
    return SearchContext(mdp=mdp, config=config, scale=return_scale(mdp))


def _evaluate_many(
    mdp: Mdp, policies: Sequence[np.ndarray], thread_count: int
) -> list[np.ndarray]:
    """Long-term returns of several policies, in input order."""
    if thread_count > 1 and len(policies) > 1:
        with ThreadPoolExecutor(max_workers=thread_count) as pool:
            return list(pool.map(lambda p: long_term_return(mdp, p), policies))
    return [long_term_return(mdp, p) for p in policies]


def _merge_co_policy(record: VertexRecord, policy: np.ndarray) -> None:
    key = _policy_key(policy)
    if key == _policy_key(record.policy):
        return
    if any(key == _policy_key(p) for p in record.co_policies):
        return
    record.co_policies.append(np.asarray(policy, dtype=np.int64))


def _find_vertex(ctx: SearchContext, scaled_point: np.ndarray) -> int | None:
    for vid, s in enumerate(ctx.scaled):
        if np.abs(s - scaled_point).max() <= ctx.config.eps_equal:
            return vid
    return None


def _add_vertex(
    ctx: SearchContext, policy: np.ndarray, raw: np.ndarray, co: list[np.ndarray]
) -> int:
    vid = len(ctx.vertices)
    ctx.vertices.append(
        VertexRecord(id=vid, policy=np.asarray(policy, dtype=np.int64), co_policies=co, ret=raw)
    )
    ctx.scaled.append(raw * ctx.scale)
    ctx.queue.append(vid)
    return vid


def select_pareto_faces(
    apex_id: int, hull: LocalHull, eps_pos: float = 1e-9
) -> tuple[list[tuple[FaceDescriptor, LpCertificate]], list[int]]:
    """Find the Pareto faces of the hull that are incident to the apex.

    Starts from the apex's facets and walks down: a face whose positivity LP
    optimum exceeds eps_pos is recorded, anything else is split into subfaces
    one dimension lower until dimension 1. Faces that fail the sign screen
    fail without an LP; their certificates would never be stored.

    Returns:
        The passing faces paired with their LP certificates, and the sorted
        ids of all hull vertices lying on at least one passing face.
    """
    apex_facet_sets = {
        fi: frozenset(hull.facets[fi].vertex_ids) for fi in incident_facets(hull, apex_id)
    }
    queue: deque[FaceDescriptor] = deque()
    seen: set[tuple[int, ...]] = set()

    def enqueue(vids: tuple[int, ...], dim: int) -> None:
        """Queue the face on `vids` (affine dimension `dim`) once.

        The same geometric face can be reached along several descent paths;
        defining it by every apex facet that contains it makes the LP input,
        and therefore the verdict, independent of the path taken. So the
        descriptor depends on the vertex set alone and needs testing once.
        """
        vids = tuple(sorted(vids))
        if vids in seen:
            return
        seen.add(vids)
        vset = set(vids)
        defining = tuple(fi for fi, fset in apex_facet_sets.items() if vset <= fset)
        queue.append(FaceDescriptor(vertex_ids=vids, defining_facets=defining, dim=dim))

    for fi in apex_facet_sets:
        vids = hull.facets[fi].vertex_ids
        enqueue(vids, affine_dimension(hull.points[list(vids)]))
    passing: list[tuple[FaceDescriptor, LpCertificate]] = []
    while queue:
        face = queue.popleft()
        if face.dim < 1:
            continue
        normals = np.array([hull.facets[fi].normal for fi in face.defining_facets])
        if passes_sign_screen(normals, eps_pos):
            cert = pareto_lp(normals)
            if cert.t_star > eps_pos:
                passing.append((face, cert))
                continue
        if face.dim > 1:
            for child in subfaces_at(face, hull, apex_id):
                enqueue(child.vertex_ids, child.dim)
    on_front = sorted({vid for fd, _ in passing for vid in fd.vertex_ids})
    return passing, on_front


def _support_lp(points: np.ndarray, vids: tuple[int, ...]) -> tuple[np.ndarray | None, float]:
    """Best positive-leaning normal supporting the subset `vids` of `points`.

    Maximizes the smallest coordinate of a normal w (normalized to sum 1) that
    is constant on the subset and puts every other point weakly below it.
    Returns (unit normal, min coordinate), or (None, -inf) when no supporting
    normal exists.
    """
    n, d = points.shape
    apex = points[vids[0]]
    rows_eq = [np.append(points[k] - apex, 0.0) for k in vids[1:]]
    rows_eq.append(np.append(np.ones(d), 0.0))
    b_eq = np.zeros(len(rows_eq))
    b_eq[-1] = 1.0
    rows_ub = [np.append(points[m] - apex, 0.0) for m in range(n) if m not in vids]
    for j in range(d):
        row = np.zeros(d + 1)
        row[j] = -1.0
        row[-1] = 1.0
        rows_ub.append(row)
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=np.array(rows_ub),
        b_ub=np.zeros(len(rows_ub)),
        A_eq=np.array(rows_eq),
        b_eq=b_eq,
        bounds=[(None, None)] * (d + 1),
        method="highs",
    )
    if not res.success:
        return None, float("-inf")
    w = res.x[:d]
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        return None, float("-inf")
    w = w / norm
    return w, float(w.min())


_LocalFace = tuple[tuple[int, ...], np.ndarray, np.ndarray, float, int]


def _support_faces(ctx: SearchContext, pts: np.ndarray) -> list[_LocalFace]:
    """Face selection fallback when too few points exist to build a hull.

    Tests subsets containing the apex (index 0) directly with the supporting
    normal LP, descending from the full set down to segments.
    """
    n = pts.shape[0]
    queue: deque[tuple[int, ...]] = deque([tuple(range(n))])
    tested: set[tuple[int, ...]] = set()
    out: list[_LocalFace] = []
    while queue:
        vids = queue.popleft()
        if vids in tested:
            continue
        tested.add(vids)
        dim = affine_dimension(pts[list(vids)])
        if dim >= 1:
            w, t = _support_lp(pts, vids)
            if w is not None and t > ctx.config.eps_pos:
                out.append((vids, w[None, :], np.ones(1), t, dim))
                continue
        if len(vids) > 2:
            for drop in vids[1:]:
                queue.append(tuple(x for x in vids if x != drop))
    return out


def _local_pareto_faces(
    ctx: SearchContext, vertex: VertexRecord, pts: np.ndarray
) -> list[_LocalFace]:
    """Pareto faces of the local point cloud (apex first) around one vertex."""
    n, D = pts.shape
    if n == 1:
        return []
    if n < D + 1:
        ctx.warn(
            f"vertex {vertex.id}: only {n} local points in {D} objectives; "
            "testing faces directly instead of building a hull"
        )
        return _support_faces(ctx, pts)
    adim = affine_dimension(pts)
    hull_pts = pts
    if adim < D:
        ctx.warn(
            f"vertex {vertex.id}: local returns span dimension {adim} < {D}; "
            "jitter applied before hull construction"
        )
        hull_pts = deterministic_jitter(pts)
    try:
        hull = convex_hull(hull_pts, apex_id=0, eps_geom=ctx.config.eps_geom)
    except DegenerateHullError:
        ctx.warn(
            f"vertex {vertex.id}: hull construction degenerate; "
            "testing faces directly instead"
        )
        return _support_faces(ctx, pts)
    try:
        passing, _ = select_pareto_faces(0, hull, ctx.config.eps_pos)
    except ApexNotVertexError as exc:
        raise SearchAbortError(
            f"vertex {vertex.id} (actions {vertex.policy.tolist()}) lies strictly "
            "inside the hull of its one-change neighbors, so it is not a vertex "
            "of the achievable-return polytope"
        ) from exc
    out: list[_LocalFace] = []
    for fd, cert in passing:
        normals = np.array([hull.facets[fi].normal for fi in fd.defining_facets])
        out.append((fd.vertex_ids, normals, cert.alpha, cert.t_star, fd.dim))
    return out


def explore_vertex(
    ctx: SearchContext, vertex: VertexRecord
) -> tuple[list[FaceRecord], list[VertexRecord]]:
    """Expand one vertex: evaluate its one-change neighbors, keep the
    non-dominated ones, and admit the Pareto faces of the local hull.

    Newly discovered vertices are appended to the context and enqueued exactly
    once; faces are deduplicated globally by their vertex-id sets.

    Returns:
        The face records and vertex records added by this call.
    """
    cfg = ctx.config
    nbrs = neighbors_one(vertex.policy, ctx.mdp.num_actions)
    fresh = [p for p in nbrs if _policy_key(p) not in ctx.z]
    for p, j in zip(fresh, _evaluate_many(ctx.mdp, fresh, cfg.thread_count)):
        ctx.z[_policy_key(p)] = j
    ctx.stats.policies_evaluated += len(fresh)

    apex_scaled = ctx.scaled[vertex.id]
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for p in nbrs:
        raw = ctx.z[_policy_key(p)]
        x = raw * ctx.scale
        rel = dominance(x, apex_scaled, cfg.eps_equal)
        if rel is Dominance.EQUAL:
            _merge_co_policy(vertex, p)
        elif rel is Dominance.DOMINATES:
            raise SearchAbortError(
                f"vertex {vertex.id} (actions {vertex.policy.tolist()}) is strictly "
                f"dominated by its neighbor with actions {p.tolist()}; "
                "its return is not on the Pareto front"
            )
        elif rel is Dominance.INCOMPARABLE:
            kept.append((p, x))
    if not kept:
        return [], []

    nd = pprune(np.array([x for _, x in kept]))
    groups: list[_Group] = []
    for i in nd:
        pol, x = kept[i]
        for g in groups:
            if np.abs(g.scaled - x).max() <= cfg.eps_equal:
                g.co.append(pol)
                break
        else:
            groups.append(_Group(policy=pol, raw=ctx.z[_policy_key(pol)], scaled=x, co=[]))

    pts = np.vstack([apex_scaled] + [g.scaled for g in groups])
    local_faces = _local_pareto_faces(ctx, vertex, pts)

    new_faces: list[FaceRecord] = []
    new_vertices: list[VertexRecord] = []
    lid_to_gid = {0: vertex.id}
    for vids, normals, alpha, t_star, dim in local_faces:
        gids = []
        for lid in vids:
            if lid not in lid_to_gid:
                g = groups[lid - 1]
                gid = _find_vertex(ctx, g.scaled)
                if gid is None:
                    gid = _add_vertex(ctx, g.policy, g.raw, list(g.co))
                    new_vertices.append(ctx.vertices[gid])
                else:
                    rec = ctx.vertices[gid]
                    _merge_co_policy(rec, g.policy)
                    for p in g.co:
                        _merge_co_policy(rec, p)
                lid_to_gid[lid] = gid
            gids.append(lid_to_gid[lid])
        key = tuple(sorted(set(gids)))
        if len(key) < len(gids):
            ctx.warn(
                f"vertex {vertex.id}: face {vids} collapsed onto coincident "
                "global vertices; skipped"
            )
            continue
        if key in ctx.face_keys:
            continue
        ctx.face_keys.add(key)
        rec = FaceRecord(vertex_ids=key, dim=dim, normals=normals, alpha=alpha, t_star=t_star)
        ctx.faces.append(rec)
        new_faces.append(rec)
    return new_faces, new_vertices


def consolidate_faces(
    faces: list[FaceRecord], scaled_returns: Sequence[np.ndarray]
) -> list[FaceRecord]:
    """Merge coplanar face pieces and drop faces nested inside larger ones.

    Local hulls only ever see an apex and its one-change neighbors, so a
    Pareto face with many vertices is discovered one corner at a time. Any two
    recorded faces of the same dimension whose combined vertices are still
    coplanar must belong to the same face of the return polytope: a face's
    affine hull meets the polytope in exactly that face, so distinct maximal
    faces can never share an affine hull. Merging is therefore exact, not a
    heuristic. Afterwards, faces whose vertex sets sit strictly inside another
    face (subfaces picked up while descending past failing siblings) are
    dropped, leaving one record per maximal face.

    Args:
        faces: recorded faces, in discovery order.
        scaled_returns: scaled vertex returns indexed by global vertex id.

    Returns:
        Consolidated face records, ordered by first discovery.
    """
    n = len(faces)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_vertex: dict[int, list[int]] = {}
    for i, f in enumerate(faces):
        for v in f.vertex_ids:
            by_vertex.setdefault(v, []).append(i)
    # Pieces of one face always chain through shared vertices, so testing
    # vertex-sharing pairs plus union-find transitivity merges whole faces.
    for shared in by_vertex.values():
        for a_pos in range(len(shared)):
            i = shared[a_pos]
            for j in shared[a_pos + 1 :]:
                ri, rj = find(i), find(j)
                if ri == rj or faces[i].dim != faces[j].dim:
                    continue
                union = sorted(set(faces[i].vertex_ids) | set(faces[j].vertex_ids))
                pts = np.array([scaled_returns[v] for v in union])
                if affine_dimension(pts) == faces[i].dim:
                    parent[max(ri, rj)] = min(ri, rj)

    merged: dict[int, FaceRecord] = {}
    for i, f in enumerate(faces):
        root = find(i)
        if root not in merged:
            merged[root] = f
        else:
            base = merged[root]
            merged[root] = FaceRecord(
                vertex_ids=tuple(sorted(set(base.vertex_ids) | set(f.vertex_ids))),
                dim=base.dim,
                normals=base.normals,
                alpha=base.alpha,
                t_star=base.t_star,
            )
    ordered = [merged[root] for root in sorted(merged)]

    keep: list[FaceRecord] = []
    seen: set[tuple[int, ...]] = set()
    for f in ordered:
        vset = set(f.vertex_ids)
        if f.vertex_ids in seen:
            continue
        if any(vset < set(g.vertex_ids) for g in ordered if g is not f):
            continue
        seen.add(f.vertex_ids)
        keep.append(f)
    return keep


def search(mdp: Mdp, config: SearchConfig | None = None) -> ParetoFront:
    """Compute the full Pareto front (vertices and faces) of an MDP.

    One scalarized planner call seeds the traversal; every further vertex is
    reached through faces of local hulls over one-change neighbor returns, so
    each queue iteration costs at most S * (A - 1) policy evaluations.

    Args:
        mdp: a valid MDP (checked; raises InvalidMdpError otherwise).
        config: optional SearchConfig.

    Returns:
        ParetoFront with vertex records, face records and run statistics.

    Raises:
        InvalidMdpError: when validation fails.
        SearchAbortError: when a supposed vertex is exposed as dominated or
            interior; the message names the offending policies.
    """
    config = config or SearchConfig()
    violations = validate_mdp(mdp)
    if violations:
        raise InvalidMdpError(violations)
    t0 = time.perf_counter()
    ctx = make_context(mdp, config)
    rng = np.random.default_rng(config.seed)
    # Strictly positive weights with small random tilts; ties in objective
    # space are broken generically while every objective keeps real weight.
    w0 = 1.0 + rng.uniform(1e-6, 1e-2, mdp.num_objectives)
    if config.initial_policy is not None:
        pol0 = np.asarray(config.initial_policy, dtype=np.int64)
    else:
        pol0 = solve_scalarized(mdp, w0)
        ctx.stats.planner_calls += 1
    t1 = time.perf_counter()
    ctx.stats.wall_time["planner"] = t1 - t0
    j0 = long_term_return(mdp, pol0)
    ctx.z[_policy_key(pol0)] = j0
    ctx.stats.policies_evaluated += 1
    _add_vertex(ctx, pol0, j0, [])
    while ctx.queue:
        vid = ctx.queue.popleft()
        ctx.stats.iterations += 1
        explore_vertex(ctx, ctx.vertices[vid])
    faces = consolidate_faces(ctx.faces, ctx.scaled)
    t2 = time.perf_counter()
    ctx.stats.wall_time["explore"] = t2 - t1
    ctx.stats.wall_time["total"] = t2 - t0
    return ParetoFront(
        vertices=ctx.vertices, faces=faces, stats=ctx.stats, return_scale=ctx.scale
    )


def policies_on_face(
    mdp: Mdp, front: ParetoFront, face_id: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Mix the vertex policies of a face and evaluate the blend.

    Args:
        mdp: the MDP the front was computed on.
        front: a ParetoFront produced by `search` or the brute-force oracle.
        face_id: index into front.faces.
        weights: barycentric weights over the face's vertices.

    Returns:
        The stochastic policy (S, A) and its long-term return (D,).
    """
    if not (0 <= face_id < len(front.faces)):
        raise ValueError(f"face_id {face_id} out of range (front has {len(front.faces)} faces)")
    face = front.faces[face_id]
    pols = [front.vertices[vid].policy for vid in face.vertex_ids]
    mixed = mix_policies(pols, weights, mdp.num_actions)
    return mixed, long_term_return(mdp, mixed)
