"""Pareto front construction by vertex traversal with local-hull face tests."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    AFFINE_RANK_TOL,
    AffineBasis,
    ApexNotVertexError,
    DegenerateHullError,
    Dominance,
    FaceRecord,
    LocalHull,
    affine_basis,
    affine_dimension,
    convex_hull,
    deterministic_jitter,
    dominance,
    group_coincident,
    incident_facets,
    mask_ids,
    pareto_lp,
    passes_sign_screen,
    pprune,
    subfaces_at,
    support_faces,
)
from .mdp import (
    InvalidMdpError,
    Mdp,
    deterministic_returns,
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


@dataclass
class SearchStats:
    """Work counts and timings of one `search` or `brute_force_front` run.

    `lps_solved` and `lps_screened` count the face descents' work:
    `pareto_lp` calls, and faces the pooled LP duals ruled out without one.
    Like `wall_time`, they stay out of the front file.
    """

    iterations: int = 0
    policies_evaluated: int = 0
    planner_calls: int = 0
    lps_solved: int = 0
    lps_screened: int = 0
    warnings: list[str] = field(default_factory=list)
    wall_time: dict[str, float] = field(default_factory=dict)

    def count_face_work(self, hull: LocalHull) -> None:
        """Add the LPs and screened faces of the descents on `hull`."""
        self.lps_solved += len(hull.certificates)
        self.lps_screened += hull.duals.ruled_out


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
    `thread_count` spreads policy evaluation over threads in blocks of 4096
    policies; a vertex's S * (A - 1) neighbors rarely fill one block, so in
    practice search evaluates on one thread. Results never depend on it.
    """

    seed: int = 0
    thread_count: int = 1
    eps_equal: float = 1e-9
    eps_geom: float = 1e-9
    eps_pos: float = 1e-9
    initial_policy: Sequence[int] | None = None

    def __post_init__(self) -> None:
        for name in ("eps_equal", "eps_geom", "eps_pos"):
            check_tolerance(name, getattr(self, name))
        check_thread_count(self.thread_count)
        if self.initial_policy is not None and np.ndim(self.initial_policy) != 1:
            shape = np.shape(self.initial_policy)
            raise ValueError(f"initial_policy must be one action per state, got shape {shape}")


def check_tolerance(name: str, value: float) -> None:
    """Raise a ValueError naming `name` unless value is a finite number >= 0.

    A NaN tolerance makes every comparison false, and a negative one makes
    points differ from themselves, so neither describes a tolerance.
    """
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def check_thread_count(value: int) -> None:
    """Raise a ValueError naming thread_count unless value is an int >= 1."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"thread_count must be an int >= 1, got {value!r}")


def return_scale(mdp: Mdp) -> float:
    """Factor mapping raw returns to a [0, 1]-ish range for comparisons."""
    return (1.0 - mdp.gamma) / max(1.0, float(np.abs(mdp.r).max()))


def _policy_key(policy: np.ndarray) -> tuple[int, ...]:
    return tuple(np.asarray(policy).tolist())


@dataclass(eq=False)
class SearchContext:
    """Mutable state shared across vertex explorations of one search run.

    `scaled` holds the scaled return of vertex i as row i.
    """

    mdp: Mdp
    config: SearchConfig
    scale: float
    scaled: np.ndarray
    z: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    vertices: list[VertexRecord] = field(default_factory=list)
    faces: list[FaceRecord] = field(default_factory=list)
    face_keys: set[tuple[int, ...]] = field(default_factory=set)
    queue: deque[int] = field(default_factory=deque)
    stats: SearchStats = field(default_factory=SearchStats)

    def warn(self, message: str) -> None:
        self.stats.warnings.append(message)


def make_context(mdp: Mdp, config: SearchConfig | None = None) -> SearchContext:
    config = config or SearchConfig()
    return SearchContext(
        mdp=mdp,
        config=config,
        scale=return_scale(mdp),
        scaled=np.empty((0, mdp.num_objectives)),
    )


def _merge_co_policy(record: VertexRecord, policy: np.ndarray, key: tuple[int, ...]) -> None:
    """Record `policy`, whose `_policy_key` is `key`, as achieving `record`'s
    return, unless it is already listed."""
    if key == _policy_key(record.policy):
        return
    if any(key == _policy_key(p) for p in record.co_policies):
        return
    record.co_policies.append(np.asarray(policy, dtype=np.int64))


def _find_vertex(ctx: SearchContext, scaled_point: np.ndarray) -> int | None:
    """The smallest vertex id whose scaled return lies within eps_equal
    (max-norm) of `scaled_point`, or None."""
    near = np.abs(ctx.scaled - scaled_point).max(axis=1) <= ctx.config.eps_equal
    return int(near.argmax()) if near.any() else None


def _add_vertex(
    ctx: SearchContext, policy: np.ndarray, raw: np.ndarray, co: list[np.ndarray]
) -> int:
    vid = len(ctx.vertices)
    ctx.vertices.append(
        VertexRecord(id=vid, policy=np.asarray(policy, dtype=np.int64), co_policies=co, ret=raw)
    )
    ctx.scaled = np.vstack([ctx.scaled, raw * ctx.scale])
    ctx.queue.append(vid)
    return vid


def select_pareto_faces(
    apex_id: int, hull: LocalHull, eps_pos: float = 1e-9
) -> tuple[list[FaceRecord], list[int]]:
    """Find the maximal Pareto faces of the hull that are incident to the apex.

    Starts from the apex's facets and walks down: a face whose positivity LP
    optimum exceeds eps_pos is recorded, anything else is split into subfaces
    one dimension lower until dimension 1. Faces that fail the sign screen,
    or that the dual weights of the hull's failed LPs rule out
    (`LocalHull.duals`), fail without an LP; their certificates would never
    be stored. Each LP's certificate is kept on the hull under its defining
    facets, so another descent on the same hull (the oracle's, from another
    corner) reuses it.

    Faces travel through the descent as vertex bitmasks, and the face
    lattice is read from the facet masks alone (`subfaces_at`): each apex
    facet has dimension `ambient_dim - 1` and each subface its parent's
    dimension minus one, so no point set is measured. The same geometric
    face can be reached along several descent paths; it is queued once,
    and defined by every apex facet that contains it, so the LP input, and
    therefore the verdict, depends on the vertex set alone.

    A dequeued face whose vertex set lies strictly inside a face that already
    passed is dropped: no LP, no record, no descent. This loses nothing. A
    face of a Pareto face is Pareto but never maximal, so `consolidate_faces`
    would drop it anyway (Ziegler, *Lectures on Polytopes*, ch. 2); its
    subfaces lie inside the same passing face, and its vertices already lie
    on one. The facets enter the queue first and each subface is one
    dimension below its parent, so faces leave the queue in order of falling
    dimension and every face that could contain a dequeued face has been
    decided before it.

    Returns:
        One record per passing face, in hull point ids, holding its defining
        facet normals and its certificate's alpha and t_star; and the sorted
        ids of all hull vertices lying on at least one passing face.
    """
    apex_facets = [(fi, hull.facet_masks[fi]) for fi in incident_facets(hull, apex_id)]
    # The dimension of every mask queued so far.
    dims = dict.fromkeys((m for _, m in apex_facets), hull.ambient_dim - 1)
    queue = deque(dims)
    passing: list[FaceRecord] = []
    passed: list[int] = []
    on_front = 0
    while queue:
        mask = queue.popleft()
        dim = dims[mask]
        # Each mask is queued once, so a passed face holding all of this
        # one's vertices holds it strictly.
        if dim < 1 or any(mask & p == mask for p in passed):
            continue
        defining = tuple(fi for fi, m in apex_facets if mask & m == mask)
        normals = hull.normals[list(defining)]
        if passes_sign_screen(normals, eps_pos):
            cert = hull.certificates.get(defining)
            if cert is None and not hull.duals.rules_out(normals, eps_pos):
                cert = hull.certificates[defining] = pareto_lp(normals)
                if cert.t_star <= eps_pos and cert.dual is not None:
                    hull.duals.add(cert.dual)
            if cert is not None and cert.t_star > eps_pos:
                passing.append(
                    FaceRecord(tuple(mask_ids(mask)), dim, cert.normals, cert.alpha, cert.t_star)
                )
                passed.append(mask)
                on_front |= mask
                continue
        if dim > 1:
            for child in subfaces_at(mask, dim, hull, apex_id):
                if child not in dims:
                    dims[child] = dim - 1
                    queue.append(child)
    return passing, mask_ids(on_front)


def _local_pareto_faces(
    ctx: SearchContext, vertex: VertexRecord, pts: np.ndarray
) -> list[FaceRecord]:
    """Pareto faces of the local point cloud (apex first) around one vertex,
    in local point ids."""
    n, D = pts.shape
    if n == 1:
        return []
    if n < D + 1:
        ctx.warn(
            f"vertex {vertex.id}: only {n} local points in {D} objectives; "
            "testing faces directly instead of building a hull"
        )
        return support_faces(pts, 0, ctx.config.eps_pos)
    hull = None
    try:
        hull = convex_hull(pts, eps_geom=ctx.config.eps_geom)
    except DegenerateHullError as exc:
        # A flat set is jittered and tried once more; a set spanning all D
        # dimensions that Qhull refused goes straight to the direct tests.
        if exc.affine_dim < D:
            ctx.warn(
                f"vertex {vertex.id}: local returns span dimension {exc.affine_dim} < {D}; "
                "jitter applied before hull construction"
            )
            with contextlib.suppress(DegenerateHullError):
                hull = convex_hull(deterministic_jitter(pts), eps_geom=ctx.config.eps_geom)
    if hull is None:
        ctx.warn(
            f"vertex {vertex.id}: hull construction degenerate; "
            "testing faces directly instead"
        )
        return support_faces(pts, 0, ctx.config.eps_pos)
    try:
        passing, _ = select_pareto_faces(0, hull, ctx.config.eps_pos)
    except ApexNotVertexError as exc:
        raise SearchAbortError(
            f"vertex {vertex.id} (actions {vertex.policy.tolist()}) lies strictly "
            "inside the hull of its one-change neighbors, so it is not a vertex "
            "of the achievable-return polytope"
        ) from exc
    ctx.stats.count_face_work(hull)
    return passing


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
    keys = [_policy_key(p) for p in nbrs]
    fresh = [i for i, key in enumerate(keys) if key not in ctx.z]
    returns = deterministic_returns(ctx.mdp, [nbrs[i] for i in fresh], cfg.thread_count)
    for i, j in zip(fresh, returns):
        ctx.z[keys[i]] = j
    ctx.stats.policies_evaluated += len(fresh)

    apex_scaled = ctx.scaled[vertex.id]
    x = np.reshape([ctx.z[key] for key in keys], (-1, ctx.mdp.num_objectives)) * ctx.scale
    kept: list[int] = []
    for i, rel in enumerate(dominance(x, apex_scaled, cfg.eps_equal)):
        if rel is Dominance.EQUAL:
            _merge_co_policy(vertex, nbrs[i], keys[i])
        elif rel is Dominance.DOMINATES:
            raise SearchAbortError(
                f"vertex {vertex.id} (actions {vertex.policy.tolist()}) is strictly "
                f"dominated by its neighbor with actions {nbrs[i].tolist()}; "
                "its return is not on the Pareto front"
            )
        elif rel is Dominance.INCOMPARABLE:
            kept.append(i)
    if not kept:
        return [], []

    cand = x[kept]
    nd = pprune(cand)
    # Local point 0 is the apex; point k >= 1 is the first of groups[k - 1],
    # the neighbor indices of the kept neighbors with coincident returns.
    groups = [[kept[nd[i]] for i in g] for g in group_coincident(cand[nd], cfg.eps_equal)]
    pts = np.vstack([apex_scaled, x[[g[0] for g in groups]]])
    local_faces = _local_pareto_faces(ctx, vertex, pts)

    new_faces: list[FaceRecord] = []
    new_vertices: list[VertexRecord] = []
    lid_to_gid = {0: vertex.id}
    for local in local_faces:
        gids = []
        for lid in local.vertex_ids:
            if lid not in lid_to_gid:
                members = groups[lid - 1]
                gid = _find_vertex(ctx, pts[lid])
                if gid is None:
                    first = members[0]
                    gid = _add_vertex(
                        ctx, nbrs[first], ctx.z[keys[first]], [nbrs[i] for i in members[1:]]
                    )
                    new_vertices.append(ctx.vertices[gid])
                else:
                    for i in members:
                        _merge_co_policy(ctx.vertices[gid], nbrs[i], keys[i])
                lid_to_gid[lid] = gid
            gids.append(lid_to_gid[lid])
        key = tuple(sorted(set(gids)))
        if len(key) < len(gids):
            ctx.warn(
                f"vertex {vertex.id}: face {local.vertex_ids} collapsed onto coincident "
                "global vertices; skipped"
            )
            continue
        if key in ctx.face_keys:
            continue
        ctx.face_keys.add(key)
        rec = dataclasses.replace(local, vertex_ids=key)
        ctx.faces.append(rec)
        new_faces.append(rec)
    return new_faces, new_vertices


def _coplanar_cut(basis: AffineBasis, sizes: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The cut above which a face lies clearly off `basis`'s face, for
    partners with `sizes` vertices whose union with it lies within `reach`
    of its first vertex; see `consolidate_faces` for why the cut is safe."""
    if basis.sv_k <= 0.0:
        return np.full(len(sizes), np.inf)
    eps = 2.0 * AFFINE_RANK_TOL
    union_rows = basis.count + sizes - 2
    tilt = np.sqrt(basis.count - 1) * reach / basis.sv_k
    return 4.0 * eps * np.sqrt(union_rows) * reach * (1.0 + tilt)


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
    dropped, leaving one record per maximal face. A by-vertex index finds the
    faces that hold all of a face's vertices.

    Each vertex-sharing pair of faces of one dimension k is tested once, and
    not at all once the two are joined through other pairs. The union's
    `affine_dimension` decides the pair, unless a screen settles it first:
    with the `affine_basis` of the pair's first face a (one SVD per face),
    the pair is apart when some vertex of the second face lies farther than
    a cut tau from a's flat. The cut never rejects a pair that the union
    would merge. Let M be the union's difference matrix, eps the relative
    cut of `affine_dimension`, m the rows of M, n_a and s_k a's vertex count
    and k-th singular value, and R the largest distance of a union vertex
    from a's first vertex, so that 2R bounds the union's diameter.
    - A merge needs sigma_{k+1}(M) <= eps sigma_1(M). Each row of M is then
      within sigma_{k+1}(M) of the span of M's top k right singular vectors,
      so every union vertex is within delta = eps sigma_1(M) <= 2 eps
      sqrt(m) R of one k-flat Phi.
    - a's differences are then a matrix of rank k in Phi's direction plus an
      error E with ||E|| <= 2 delta sqrt(n_a - 1). By Wedin's sin-theta
      theorem a's basis is tilted from Phi by at most ||E|| / s_k.
    - So every union vertex p is within 2 delta + ||E|| |p - a_0| / s_k
      <= 2 delta (1 + sqrt(n_a - 1) R / s_k) of a's flat.
    tau is that bound with eps doubled. The doubling absorbs the rounding of
    the two SVDs and of the distances, which is of relative order 1e-16,
    while the cut only falls below R where s_k exceeds about eps R.

    Args:
        faces: recorded faces, in discovery order.
        scaled_returns: scaled vertex returns indexed by global vertex id.

    Returns:
        Consolidated face records, ordered by first discovery.
    """
    n = len(faces)
    if n == 0:
        return []
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
    pieces_at = {v: np.array(ids) for v, ids in by_vertex.items()}
    points = np.asarray(scaled_returns, dtype=float)
    dims = np.array([f.dim for f in faces])
    sizes = np.array([len(f.vertex_ids) for f in faces])
    # Vertex ids of each face, padded with an id one past the last vertex,
    # whose distances below are -inf.
    padded = np.full((n, sizes.max()), len(points))
    for i, f in enumerate(faces):
        padded[i, : sizes[i]] = f.vertex_ids
    # Pieces of one face always chain through shared vertices, so testing
    # vertex-sharing pairs plus union-find transitivity merges whole faces.
    for i, f in enumerate(faces):
        near = np.unique(np.concatenate([pieces_at[v] for v in f.vertex_ids]))
        partners = near[(near > i) & (dims[near] == f.dim)]
        if partners.size == 0:
            continue
        basis = affine_basis(points[list(f.vertex_ids)], f.dim)
        off, dist = (np.append(x, -np.inf) for x in basis.distances(points))
        rows = padded[partners]
        reach = np.maximum(dist[rows].max(axis=1), basis.radius)
        cut = _coplanar_cut(basis, sizes[partners], reach)
        for j in partners[off[rows].max(axis=1) <= cut].tolist():
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            union = sorted(set(f.vertex_ids) | set(faces[j].vertex_ids))
            if affine_dimension(points[union]) == f.dim:
                parent[max(ri, rj)] = min(ri, rj)

    merged: dict[int, FaceRecord] = {}
    for i, f in enumerate(faces):
        root = find(i)
        if root not in merged:
            merged[root] = f
        else:
            base = merged[root]
            merged[root] = dataclasses.replace(
                base, vertex_ids=tuple(sorted(set(base.vertex_ids) | set(f.vertex_ids)))
            )
    ordered = [merged[root] for root in sorted(merged)]

    faces_at: dict[int, set[int]] = {}
    for pos, f in enumerate(ordered):
        for v in f.vertex_ids:
            faces_at.setdefault(v, set()).add(pos)
    keep: list[FaceRecord] = []
    seen: set[tuple[int, ...]] = set()
    for f in ordered:
        if f.vertex_ids in seen:
            continue
        around = set.intersection(*(faces_at[v] for v in f.vertex_ids))
        if any(len(ordered[g].vertex_ids) > len(f.vertex_ids) for g in around):
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
        pol0 = np.asarray(config.initial_policy)
    else:
        pol0 = solve_scalarized(mdp, w0)
        ctx.stats.planner_calls += 1
    t1 = time.perf_counter()
    ctx.stats.wall_time["planner"] = t1 - t0
    # Unconverted, so that long_term_return checks a given start's actions.
    j0 = long_term_return(mdp, pol0)
    pol0 = pol0.astype(np.int64)
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
