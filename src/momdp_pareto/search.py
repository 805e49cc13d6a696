"""Pareto front construction by vertex traversal with local-hull face tests."""

from __future__ import annotations

import dataclasses
import functools
import operator
import time
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .geometry import (
    EPS_EQUAL,
    EPS_GEOM,
    EPS_POS,
    ApexNotVertexError,
    DegenerateHullError,
    FaceRecord,
    LocalHull,
    affine_dimension,  # unused; the benchmark's tracer binds it on this module
    close_below,
    convex_hull,
    dominance,  # unused; the benchmark's tracer binds it on this module
    dominance_masks,
    drop_nested_faces,
    exposed_sets,
    group_coincident,
    incident_facets,
    mask_ids,
    pareto_lp,
    pprune,
    sign_masks,
    subfaces_at,
    support_faces,
)
from .mdp import (
    Mdp,
    check_actions,
    check_count,
    deterministic_returns,
    long_term_return,
    mix_policies,
    neighbors_one,
    solve_scalarized,
)


class SearchAbortError(RuntimeError):
    """Raised when a supposed Pareto vertex is not one, or has no local hull."""


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
    `vertex_scans` counts the vertex lookups that no policy key answered,
    each a scan of every vertex return (`_find_vertex`).
    Like `wall_time`, they stay out of the front file.
    """

    iterations: int = 0
    policies_evaluated: int = 0
    planner_calls: int = 0
    lps_solved: int = 0
    lps_screened: int = 0
    vertex_scans: int = 0
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
    """Knobs for `search`; `eps_pos` reads the fixed `EPS_POS` as a class
    attribute.

    `thread_count` spreads policy evaluation over threads in blocks of 4096
    policies; a vertex's S * (A - 1) neighbors rarely fill one block, so in
    practice search evaluates on one thread. Results never depend on it.
    """

    seed: int = 0
    thread_count: int = 1
    eps_pos: ClassVar[float] = EPS_POS

    def __post_init__(self) -> None:
        check_count("seed", self.seed, 0)
        check_count("thread_count", self.thread_count, 1)


def vertex_policy(vertex: VertexRecord, num_states: int, num_actions: int) -> np.ndarray:
    """A vertex's policy as `check_actions` returns it; its ValueError is
    prefixed with the vertex id."""
    try:
        return check_actions(vertex.policy, num_states, num_actions)
    except ValueError as exc:
        raise ValueError(f"vertex {vertex.id}: {exc}") from None


def return_scale(mdp: Mdp) -> float:
    """Factor mapping raw returns to a [0, 1]-ish range for comparisons."""
    return (1.0 - mdp.gamma) / max(1.0, float(np.abs(mdp.r).max()))


def _policy_keys(policies: np.ndarray) -> list[bytes]:
    """The return-cache key of each policy, a row of an (n, S) array or
    one (S,) policy: the bytes of its actions as int64."""
    rows = np.ascontiguousarray(np.atleast_2d(policies), dtype=np.int64)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()


@dataclass(eq=False)
class SearchContext:
    """Mutable state shared across vertex explorations of one search run.

    `scaled` holds the scaled return of vertex i as row i. It is a view of
    the first rows of `scaled_rows`, whose capacity doubles when it is
    full, so adding a vertex copies the earlier rows only at a doubling.
    `z` caches the return of every policy evaluated, by `_policy_keys`.
    `vertex_of` maps each vertex's own policy, by the same key, to its id;
    co-policies are left out (see `explore_vertex`).
    """

    mdp: Mdp
    config: SearchConfig
    scale: float
    scaled_rows: np.ndarray
    scaled: np.ndarray = field(init=False)
    z: dict[bytes, np.ndarray] = field(default_factory=dict)
    vertex_of: dict[bytes, int] = field(default_factory=dict)
    vertices: list[VertexRecord] = field(default_factory=list)
    faces: list[FaceRecord] = field(default_factory=list)
    face_keys: set[tuple[int, ...]] = field(default_factory=set)
    queue: deque[int] = field(default_factory=deque)
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        self.scaled = self.scaled_rows[:0]

    def warn(self, message: str) -> None:
        self.stats.warnings.append(message)


def make_context(mdp: Mdp, config: SearchConfig | None = None) -> SearchContext:
    config = config or SearchConfig()
    return SearchContext(
        mdp=mdp,
        config=config,
        scale=return_scale(mdp),
        scaled_rows=np.empty((16, mdp.num_objectives)),
    )


def _merge_co_policy(record: VertexRecord, policy: np.ndarray, key: bytes) -> None:
    """Record a copy of `policy`, whose `_policy_keys` key is `key`, as
    achieving `record`'s return, unless it is already listed. A stored
    policy is int64, so its bytes are its key."""
    if key == record.policy.tobytes() or any(key == p.tobytes() for p in record.co_policies):
        return
    record.co_policies.append(np.array(policy, dtype=np.int64))


def _find_vertex(ctx: SearchContext, scaled_point: np.ndarray) -> int | None:
    """The smallest vertex id whose scaled return lies within EPS_EQUAL
    (max-norm) of `scaled_point`, or None."""
    near = np.abs(ctx.scaled - scaled_point).max(axis=1) <= EPS_EQUAL
    return int(near.argmax()) if near.any() else None


def _add_vertex(
    ctx: SearchContext, policy: np.ndarray, raw: np.ndarray, co: list[np.ndarray]
) -> int:
    """Admit a vertex with a copy of `policy` and of its return `raw`, so
    that it keeps no larger array alive; index it by its policy's key."""
    vid = len(ctx.vertices)
    record = VertexRecord(
        id=vid, policy=np.array(policy, dtype=np.int64), co_policies=co, ret=np.array(raw)
    )
    ctx.vertices.append(record)
    # A stored policy is int64, so its bytes are its `_policy_keys` key.
    ctx.vertex_of[record.policy.tobytes()] = vid
    if vid == len(ctx.scaled_rows):
        grown = np.empty((2 * vid, ctx.scaled_rows.shape[1]))
        grown[:vid] = ctx.scaled_rows
        ctx.scaled_rows = grown
    ctx.scaled_rows[vid] = raw * ctx.scale
    ctx.scaled = ctx.scaled_rows[: vid + 1]
    ctx.queue.append(vid)
    return vid


def select_pareto_faces(apex_id: int, hull: LocalHull) -> tuple[list[FaceRecord], list[int]]:
    """Find the maximal Pareto faces of the hull that are incident to the apex.

    This is the only code that reads the apex's facets, once per call, and
    it makes every sign decision. Each apex facet gets one integer
    (`sign_masks`), and a face passes the sign screen when its defining
    facets' integers OR to all D bits. Those facets are some of the apex's,
    so when the apex's integers OR to fewer bits the call returns at once.

    Otherwise it walks down from the apex's facets: a face whose positivity
    LP optimum exceeds EPS_POS is recorded, anything else is split into
    subfaces one dimension lower until dimension 1. Faces that fail the sign
    screen, or that the dual weights of the hull's failed LPs rule out
    (`LocalHull.duals`), fail without an LP, and only the LP and the dual
    screen gather a face's normals. Each LP's certificate is kept on the
    hull under its defining facets, so another descent on the same hull
    (the oracle's, from another corner) reuses it.

    Faces travel through the descent as vertex bitmasks, and the face
    lattice is read from the apex's facet masks alone (`subfaces_at`): each
    apex facet has dimension `ambient_dim - 1` and each subface its parent's
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
    incident = incident_facets(hull, apex_id)
    signs_of = sign_masks(hull.normals[list(incident)], EPS_POS)
    every_sign = (1 << hull.ambient_dim) - 1
    if functools.reduce(operator.or_, signs_of, 0) != every_sign:
        return [], []
    apex_masks = [hull.facet_masks[fi] for fi in incident]
    # (facet id, vertex mask, sign mask) of each apex facet.
    apex_facets = list(zip(incident, apex_masks, signs_of))
    # The dimension of every mask queued so far.
    dims = dict.fromkeys(apex_masks, hull.ambient_dim - 1)
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
        defining: tuple[int, ...] = ()
        signs = 0
        for fi, m, bits in apex_facets:
            if mask & m == mask:
                defining += (fi,)
                signs |= bits
        if signs == every_sign:
            cert = hull.certificates.get(defining)
            if cert is None:
                normals = hull.normals[list(defining)]
                if not hull.duals.rules_out(normals, EPS_POS):
                    cert = hull.certificates[defining] = pareto_lp(normals)
                    # A single normal that passes the sign screen passes
                    # the LP, so a failed LP has a dual.
                    if cert.t_star <= EPS_POS:
                        hull.duals.add(cert.dual)
            if cert is not None and cert.t_star > EPS_POS:
                passing.append(
                    FaceRecord(tuple(mask_ids(mask)), dim, cert.normals, cert.alpha, cert.t_star)
                )
                passed.append(mask)
                on_front |= mask
                continue
        if dim > 1:
            for child in subfaces_at(mask, dim, apex_masks):
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
        return support_faces(pts, 0, EPS_POS)
    # A flat set is closed off below (`close_below`), which keeps its Pareto
    # faces and ids; no instance has reached a set Qhull refuses even then.
    try:
        hull = convex_hull(pts, apex=0)
    except DegenerateHullError:
        try:
            hull = convex_hull(close_below(pts), apex=0)
        except DegenerateHullError as exc:
            raise SearchAbortError(
                f"vertex {vertex.id} (actions {vertex.policy.tolist()}): Qhull refused "
                f"its {n} local points in {D} objectives even closed off below"
            ) from exc
    try:
        passing, _ = select_pareto_faces(0, hull)
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

    The neighbors are split by `dominance_masks`' two masks against the
    apex, with slack EPS_EQUAL: the ones below it somewhere and above it
    somewhere are incomparable, and go on to `pprune`; the ones below it
    somewhere and above it nowhere are dominated, and dropped. Only the few
    that are below it nowhere are visited one by one, in index order: a
    neighbor also above it nowhere is equal to it, a co-policy of the
    vertex, and one above it somewhere dominates it, which aborts.

    Newly discovered vertices are appended to the context and enqueued exactly
    once; faces are deduplicated globally by their vertex-id sets.

    Returns:
        The face records and vertex records added by this call.
    """
    nbrs = neighbors_one(vertex.policy, ctx.mdp.num_actions)
    keys = _policy_keys(nbrs)
    rets = list(map(ctx.z.get, keys))
    fresh = [i for i, j in enumerate(rets) if j is None]
    for i, j in zip(fresh, deterministic_returns(ctx.mdp, nbrs[fresh], ctx.config.thread_count)):
        ctx.z[keys[i]] = rets[i] = j
    ctx.stats.policies_evaluated += len(fresh)

    apex_scaled = ctx.scaled[vertex.id]
    x = np.reshape(rets, (-1, ctx.mdp.num_objectives)) * ctx.scale
    below, above = dominance_masks(x, apex_scaled, EPS_EQUAL)
    for i in np.flatnonzero(~below).tolist():
        if above[i]:
            raise SearchAbortError(
                f"vertex {vertex.id} (actions {vertex.policy.tolist()}) is strictly "
                f"dominated by its neighbor with actions {nbrs[i].tolist()}; "
                "its return is not on the Pareto front"
            )
        _merge_co_policy(vertex, nbrs[i], keys[i])
    kept = np.flatnonzero(below & above)
    if not len(kept):
        return [], []

    nd = kept[pprune(x[kept])].tolist()
    # Local point 0 is the apex; point k >= 1 is the first of groups[k - 1],
    # the neighbor indices of the kept neighbors with coincident returns.
    groups = [[nd[i] for i in g] for g in group_coincident(x[nd], EPS_EQUAL)]
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
                first = members[0]
                # A vertex's own policy has the vertex's return bit for bit,
                # and vertices lie more than EPS_EQUAL apart, so the scan
                # would name that vertex. A co-policy's return may lie up to
                # EPS_EQUAL from its vertex and as close to another, so
                # co-policies are not keyed.
                gid = ctx.vertex_of.get(keys[first])
                if gid is None:
                    ctx.stats.vertex_scans += 1
                    gid = _find_vertex(ctx, pts[lid])
                if gid is None:
                    # Co-policies are copies, so that no vertex keeps the
                    # whole neighbor array alive.
                    gid = _add_vertex(
                        ctx, nbrs[first], ctx.z[keys[first]], [nbrs[i].copy() for i in members[1:]]
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
        rec = FaceRecord(key, local.dim, local.normals, local.alpha, local.t_star)
        ctx.faces.append(rec)
        new_faces.append(rec)
    return new_faces, new_vertices


def consolidate_faces(
    faces: list[FaceRecord], scaled_returns: Sequence[np.ndarray]
) -> list[FaceRecord]:
    """Merge the pieces of each face and drop faces nested inside larger ones.

    Local hulls only ever see an apex and its one-change neighbors, so a
    Pareto face with many vertices is discovered one corner at a time. Each
    piece's certificate w = alpha @ normals exposes the whole face: w
    combines the normals of the local facets through the piece, and each
    piece is maximal among the passing faces of its hull, so w exposes
    exactly the piece there (a larger face exposed by w would pass with the
    same certificate and have been recorded instead). A face of a vertex's
    one-change hull is a face of the global polytope (the paper's locality
    result), so w supports the polytope and scores exactly that face's
    vertices at its maximum (Ziegler, *Lectures on Polytopes*, §2.1). Each
    piece is therefore keyed by the front vertices that its w scores within
    EPS_GEOM times the returns' scale of its maximum, `convex_hull`'s
    incidence tolerance; the first piece with a key is the face's record,
    holding the key as its vertex ids. The pieces are scored together, as
    the products of their stacked certificates with the returns, in blocks
    of at most `_BLOCK_ROWS**2` cells (`exposed_sets`), so memory stays
    bounded however many pieces and vertices there are. Afterwards, faces
    whose vertex sets sit strictly inside another face (subfaces picked up
    while descending past failing siblings) are dropped by
    `drop_nested_faces`, leaving one record per maximal face.

    Args:
        faces: recorded faces, in discovery order.
        scaled_returns: scaled vertex returns indexed by global vertex id.

    Returns:
        Consolidated face records, ordered by first discovery.

    Raises:
        SearchAbortError: when a piece's certificate scores one of the
            piece's own vertices below its maximum, or scores a NaN.
    """
    if not faces:
        return []
    points = np.asarray(scaled_returns, dtype=float)
    tol = EPS_GEOM * max(1.0, float(np.abs(points).max()))
    certs = np.empty((len(faces), points.shape[1]))
    for i, f in enumerate(faces):
        certs[i] = f.alpha @ f.normals
    keys = exposed_sets(certs, points, tol)
    by_key: dict[tuple[int, ...], FaceRecord] = {}
    for i, (f, key) in enumerate(zip(faces, keys)):
        if not set(f.vertex_ids).issubset(key):
            raise SearchAbortError(
                f"face piece {i} on vertices {f.vertex_ids}: its certificate scores "
                "some of these vertices more than eps_geom below its maximum, so "
                "it does not expose the piece"
            )
        if key not in by_key:
            by_key[key] = f if key == f.vertex_ids else dataclasses.replace(f, vertex_ids=key)
    return drop_nested_faces(list(by_key.values()))


def search(mdp: Mdp, config: SearchConfig | None = None) -> ParetoFront:
    """Compute the full Pareto front (vertices and faces) of an MDP.

    One scalarized planner call seeds the traversal; every further vertex is
    reached through faces of local hulls over one-change neighbor returns, so
    each queue iteration costs at most S * (A - 1) policy evaluations.

    Args:
        mdp: the MDP, valid since its construction.
        config: optional SearchConfig.

    Returns:
        ParetoFront with vertex records, face records and run statistics.

    Raises:
        SearchAbortError: when a supposed vertex is exposed as dominated or
            interior, or has no local hull; the message names its policies.
    """
    config = config or SearchConfig()
    t0 = time.perf_counter()
    ctx = make_context(mdp, config)
    rng = np.random.default_rng(config.seed)
    # Strictly positive weights with small random tilts; ties in objective
    # space are broken generically while every objective keeps real weight.
    w0 = 1.0 + rng.uniform(1e-6, 1e-2, mdp.num_objectives)
    pol0 = solve_scalarized(mdp, w0)
    ctx.stats.planner_calls += 1
    t1 = time.perf_counter()
    ctx.stats.wall_time["planner"] = t1 - t0
    j0 = long_term_return(mdp, pol0)
    ctx.z[_policy_keys(pol0)[0]] = j0
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

    A vertex action that is not an integer in [0, A) raises a ValueError
    naming the vertex, the state and the action (`vertex_policy`), and so
    does a weight that is NaN, negative or off a sum of 1 (`mix_policies`).
    """
    if not (0 <= face_id < len(front.faces)):
        raise ValueError(f"face_id {face_id} out of range (front has {len(front.faces)} faces)")
    pols = [
        vertex_policy(front.vertices[vid], mdp.num_states, mdp.num_actions)
        for vid in front.faces[face_id].vertex_ids
    ]
    mixed = mix_policies(pols, weights, mdp.num_actions)
    return mixed, long_term_return(mdp, mixed)
