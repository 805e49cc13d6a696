"""Objective-space geometry: dominance, pruning, convex hulls and the face tests."""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs
from scipy.spatial import ConvexHull, QhullError


class Dominance(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


class DegenerateHullError(RuntimeError):
    """Raised when a point set does not span the full ambient dimension."""

    def __init__(self, message: str, affine_dim: int):
        super().__init__(message)
        self.affine_dim = affine_dim


class ApexNotVertexError(RuntimeError):
    """Raised when a point assumed to be a hull vertex is not one."""


@dataclass(frozen=True)
class Facet:
    """One hull facet: outward unit normal, offset, and the vertices on it."""

    normal: np.ndarray
    offset: float
    vertex_ids: tuple[int, ...]


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of a hull, identified by its vertices and defining facets."""

    vertex_ids: tuple[int, ...]
    defining_facets: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class LocalHull:
    """Convex hull of a point set with deduplicated facet hyperplanes.

    `dims` memoizes `dimension`: the face descent meets the same vertex set
    along many paths, and each set needs its SVD once per hull.
    `certificates` holds the positivity LP's certificate for each tuple of
    defining facets tested on this hull: the oracle descends from every hull
    vertex and meets each face from each of its corners, with the same LP
    input every time. `incident` memoizes `incident_facets` per hull
    vertex: one descent asks for its apex's facets at every subface step.
    """

    points: np.ndarray
    facets: tuple[Facet, ...]
    vertex_ids: tuple[int, ...]
    ambient_dim: int
    dims: dict[tuple[int, ...], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    certificates: dict[tuple[int, ...], LpCertificate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    incident: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def dimension(self, vids: tuple[int, ...]) -> int:
        """Affine dimension of the points `vids` (a sorted id tuple)."""
        dim = self.dims.get(vids)
        if dim is None:
            dim = self.dims[vids] = affine_dimension(self.points[list(vids)])
        return dim


@dataclass(frozen=True)
class LpCertificate:
    """Optimal solution of the positivity LP over a set of facet normals.

    `normals` are the LP's input rows, `alpha` the optimal convex weights over
    them and `t_star` the smallest coordinate of `alpha @ normals`.
    """

    normals: np.ndarray
    alpha: np.ndarray
    t_star: float


# `dominance`'s relations by the code its array test gives them.
_DOMINANCE_CODES = (
    Dominance.EQUAL,
    Dominance.DOMINATES,
    Dominance.DOMINATED_BY,
    Dominance.INCOMPARABLE,
)


def dominance(u: np.ndarray, v: np.ndarray, eps: float = 0.0) -> Dominance | list[Dominance]:
    """Compare points under Pareto dominance with slack eps.

    Points within eps per coordinate are Equal; otherwise u dominates v when
    it is at least as good everywhere (up to eps) and better than eps
    somewhere. `u` is one (D,) point, giving one `Dominance`, or an (n, D)
    stack of points, giving one `Dominance` per row, each compared with the
    (D,) point `v`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim not in (1, 2) or v.ndim != 1 or u.shape[-1] != v.shape[0]:
        raise ValueError(f"points have different shapes: {u.shape} vs {v.shape}")
    diff = np.atleast_2d(u - v)
    lo = diff.min(axis=1)
    hi = diff.max(axis=1)
    codes = np.select(
        [np.abs(diff).max(axis=1) <= eps, (lo >= -eps) & (hi > eps), (hi <= eps) & (lo < -eps)],
        [0, 1, 2],
        3,
    )
    rels = [_DOMINANCE_CODES[c] for c in codes.tolist()]
    return rels if u.ndim == 2 else rels[0]


# Rows per block of the pairwise masks in `pprune`, `dominated_by` and
# `group_coincident`. On 15 625 and 65 536 returns, pprune ran about equally
# fast with 256 to 1024, while 64, 128 and 2048 were slower.
_BLOCK_ROWS = 256


def pprune(points: np.ndarray) -> list[int]:
    """Return the indices of the non-dominated points, ascending.

    Sort-and-block sweep (Kung, Luccio and Preparata's maxima sweep): rows are
    visited in descending lexicographic order, so a dominator always comes
    before every row it dominates. Each block of rows first loses the rows
    dominated by the rows kept so far, then the rows dominated within the
    block. Dominance is transitive, so every dominated row is dominated by a
    kept row and the result is exactly the non-dominated set. Points that are
    equal to a kept point are not dominated by it, so duplicates all survive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    order = np.lexsort(-pts.T[::-1])
    kept = order[:0]
    for start in range(0, len(order), _BLOCK_ROWS):
        block = order[start : start + _BLOCK_ROWS]
        if kept.size:
            block = block[~dominated_by(pts[block], pts[kept])]
        block = block[~dominated_by(pts[block], pts[block])]
        kept = np.concatenate([kept, block])
    return np.sort(kept).tolist()


def dominated_by(
    points: np.ndarray, cloud: np.ndarray, tol: float = 0.0, slack: float = 0.0
) -> np.ndarray:
    """For each row x of points, whether some row c of cloud dominates it:
    c >= x - slack in every objective and c > x + tol in some objective.

    With tol and slack 0 this is strict Pareto dominance. The (rows, cloud)
    masks are built one coordinate at a time per block of rows, so their
    memory stays bounded as in `pprune`.
    """
    pts = np.asarray(points, dtype=float)
    cands = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or cands.ndim != 2 or pts.shape[1] != cands.shape[1]:
        raise ValueError(f"point arrays have different shapes: {pts.shape} vs {cands.shape}")
    out = np.zeros(len(pts), dtype=bool)
    for start in range(0, len(pts), _BLOCK_ROWS):
        rows = pts[start : start + _BLOCK_ROWS]
        ge = np.ones((len(rows), len(cands)), dtype=bool)
        gt = np.zeros_like(ge)
        for c, lo, hi in zip(cands.T, (rows - slack).T, (rows + tol).T):
            ge &= c >= lo[:, None]
            gt |= c > hi[:, None]
        out[start : start + len(rows)] = (ge & gt).any(axis=1)
    return out


def group_coincident(points: np.ndarray, eps: float) -> list[list[int]]:
    """Group rows lying within eps (max-norm) of an earlier group's first row.

    Each row joins the first group whose first row is within eps of it, or
    opens a new group. Groups come in order of their first rows, and each
    group lists its rows ascending; the first row represents the group.

    Rows are visited in order, and a row not yet in a group opens one and
    takes every unplaced row close to it: an earlier first row close to such
    a row would have taken it already, so this is the first group it can
    join. The close pairs come from a (rows, n) mask per block of rows, built
    one coordinate at a time; a row close to no other row is a group of its
    own, so only rows with a close partner are visited one by one.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    first = np.arange(n)
    free = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        rows = pts[start : start + _BLOCK_ROWS]
        close = np.ones((len(rows), n), dtype=bool)
        for r, col in zip(rows.T, pts.T):
            close &= np.abs(r[:, None] - col) <= eps
        own = np.arange(len(rows))
        close[own, start + own] = False
        for k in np.flatnonzero(close.any(axis=1)).tolist():
            i = start + k
            if free[i]:
                free[i] = False
                members = np.flatnonzero(close[k] & free)
                free[members] = False
                first[members] = i
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(first.tolist()):
        groups.setdefault(f, []).append(i)
    return list(groups.values())


# Singular values at or below this fraction of the largest count as zero in
# `affine_dimension`.
AFFINE_RANK_TOL = 1e-9


def affine_dimension(points: np.ndarray, tol: float = AFFINE_RANK_TOL) -> int:
    """Dimension of the affine hull of a point set.

    Singular values of the centered difference matrix below tol times the
    largest singular value are treated as zero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    if pts.shape[0] == 1:
        return 0
    diffs = pts[1:] - pts[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


@dataclass(frozen=True)
class AffineBasis:
    """A point set's approximate affine hull of a given dimension k.

    `origin` is the set's first point, `basis` holds as rows the top k right
    singular vectors of the differences to it, `sv_k` is the k-th singular
    value (0.0 when there are fewer), `radius` the largest distance of a
    point from the origin and `count` the number of points.
    """

    origin: np.ndarray
    basis: np.ndarray
    sv_k: float
    radius: float
    count: int

    def distances(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's distance from the flat origin + span(basis), and from
        the origin."""
        diffs = np.asarray(points, dtype=float) - self.origin
        off = diffs - (diffs @ self.basis.T) @ self.basis
        return (
            np.sqrt(np.einsum("ij,ij->i", off, off)),
            np.sqrt(np.einsum("ij,ij->i", diffs, diffs)),
        )


def affine_basis(points: np.ndarray, k: int) -> AffineBasis:
    """The `AffineBasis` of dimension k of a nonempty point set, by one SVD."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    if pts.shape[0] == 1:
        return AffineBasis(pts[0], np.zeros((0, pts.shape[1])), 0.0, 0.0, 1)
    diffs = pts[1:] - pts[0]
    _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    return AffineBasis(
        origin=pts[0],
        basis=vt[:k],
        sv_k=float(sv[k - 1]) if 0 < k <= sv.size else 0.0,
        radius=float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).max())),
        count=pts.shape[0],
    )


def deterministic_jitter(points: np.ndarray, magnitude: float = 1e-7) -> np.ndarray:
    """Perturb each coordinate by at most `magnitude`, hashed from its index.

    The perturbation is a pure function of array position, so repeated runs
    see identical jitter and results stay reproducible.
    """
    pts = np.array(points, dtype=float)
    n, d = pts.shape
    i = np.arange(n, dtype=np.uint64)[:, None]
    j = np.arange(d, dtype=np.uint64)[None, :]
    h = (i * np.uint64(2654435761) + j * np.uint64(40503) + np.uint64(97)) % np.uint64(2**32)
    unit = h.astype(float) / float(2**32)
    return pts + magnitude * (2.0 * unit - 1.0)


def convex_hull(
    points: np.ndarray, apex_id: int | None = None, eps_geom: float = 1e-9
) -> LocalHull:
    """Build the convex hull of a full-dimensional point set.

    Qhull triangulates non-simplicial facets, so it reports one plane per
    triangle. Each plane is normalized with its own `np.linalg.norm` call,
    and one (F, F) mask marks the pairs of planes whose unit normals agree to
    1e-9 per coordinate and whose offsets agree to 1e-9 times the points'
    scale. Planes are then kept greedily in Qhull's order, each unless it is
    close to a plane kept before it, so each geometric facet appears once.
    All normals are oriented outward (checked against the centroid, with the
    apex breaking ties when the centroid lies on the plane).

    Args:
        points: (n, D) array with n >= D + 1 spanning all D dimensions.
        apex_id: optional index used only for orientation tie-breaks.
        eps_geom: tolerance for vertex-on-facet incidence tests.

    Raises:
        DegenerateHullError: when the points span fewer than D dimensions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    n, dim = pts.shape
    adim = affine_dimension(pts)
    if adim == 0:
        raise DegenerateHullError("all points coincide (affine dimension 0)", 0)
    if adim < dim or n < dim + 1:
        raise DegenerateHullError(
            f"{n} points span affine dimension {adim} < ambient dimension {dim}", adim
        )
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateHullError(f"hull construction failed: {exc}", adim) from exc

    scale = max(1.0, float(np.abs(pts).max()))
    tol = eps_geom * scale
    is_vertex = np.zeros(n, dtype=bool)
    is_vertex[hull.vertices] = True

    eqs = hull.equations
    # What `np.linalg.norm(row)` computes, without its per-call dispatch.
    norms = np.sqrt([row.dot(row) for row in eqs[:, :-1]])
    normals = eqs[:, :-1] / norms[:, None]
    offsets = -eqs[:, -1] / norms
    close = np.abs(offsets[:, None] - offsets[None, :]) <= 1e-9 * scale
    for col in normals.T:
        close &= np.abs(col[:, None] - col[None, :]) <= 1e-9
    kept: list[int] = []
    taken = np.zeros(len(eqs), dtype=bool)
    for k in range(len(eqs)):
        if not taken[k]:
            kept.append(k)
            taken |= close[k]

    # Row k of `height` holds every point's height over kept plane k, from
    # one matrix-vector product per plane, and `side` the centroid's, from
    # one dot product per plane; a single matrix product would round
    # differently. Negating w and c negates every height exactly, so the
    # orientation flips only change signs, and the incidence test
    # |pts @ w - c| <= tol does not depend on them.
    w0 = normals[kept]
    c0 = offsets[kept]
    centroid = pts.mean(axis=0)
    height = np.stack([pts @ w for w in w0]) - c0[:, None]
    side = np.array([w @ centroid for w in w0]) - c0
    # Should not happen for solver-reported planes; guards orientation.
    sign = np.where(height[:, is_vertex].max(axis=1) > 1e-7 * scale, -1.0, 1.0)
    side *= sign
    outward = side > tol
    if apex_id is not None:
        # The apex breaks ties where the centroid lies on the plane.
        for k in np.flatnonzero(np.abs(side) <= tol):
            outward[k] = sign[k] * (w0[k] @ pts[apex_id] - c0[k]) > tol
    sign[outward] *= -1.0
    on = (np.abs(height) <= tol) & is_vertex
    ends = np.cumsum(on.sum(axis=1)).tolist()
    on_ids = np.nonzero(on)[1].tolist()
    facets = tuple(
        Facet(normal=w, offset=c, vertex_ids=tuple(on_ids[start:end]))
        for w, c, start, end in zip(
            sign[:, None] * w0, (sign * c0).tolist(), [0, *ends], ends
        )
    )
    return LocalHull(
        points=pts,
        facets=facets,
        vertex_ids=tuple(np.flatnonzero(is_vertex).tolist()),
        ambient_dim=dim,
    )


def incident_facets(hull: LocalHull, point_id: int) -> tuple[int, ...]:
    """Indices of the hull facets containing a given hull vertex, ascending.

    The facets are scanned once per hull and vertex; later calls return the
    tuple memoized on the hull.
    """
    found = hull.incident.get(point_id)
    if found is None:
        if point_id not in hull.vertex_ids:
            raise ApexNotVertexError(f"point {point_id} is not a vertex of the hull")
        found = hull.incident[point_id] = tuple(
            i for i, f in enumerate(hull.facets) if point_id in f.vertex_ids
        )
    return found


def subfaces_at(face: FaceDescriptor, hull: LocalHull, apex_id: int) -> list[FaceDescriptor]:
    """Faces one dimension below `face` that still contain the apex.

    Each candidate is the intersection of the face with one additional
    apex-incident facet; candidates whose affine dimension is not exactly
    face.dim - 1 are discarded and duplicates (by vertex set) are merged.
    Faces of dimension 1 have no usable subfaces, so they yield an empty list.
    """
    if face.dim < 1:
        raise ValueError(f"face dimension must be >= 1, got {face.dim}")
    if apex_id not in face.vertex_ids:
        raise ValueError(f"apex {apex_id} does not lie on the face")
    if face.dim == 1:
        return []
    out: list[FaceDescriptor] = []
    seen: set[tuple[int, ...]] = set()
    face_set = set(face.vertex_ids)
    defining = set(face.defining_facets)
    for fi in incident_facets(hull, apex_id):
        if fi in defining:
            continue
        inter = face_set & set(hull.facets[fi].vertex_ids)
        if apex_id not in inter or len(inter) < 2:
            continue
        vids = tuple(sorted(inter))
        if vids in seen or vids == face.vertex_ids:
            continue
        sub_dim = hull.dimension(vids)
        if sub_dim != face.dim - 1:
            continue
        seen.add(vids)
        out.append(
            FaceDescriptor(
                vertex_ids=vids,
                defining_facets=tuple(sorted(defining | {fi})),
                dim=sub_dim,
            )
        )
    return out


def _normal_matrix(normals: Sequence[np.ndarray]) -> np.ndarray:
    W = np.asarray(normals, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d array of normals, got shape {W.shape}")
    return W


# The options `scipy.optimize.linprog(method="highs")` sets for every LP; all
# others keep HiGHS's defaults. Each solver copies them in `passOptions`.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.highs_debug_level = 0
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.simplex_strategy = 1  # dual simplex
_INF = _highs.kHighsInf
# linprog's feasibility test of an optimal solution: sqrt(tol) * 10 at its
# default tol of 1e-9.
_LP_FEAS_TOL = np.sqrt(1e-9) * 10
# One HiGHS solver per thread. `_solver` builds a new one when
# `_HIGHS_OPTIONS` has been rebound since, so new options take effect.
_SOLVERS = threading.local()


def _solver() -> _highs._Highs:
    """This thread's HiGHS solver, holding `_HIGHS_OPTIONS`, with no model."""
    if getattr(_SOLVERS, "options", None) is not _HIGHS_OPTIONS:
        _SOLVERS.highs = _highs._Highs()
        _SOLVERS.highs.passOptions(_HIGHS_OPTIONS)
        _SOLVERS.options = _HIGHS_OPTIONS
    _SOLVERS.highs.clearModel()
    return _SOLVERS.highs


def _highs_lp(
    cost: np.ndarray,
    a_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray | None, str | None]:
    """Minimize cost @ x subject to a_ub @ x <= 0, a_eq @ x = b_eq and
    lower <= x <= upper, exactly as `scipy.optimize.linprog(method="highs")`.

    HiGHS gets linprog's model and options without linprog's per-call
    parsing: the inequality rows, then the equality rows, in column-wise
    sparse form with only the nonzeros, as `csc_array` stores them. Each
    thread reuses one solver, whose options are set once; `clearModel` drops
    the previous model and solver state before each LP, so no LP starts from
    the previous basis. A solution counts only when HiGHS reports it optimal
    and it meets the bounds, the inequalities and the equalities to within
    linprog's tolerance.

    Returns:
        (x, None), or (None, why) where `why` gives HiGHS's model status and,
        for an optimal solution that misses linprog's tolerance, that too.
    """
    m_ub = a_ub.shape[0]
    a = np.vstack([a_ub, a_eq])
    if not np.isfinite(a).all():
        raise ValueError(f"LP matrix of shape {a.shape} has entries that are not finite")
    m, n = a.shape
    at = a.T
    nz = at != 0
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nz.sum(axis=1), out=start[1:])
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.concatenate([np.full(m_ub, -_INF), b_eq])
    lp.row_upper_ = np.concatenate([np.zeros(m_ub), b_eq])
    matrix = lp.a_matrix_
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.start_ = start
    matrix.index_ = np.nonzero(nz)[1].astype(np.int32)
    matrix.value_ = at[nz]
    highs = _solver()
    status = _highs.HighsModelStatus.kModelError
    if highs.passModel(lp) != _highs.HighsStatus.kError:
        highs.run()
        status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        return None, f"HiGHS model status {highs.modelStatusToString(status)!r}"
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    tol = _LP_FEAS_TOL
    # Written so that a NaN fails each test, as it fails linprog's.
    if not (
        (x >= lower - tol).all()
        and (x <= upper + tol).all()
        and (row[:m_ub] <= tol).all()
        and (np.abs(b_eq - row[m_ub:]) <= tol).all()
    ):
        return None, f"HiGHS found an optimum off the constraints by more than {tol:.2e}"
    return x, None


def pareto_lp(normals: Sequence[np.ndarray]) -> LpCertificate:
    """Maximize the smallest coordinate of a convex combination of normals.

    Solves max_t { t : sum_i alpha_i W[i, j] >= t for all j, alpha in the
    simplex }. The face whose defining facet normals are W is on the Pareto
    front exactly when the optimum is positive.

    Returns:
        Certificate with the optimal simplex weights and objective value; the
        weights are clipped to the simplex and t_star recomputed from them, so
        the certificate is always exactly feasible.

    Raises:
        RuntimeError: when HiGHS returns no acceptable optimum; the message
            names the model status and the shape of the normals.
    """
    W = _normal_matrix(normals)
    n, d = W.shape
    if n == 1:
        return LpCertificate(normals=W, alpha=np.ones(1), t_star=float(W[0].min()))
    # Variables x = (alpha_1..alpha_n, t); maximize t.
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-W.T, np.ones((d, 1))])
    a_eq = np.ones((1, n + 1))
    a_eq[0, -1] = 0.0
    lower = np.zeros(n + 1)
    lower[-1] = -_INF
    x, why = _highs_lp(cost, a_ub, a_eq, np.ones(1), lower, np.full(n + 1, _INF))
    if x is None:
        raise RuntimeError(f"positivity LP over normals of shape {W.shape} failed: {why}")
    alpha = np.maximum(x[:n], 0.0)
    alpha = alpha / alpha.sum()
    t_star = float((alpha @ W).min())
    return LpCertificate(normals=W, alpha=alpha, t_star=t_star)


def passes_sign_screen(normals: np.ndarray, eps_pos: float) -> bool:
    """False when some objective has no normal entry above eps_pos.

    Every convex combination of the normals is then at most eps_pos in that
    objective, so the positivity LP optimum cannot exceed eps_pos and the face
    fails without solving it. True means only that the LP has to decide.
    """
    return bool((normals.max(axis=0) > eps_pos).all())


def is_pareto_face(normals: Sequence[np.ndarray], eps_pos: float = 1e-9) -> bool:
    """True when the positivity LP over the normals has optimum above eps_pos.

    Normals that fail `passes_sign_screen` are rejected without the LP.
    """
    W = _normal_matrix(normals)
    return passes_sign_screen(W, eps_pos) and pareto_lp(W).t_star > eps_pos


def _support_lp(points: np.ndarray, vids: tuple[int, ...]) -> tuple[np.ndarray | None, float]:
    """Best positive-leaning normal supporting the subset `vids` of `points`.

    Maximizes the smallest coordinate of a normal w (normalized to sum 1) that
    is constant on the subset and puts every other point weakly below it.
    Returns (unit normal, min coordinate), or (None, -inf) when no supporting
    normal exists.
    """
    n, d = points.shape
    apex = points[vids[0]]
    others = np.ones(n, dtype=bool)
    others[list(vids)] = False
    below = points[others] - apex
    # Variables x = (w_1..w_d, t); maximize t. The first rows hold every other
    # point weakly below the subset, the last d rows keep t <= w_j.
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((len(below) + d, d + 1))
    a_ub[: len(below), :d] = below
    a_ub[len(below) :, :d] = -np.eye(d)
    a_ub[len(below) :, d] = 1.0
    a_eq = np.zeros((len(vids), d + 1))
    a_eq[:-1, :d] = points[list(vids[1:])] - apex
    a_eq[-1, :d] = 1.0
    b_eq = np.zeros(len(vids))
    b_eq[-1] = 1.0
    free = np.full(d + 1, _INF)
    x, _ = _highs_lp(cost, a_ub, a_eq, b_eq, -free, free)
    if x is None:
        return None, float("-inf")
    w = x[:d]
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        return None, float("-inf")
    w = w / norm
    return w, float(w.min())


def support_faces(
    points: np.ndarray, apex: int, eps_pos: float
) -> list[tuple[FaceDescriptor, LpCertificate]]:
    """Pareto faces through the apex of a point set too flat for a hull.

    Tests subsets containing the apex directly, descending from the full set
    down to segments: a subset passes when some unit normal with every
    coordinate above eps_pos is constant on it and puts every other point
    weakly below it. A passing subset is not split further.

    Returns:
        One (face, certificate) pair per passing subset, in discovery order.
        The face has no defining facets; the certificate holds the one
        supporting normal with weight 1.
    """
    n = points.shape[0]
    rest = tuple(m for m in range(n) if m != apex)
    queue: deque[tuple[int, ...]] = deque([(apex, *rest)])
    tested: set[tuple[int, ...]] = set()
    out: list[tuple[FaceDescriptor, LpCertificate]] = []
    while queue:
        vids = queue.popleft()
        if vids in tested:
            continue
        tested.add(vids)
        dim = affine_dimension(points[list(vids)])
        if dim >= 1:
            w, t = _support_lp(points, vids)
            if w is not None and t > eps_pos:
                face = FaceDescriptor(tuple(sorted(vids)), defining_facets=(), dim=dim)
                cert = LpCertificate(normals=w[None, :], alpha=np.ones(1), t_star=t)
                out.append((face, cert))
                continue
        if len(vids) > 2:
            for drop in vids[1:]:
                queue.append(tuple(x for x in vids if x != drop))
    return out
