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


# Margin of the dual screen. A face is ruled out when some pooled y gives
# max_i (W y)_i <= eps_pos - _DUAL_SLACK; the margin makes sure that the
# LP, had it been solved, would have failed the face too. Let W hold the
# face's n unit normals (so |W_ij| <= 1) in D objectives and u = 2**-53.
# For a and y' on the simplex, weak duality gives
# min_j (a W)_j <= a W y' <= max_i (W y')_i. The LP's t_star is
# min_j (alpha W)_j in floating point, with alpha scaled to sum 1 in
# floating point; against a = alpha / sum(alpha) it is off by at most n u
# from the products and (n + 1) u from the scaling. The screen's value,
# max_i (W y)_i with y scaled likewise, is off from y' = y / sum(y) by at
# most D u and (D + 1) u. So t_star <= value + (n + D + 1) 2**-52, which is
# below 1e-12 while n + D < 4400 (the rounding of eps_pos - 1e-12 adds at
# most u eps_pos). n is at most the number of facets through one vertex.
_DUAL_SLACK = 1e-12


@dataclass(eq=False)
class DualPool:
    """Weights y on the simplex over the objectives, one from each failed
    positivity LP of a hull, stacked as the rows of `ys`.

    Any y on the simplex bounds the LP over any normals W by weak duality:
    for alpha on the simplex, min_j (alpha W)_j <= alpha W y <= max_i (W y)_i.
    So a face whose normals give max_i (W y)_i <= eps_pos - _DUAL_SLACK for
    some pooled y fails without an LP; see `_DUAL_SLACK` for the margin.
    A failed LP's own dual attains its optimum, and faces met later on the
    same hull share normals with it. `ruled_out` counts the faces this pool
    has ruled out.
    """

    ys: np.ndarray | None = None
    ruled_out: int = 0

    def add(self, y: np.ndarray) -> None:
        """Pool y, clipped at zero and scaled to sum 1; a y with no positive
        entry is not pooled."""
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        total = y.sum()
        if total > 0.0:
            y = (y / total)[None, :]
            self.ys = y if self.ys is None else np.vstack([self.ys, y])

    def rules_out(self, normals: np.ndarray, eps_pos: float) -> bool:
        """True, and counted, when some pooled y proves that the positivity
        LP over `normals` has optimum at most eps_pos."""
        if self.ys is None:
            return False
        # Written so that a NaN rules nothing out.
        if not (normals @ self.ys.T).max(axis=0).min() <= eps_pos - _DUAL_SLACK:
            return False
        self.ruled_out += 1
        return True


def mask_ids(mask: int) -> list[int]:
    """The ids of the set bits of a vertex bitmask, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


@dataclass(frozen=True)
class LocalHull:
    """Convex hull of a point set with deduplicated facet hyperplanes.

    Facet k is the plane {x : normals[k] @ x = offsets[k]}, with an outward
    unit normal, and the vertex bitmask `facet_masks[k]`, bit i standing for
    point i; all three are built once by `convex_hull`. The face descent
    handles vertex sets as such bitmasks, so intersections, containment and
    the defining-facet lookup are integer operations and a face's normals
    are one row selection.

    `certificates` holds the positivity LP's certificate for each tuple of
    defining facets tested on this hull: the oracle descends from every hull
    vertex and meets each face from each of its corners, with the same LP
    input every time. `incident` memoizes `incident_facets` per hull
    vertex: one descent asks for its apex's facets at every subface step.
    `duals` pools the dual weights of this hull's failed LPs, which rule
    out later faces without an LP (see `DualPool`).
    """

    points: np.ndarray
    vertex_ids: tuple[int, ...]
    ambient_dim: int
    facet_masks: tuple[int, ...]
    normals: np.ndarray
    offsets: np.ndarray
    certificates: dict[tuple[int, ...], LpCertificate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    incident: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    duals: DualPool = field(default_factory=DualPool, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LpCertificate:
    """Optimal solution of the positivity LP over a set of facet normals.

    `normals` are the LP's input rows, `alpha` the optimal convex weights over
    them and `t_star` the smallest coordinate of `alpha @ normals`. `dual`
    holds the LP's optimal weights y over the objectives, minus HiGHS's
    duals of the rows `t <= (alpha @ normals)_j`: they lie on the simplex
    and max_i (normals @ y)_i is the optimum, both to solver tolerance.
    It is None where no LP was solved.
    """

    normals: np.ndarray
    alpha: np.ndarray
    t_star: float
    dual: np.ndarray | None = None


@dataclass(eq=False)
class FaceRecord:
    """One Pareto face with the certificate that admitted it.

    `normals` holds the defining facet normals from the hull where the face
    was first discovered, `alpha` the certificate weights over those normals
    and `t_star` the certified LP optimum. A face found by direct testing
    (`support_faces`) holds its one supporting normal, with weight 1.
    """

    vertex_ids: tuple[int, ...]
    dim: int
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


# Rows per block of the pairwise masks in `pprune`, `group_coincident` and
# `convex_hull`'s plane dedupe; `dominated_by` takes _BLOCK_ROWS**2 cells
# per block instead, as many rows as fit against its cloud. On 15 625 and
# 65 536 returns, pprune ran about equally fast with 256 to 1024, while 64,
# 128 and 2048 were slower.
_BLOCK_ROWS = 256


def pprune(points: np.ndarray, margin: float = 0.0) -> list[int]:
    """Return the indices of the points that no point dominates past
    `margin`, ascending.

    A point y dominates x past margin when y >= x + margin in every
    objective and y > x + margin in some; with margin 0 (the default) this
    is Pareto dominance and the result is the non-dominated set. A point
    dropped with margin m > 0 is beaten by at least m in every objective, so
    it stays dominated when every point moves by less than m / 2.

    Dominance past margin is transitive, also after rounding x + margin:
    as m >= 0, y <= fl(y + m), so fl(x + m) <= y and fl(y + m) <= z give
    fl(x + m) <= z, strictly wherever either step is strict. It is also
    irreflexive, so on a finite set every dominated point has a dominator
    that no point dominates. NaN compares false and takes part in no
    dominance, so a row holding one is always kept.

    Pre-pass: with more than `_BLOCK_ROWS` points, the rows that maximize
    the coordinate sum or some coordinate are taken as anchors, and every
    row an anchor dominates is dropped. This is exact whichever rows the
    anchors are: a dropped row is dominated, and an undominated row is
    dominated by no anchor, so it survives, and every surviving dominated
    row keeps its undominated dominator among the survivors. On the 65 536
    policy-tree rows of `gen_random_mdp(0, 8, 4, 3)`, 2 648 survive.

    Sort-and-block sweep (Kung, Luccio and Preparata's maxima sweep) over
    the survivors: rows are visited in descending lexicographic order, so a
    dominator always comes before every row it dominates. Each block of
    rows first loses the rows dominated by the rows kept so far, then the
    rows dominated within the block. By transitivity every dominated row is
    dominated by a kept row, so the result is exact. Points that are equal
    to a kept point are not dominated by it, so duplicates all survive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
    if len(pts) > _BLOCK_ROWS:
        with np.errstate(invalid="ignore"):  # inf - inf sums to NaN
            top = pts.sum(axis=1).argmax()
        anchors = pts[np.unique([top, *pts.argmax(axis=0)])]
        rows = np.flatnonzero(~dominated_by(pts, anchors, margin, -margin))
    else:
        rows = np.arange(len(pts))
    order = rows[np.lexsort(-pts[rows].T[::-1])]
    kept = order[:0]
    for start in range(0, len(order), _BLOCK_ROWS):
        block = order[start : start + _BLOCK_ROWS]
        if kept.size:
            block = block[~dominated_by(pts[block], pts[kept], margin, -margin)]
        block = block[~dominated_by(pts[block], pts[block], margin, -margin)]
        kept = np.concatenate([kept, block])
    return np.sort(kept).tolist()


def dominated_by(
    points: np.ndarray, cloud: np.ndarray, tol: float = 0.0, slack: float = 0.0
) -> np.ndarray:
    """For each row x of points, whether some row c of cloud dominates it:
    c >= x - slack in every objective and c > x + tol in some objective.

    With tol and slack 0 this is strict Pareto dominance. The (rows, cloud)
    masks are built one coordinate at a time per block of rows, with as many
    rows per block as keep a mask within _BLOCK_ROWS**2 cells (at least
    one), the size of `pprune`'s in-block mask: a scan against a few rows
    takes a few blocks, and memory stays bounded however large the cloud.
    The result does not depend on the blocking.
    """
    pts = np.asarray(points, dtype=float)
    cands = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or cands.ndim != 2 or pts.shape[1] != cands.shape[1]:
        raise ValueError(f"point arrays have different shapes: {pts.shape} vs {cands.shape}")
    out = np.zeros(len(pts), dtype=bool)
    step = max(1, _BLOCK_ROWS * _BLOCK_ROWS // max(1, len(cands)))
    for start in range(0, len(pts), step):
        rows = pts[start : start + step]
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


def convex_hull(points: np.ndarray, eps_geom: float = 1e-9) -> LocalHull:
    """Build the convex hull of a full-dimensional point set.

    Qhull triangulates non-simplicial facets, so it reports one plane per
    triangle. Each plane is normalized with its own `np.linalg.norm` call,
    and a closeness mask, built for `_BLOCK_ROWS` planes against all F at a
    time, marks the pairs of planes whose unit normals agree to eps_geom per
    coordinate and whose offsets agree to eps_geom times the points' scale,
    the tolerance of the incidence test. Planes are kept greedily in Qhull's
    order, each unless it is close to a plane kept before it, so each
    geometric facet appears once.
    Qhull reports every plane with its outward normal, the hull lying on the
    side n @ x + b <= 0 (Barber, Dobkin and Huhdanpaa, *The Quickhull
    algorithm for convex hulls*, ACM TOMS 22, 1996), so the normalized
    equations are the normals and offsets as given; nothing is reoriented.

    Args:
        points: (n, D) array with n >= D + 1 spanning all D dimensions.
        eps_geom: tolerance for plane dedupe and vertex-on-facet incidence.

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

    tol = eps_geom * max(1.0, float(np.abs(pts).max()))
    is_vertex = np.zeros(n, dtype=bool)
    is_vertex[hull.vertices] = True

    eqs = hull.equations
    # What `np.linalg.norm(row)` computes, without its per-call dispatch.
    norms = np.sqrt([row.dot(row) for row in eqs[:, :-1]])
    normals = eqs[:, :-1] / norms[:, None]
    offsets = -eqs[:, -1] / norms
    kept: list[int] = []
    taken = np.zeros(len(eqs), dtype=bool)
    for start in range(0, len(eqs), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        close = np.abs(offsets[rows, None] - offsets) <= tol
        for col in normals.T:
            close &= np.abs(col[rows, None] - col) <= eps_geom
        for k, row in enumerate(close, start):
            if not taken[k]:
                kept.append(k)
                taken |= row

    normals = normals[kept]
    offsets = offsets[kept]
    # Row k of `height` holds every point's height over kept plane k, from
    # one matrix-vector product per plane; a single matrix product would
    # round differently.
    height = np.stack([pts @ w for w in normals]) - offsets[:, None]
    on = (np.abs(height) <= tol) & is_vertex
    # Bit i of a facet's mask is byte i // 8, bit i % 8 of its packed row.
    packed = np.packbits(on, axis=1, bitorder="little")
    return LocalHull(
        points=pts,
        vertex_ids=tuple(np.flatnonzero(is_vertex).tolist()),
        ambient_dim=dim,
        facet_masks=tuple(int.from_bytes(row.tobytes(), "little") for row in packed),
        normals=normals,
        offsets=offsets,
    )


def incident_facets(hull: LocalHull, point_id: int) -> tuple[int, ...]:
    """Indices of the hull facets containing a given hull vertex, ascending.

    The facet masks are scanned once per hull and vertex; later calls return
    the tuple memoized on the hull.
    """
    found = hull.incident.get(point_id)
    if found is None:
        if point_id not in hull.vertex_ids:
            raise ApexNotVertexError(f"point {point_id} is not a vertex of the hull")
        found = hull.incident[point_id] = tuple(
            i for i, m in enumerate(hull.facet_masks) if m >> point_id & 1
        )
    return found


def subfaces_at(mask: int, dim: int, hull: LocalHull, apex_id: int) -> list[int]:
    """Vertex masks of the facets through the apex of the face `mask`,
    whose dimension is `dim`, in facet order.

    On a polytope, the facets of a face F are exactly the inclusion-maximal
    proper intersections of F with the hull's facets (Kaibel and Pfetsch,
    *Computing the face lattice of a polytope from its vertex-facet
    incidences*, Comput. Geom. 23, 2002). A facet of F through the apex lies
    on apex-incident facets only, so the maximal sets among F's proper
    intersections with the apex-incident facets are F's facets through the
    apex, each of dimension dim - 1, and each is listed once. No point set
    is measured. Faces of dimension 1 have no usable subfaces, so they
    yield an empty list.
    """
    if not mask >> apex_id & 1:
        raise ValueError(f"apex {apex_id} does not lie on the face")
    if dim < 1:
        raise ValueError(f"face dimension must be >= 1, got {dim}")
    if dim == 1:
        return []
    cands = dict.fromkeys(mask & hull.facet_masks[fi] for fi in incident_facets(hull, apex_id))
    cands.pop(mask, None)
    return [c for c in cands if not any(c != o and c & o == c for o in cands)]


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
) -> tuple[np.ndarray | None, np.ndarray | None, str | None]:
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
        (x, row duals, None), or (None, None, why) where `why` gives HiGHS's
        model status and, for an optimal solution that misses linprog's
        tolerance, that too.
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
        return None, None, f"HiGHS model status {highs.modelStatusToString(status)!r}"
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
        return None, None, f"HiGHS found an optimum off the constraints by more than {tol:.2e}"
    return x, np.array(solution.row_dual), None


def pareto_lp(normals: Sequence[np.ndarray]) -> LpCertificate:
    """Maximize the smallest coordinate of a convex combination of normals.

    Solves max_t { t : sum_i alpha_i W[i, j] >= t for all j, alpha in the
    simplex }. The face whose defining facet normals are W is on the Pareto
    front exactly when the optimum is positive.

    Returns:
        Certificate with the optimal simplex weights and objective value; the
        weights are clipped to the simplex and t_star recomputed from them, so
        the certificate is always exactly feasible. Its `dual` holds the
        LP's dual weights over the objectives, None for a single normal,
        which needs no LP.

    Raises:
        RuntimeError: when HiGHS returns no acceptable optimum; the message
            names the model status and the shape of the normals.
    """
    W = np.asarray(normals, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d array of normals, got shape {W.shape}")
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
    x, row_dual, why = _highs_lp(cost, a_ub, a_eq, np.ones(1), lower, np.full(n + 1, _INF))
    if x is None:
        raise RuntimeError(f"positivity LP over normals of shape {W.shape} failed: {why}")
    alpha = np.maximum(x[:n], 0.0)
    alpha = alpha / alpha.sum()
    t_star = float((alpha @ W).min())
    return LpCertificate(normals=W, alpha=alpha, t_star=t_star, dual=-row_dual[:d])


def passes_sign_screen(normals: np.ndarray, eps_pos: float) -> bool:
    """False when some objective has no normal entry above eps_pos.

    Every convex combination of the normals is then at most eps_pos in that
    objective, so the positivity LP optimum cannot exceed eps_pos and the face
    fails without solving it. True means only that the LP has to decide.
    """
    return bool((normals.max(axis=0) > eps_pos).all())


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
    x, _, _ = _highs_lp(cost, a_ub, a_eq, b_eq, -free, free)
    if x is None:
        return None, float("-inf")
    w = x[:d]
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        return None, float("-inf")
    w = w / norm
    return w, float(w.min())


def support_faces(points: np.ndarray, apex: int, eps_pos: float) -> list[FaceRecord]:
    """Pareto faces through the apex of a point set too flat for a hull.

    Tests subsets containing the apex directly, descending from the full set
    down to segments: a subset passes when some unit normal with every
    coordinate above eps_pos is constant on it and puts every other point
    weakly below it. A passing subset is not split further.

    Returns:
        One record per passing subset, in discovery order, holding the one
        supporting normal with weight 1.
    """
    n = points.shape[0]
    rest = tuple(m for m in range(n) if m != apex)
    queue: deque[tuple[int, ...]] = deque([(apex, *rest)])
    tested: set[tuple[int, ...]] = set()
    out: list[FaceRecord] = []
    while queue:
        vids = queue.popleft()
        if vids in tested:
            continue
        tested.add(vids)
        dim = affine_dimension(points[list(vids)])
        if dim >= 1:
            w, t = _support_lp(points, vids)
            if w is not None and t > eps_pos:
                out.append(FaceRecord(tuple(sorted(vids)), dim, w[None, :], np.ones(1), t))
                continue
        if len(vids) > 2:
            for drop in vids[1:]:
                queue.append(tuple(x for x in vids if x != drop))
    return out
