"""Objective-space geometry: dominance, pruning, convex hulls and the face LP."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
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
    """Convex hull of a point set with deduplicated facet hyperplanes."""

    points: np.ndarray
    facets: tuple[Facet, ...]
    vertex_ids: tuple[int, ...]
    ambient_dim: int


@dataclass(frozen=True)
class LpCertificate:
    """Optimal solution of the positivity LP over a set of facet normals."""

    alpha: np.ndarray
    t_star: float


def dominance(u: np.ndarray, v: np.ndarray, eps: float = 0.0) -> Dominance:
    """Compare two points under Pareto dominance with slack eps.

    Points within eps per coordinate are Equal; otherwise u dominates v when
    it is at least as good everywhere (up to eps) and better than eps
    somewhere.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"points have different shapes: {u.shape} vs {v.shape}")
    diff = u - v
    if np.abs(diff).max() <= eps:
        return Dominance.EQUAL
    if diff.min() >= -eps and diff.max() > eps:
        return Dominance.DOMINATES
    if diff.max() <= eps and diff.min() < -eps:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def pprune(points: np.ndarray, eps: float = 0.0) -> list[int]:
    """Return the indices of the non-dominated points, ascending.

    Sweep procedure: pick the first live point as candidate, upgrade the
    candidate whenever a live point dominates it, then retire the candidate
    together with everything it dominates and repeat. Points that are equal
    to a kept point are not dominated by it, so duplicates all survive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    n = pts.shape[0]
    alive = np.ones(n, dtype=bool)
    kept: list[int] = []
    while alive.any():
        cand = int(np.flatnonzero(alive)[0])
        while True:
            ge = (pts >= pts[cand] - eps).all(axis=1)
            gt = (pts > pts[cand] + eps).any(axis=1)
            dominators = np.flatnonzero(alive & ge & gt)
            if dominators.size == 0:
                break
            cand = int(dominators[0])
        le = (pts <= pts[cand] + eps).all(axis=1)
        lt = (pts < pts[cand] - eps).any(axis=1)
        alive[le & lt] = False
        alive[cand] = False
        kept.append(cand)
    return sorted(kept)


def affine_dimension(points: np.ndarray, tol: float = 1e-9) -> int:
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

    Facet hyperplanes reported by the underlying solver are deduplicated so
    each geometric facet appears once even when it was triangulated, and all
    normals are oriented outward (checked against the centroid, with the apex
    breaking ties when the centroid lies on the plane).

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
    centroid = pts.mean(axis=0)
    hull_vertices = set(int(v) for v in hull.vertices)

    planes: list[tuple[np.ndarray, float]] = []
    for eq in hull.equations:
        w = eq[:-1].astype(float)
        c = -float(eq[-1])
        norm = float(np.linalg.norm(w))
        w = w / norm
        c = c / norm
        dup = False
        for w2, c2 in planes:
            if np.abs(w - w2).max() <= 1e-9 and abs(c - c2) <= 1e-9 * scale:
                dup = True
                break
        if not dup:
            planes.append((w, c))

    facets = []
    for w, c in planes:
        margin = c - pts @ w
        if margin[list(hull_vertices)].min() < -1e-7 * scale:
            # Should not happen for solver-reported planes; guards orientation.
            w, c = -w, -c
            margin = -margin
        side = float(w @ centroid - c)
        if side > eps_geom * scale:
            w, c = -w, -c
        elif abs(side) <= eps_geom * scale and apex_id is not None:
            if float(w @ pts[apex_id] - c) > eps_geom * scale:
                w, c = -w, -c
        on = np.flatnonzero(np.abs(pts @ w - c) <= eps_geom * scale)
        vids = tuple(sorted(int(i) for i in on if int(i) in hull_vertices))
        facets.append(Facet(normal=w, offset=float(c), vertex_ids=vids))

    return LocalHull(
        points=pts,
        facets=tuple(facets),
        vertex_ids=tuple(sorted(hull_vertices)),
        ambient_dim=dim,
    )


def incident_facets(hull: LocalHull, point_id: int) -> list[int]:
    """Indices of the hull facets containing a given hull vertex."""
    if point_id not in hull.vertex_ids:
        raise ApexNotVertexError(f"point {point_id} is not a vertex of the hull")
    return [i for i, f in enumerate(hull.facets) if point_id in f.vertex_ids]


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
        sub_dim = affine_dimension(hull.points[list(vids)])
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


def pareto_lp(normals: Sequence[np.ndarray]) -> LpCertificate:
    """Maximize the smallest coordinate of a convex combination of normals.

    Solves max_t { t : sum_i alpha_i W[i, j] >= t for all j, alpha in the
    simplex }. The face whose defining facet normals are W is on the Pareto
    front exactly when the optimum is positive.

    Returns:
        Certificate with the optimal simplex weights and objective value; the
        weights are clipped to the simplex and t_star recomputed from them, so
        the certificate is always exactly feasible.
    """
    W = _normal_matrix(normals)
    n, d = W.shape
    if n == 1:
        return LpCertificate(alpha=np.ones(1), t_star=float(W[0].min()))
    # Variables x = (alpha_1..alpha_n, t); maximize t.
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-W.T, np.ones((d, 1))])
    b_ub = np.zeros(d)
    a_eq = np.ones((1, n + 1))
    a_eq[0, -1] = 0.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"positivity LP failed: {res.message}")
    alpha = np.maximum(res.x[:n], 0.0)
    alpha = alpha / alpha.sum()
    t_star = float((alpha @ W).min())
    return LpCertificate(alpha=alpha, t_star=t_star)


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
