"""Objective-space geometry: dominance, pruning, convex hulls and the face tests."""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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


class ApexNotVertexError(RuntimeError):
    """Raised when a point assumed to be a hull vertex is not one."""


# The geometry's fixed tolerances in scaled return space, for search and the
# oracle alike: coincident returns (max-norm), hull plane merge and incidence
# (relative to the points' scale), and the face LP's positivity threshold.
EPS_EQUAL = 1e-9
EPS_GEOM = 1e-9
EPS_POS = 1e-9


# Margin of the dual screen. A face is ruled out when some pooled y gives
# max_i (W y)_i <= eps_pos - _DUAL_SLACK; the margin makes sure that the
# LP, had it been solved, would have failed the face too. Let W hold the
# face's n unit normals (so |W_ij| <= 1) in D objectives and u = 2**-53.
# For a and y' on the simplex, weak duality gives
# min_j (a W)_j <= a W y' <= max_i (W y')_i, whichever a and y' were found
# by. The LP's t_star is min_j (alpha W)_j in floating point, with alpha
# scaled to sum 1 in floating point, the same way whether HiGHS or the
# closed form for two normals gave alpha (`pareto_lp`); against
# a = alpha / sum(alpha) it is off by at most n u from the products and
# (n + 1) u from the scaling. The screen's value, max_i (W y)_i with y
# scaled likewise, is off from y' = y / sum(y) by at most D u and
# (D + 1) u. So t_star <= value + (n + D + 1) 2**-52, which is below 1e-12
# while n + D < 4400 (the rounding of eps_pos - 1e-12 adds at most
# u eps_pos). n is at most the number of facets through one vertex.
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
    point i; all three are built once by `convex_hull`, which for an apex
    builds only the facets through that point. The face descent
    handles vertex sets as such bitmasks, so intersections, containment and
    the defining-facet lookup are integer operations and a face's normals
    are one row selection.

    `certificates` holds the positivity LP's certificate for each tuple of
    defining facets tested on this hull: the oracle descends from many hull
    vertices and meets each face from each of its corners, with the same LP
    input every time. `duals` pools the dual weights of this hull's failed
    LPs, which rule out later faces without an LP (see `DualPool`). A
    descent reads its apex's facets once (`select_pareto_faces`), so
    nothing about an apex is kept on the hull.
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
    duals: DualPool = field(default_factory=DualPool, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LpCertificate:
    """Optimal solution of the positivity LP over a set of facet normals.

    `normals` are the LP's input rows, `alpha` the optimal convex weights over
    them and `t_star` the smallest coordinate of `alpha @ normals`. `dual`
    holds the LP's optimal weights y over the objectives: they lie on the
    simplex and max_i (normals @ y)_i is the optimum. Over two normals y is
    some e_j or a mix of two objectives from the closed form, to rounding;
    over three or more it is minus HiGHS's duals of the rows
    `t <= (alpha @ normals)_j`, to solver tolerance. It is None for a
    single normal, which needs no LP.
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
    (`support_faces`) holds its one supporting normal, with weight 1. Either
    way the certificate w = alpha @ normals exposes the face: among the
    points it was found in, w scores exactly the face's vertices at its
    maximum, which `search.consolidate_faces` relies on.
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
    # A row is below v somewhere past eps (2) and above it (1), or both (3,
    # incomparable), or neither (0, equal: within eps in every coordinate).
    below, above = dominance_masks(np.atleast_2d(u), v, eps)
    codes = 2 * below + above
    rels = [_DOMINANCE_CODES[c] for c in codes.tolist()]
    return rels if u.ndim == 2 else rels[0]


def dominance_masks(points: np.ndarray, v: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of an (n, D) float array, whether it lies below the (D,)
    point v past eps in some objective, and whether it lies above v past eps
    in some objective: `dominance`'s two tests, unchecked. A row with only
    the first is dominated by v, with only the second dominates v, with both
    is incomparable and with neither is equal to v.

    Both tests are written so that a NaN, which min and max pass on, sets
    both masks.
    """
    diff = points - v
    return ~(diff.min(axis=1) >= -eps), ~(diff.max(axis=1) <= eps)


# The row count above which `pprune` runs its anchor pre-pass;
# `dominated_by` builds (cloud, rows) masks of _BLOCK_ROWS**2 cells per
# block, as many rows as fit against its cloud.
_BLOCK_ROWS = 256
# Rows per block of `pprune`'s sweep. A small block keeps rows early, so
# they drop the rows they dominate before those rows are scanned again. On
# the 15 625 tree rows of `gen_random_mdp(0, 6, 5, 3)`, 32 to 96 ran about
# equally fast and 256 about 40 % slower; on check3's 65 536, where the
# pre-pass leaves 2 648, the size barely mattered.
_SWEEP_ROWS = 64


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

    Every step below drops only rows that some row dominates, so every
    undominated row reaches the end, and with it the undominated dominator
    of every dominated row that reaches the end. One last scan of those rows
    against each other then drops exactly the dominated ones. So the result
    does not depend on which rows the steps drop or in which order they
    visit them; the order only sets the speed.

    Pre-pass: with more than `_BLOCK_ROWS` points, the rows that maximize
    the coordinate sum or some coordinate are taken as anchors, and every
    row an anchor dominates is dropped, by (anchors, rows) masks that run
    along the rows (`dominated_by`). On the 65 536 policy-tree rows of
    `gen_random_mdp(0, 8, 4, 3)`, 2 648 survive.

    Sweep, after the presorted skyline filter of Chomicki, Godfrey, Gryz
    and Liang (*Skyline with Presorting*, ICDE 2003): the survivors are
    visited in descending coordinate sum, `_SWEEP_ROWS` at a time. A block
    first loses the rows dominated within it; the rest are kept, and they
    drop every later row they dominate, so a row is scanned only until its
    first dominator has been kept. A dominator's sum is at least that of
    the row it dominates, so the last scan has little left to drop; ties
    and NaN sums are what it is there for. At most `_SWEEP_ROWS` rows are
    one block, whose scan within itself is the whole answer. Points that
    are equal to a kept point are not dominated by it, so duplicates all
    survive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
    rows = np.arange(len(pts))
    if len(pts) > _BLOCK_ROWS:
        # Coordinate sums, here and for the sweep, as one matrix-vector
        # product: a reduction along each short row costs about 15 times as
        # much on 65 536 rows.
        with np.errstate(invalid="ignore"):  # inf - inf sums to NaN
            top = (pts @ np.ones(pts.shape[1])).argmax()
        anchors = pts[np.unique([top, *pts.argmax(axis=0)])]
        rows = np.flatnonzero(~dominated_by(pts, anchors, margin, -margin))
    if len(rows) <= _SWEEP_ROWS:
        block = pts[rows]
        return rows[~dominated_by(block, block, margin, -margin)].tolist()
    with np.errstate(invalid="ignore"):
        rest = rows[np.argsort(-(pts[rows] @ np.ones(pts.shape[1])), kind="stable")]
    rest_pts = pts[rest]
    kept = []
    while rest.size:
        block, block_pts = rest[:_SWEEP_ROWS], rest_pts[:_SWEEP_ROWS]
        alive = ~dominated_by(block_pts, block_pts, margin, -margin)
        block, block_pts = block[alive], block_pts[alive]
        kept.append(block)
        rest, rest_pts = rest[_SWEEP_ROWS:], rest_pts[_SWEEP_ROWS:]
        alive = ~dominated_by(rest_pts, block_pts, margin, -margin)
        rest, rest_pts = rest[alive], rest_pts[alive]
    kept = np.sort(np.concatenate(kept))
    kept_pts = pts[kept]
    return kept[~dominated_by(kept_pts, kept_pts, margin, -margin)].tolist()


def dominated_by(
    points: np.ndarray, cloud: np.ndarray, tol: float = 0.0, slack: float = 0.0
) -> np.ndarray:
    """For each row x of points, whether some row c of cloud dominates it:
    c >= x - slack in every objective and c > x + tol in some objective.

    With tol and slack 0 this is strict Pareto dominance. The (cloud, rows)
    masks are built one coordinate at a time per block of rows, each
    comparison running along the rows, with as many rows per block as keep
    a mask within _BLOCK_ROWS**2 cells (at least one): `pprune`'s scans
    against one `_SWEEP_ROWS` block take 1 024 rows or more at a time, its
    anchor pass 16 384 against 4 anchors, and memory stays bounded however
    large the cloud. The result does not depend on the blocking.
    """
    pts = np.asarray(points, dtype=float)
    cands = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or cands.ndim != 2 or pts.shape[1] != cands.shape[1]:
        raise ValueError(f"point arrays have different shapes: {pts.shape} vs {cands.shape}")
    out = np.zeros(len(pts), dtype=bool)
    step = max(1, _BLOCK_ROWS * _BLOCK_ROWS // max(1, len(cands)))
    for start in range(0, len(pts), step):
        rows = pts[start : start + step].T
        ge = np.ones((len(cands), rows.shape[1]), dtype=bool)
        gt = np.zeros_like(ge)
        # One contiguous row per coordinate, for comparisons along the rows.
        lows = np.subtract(rows, slack, order="C")
        highs = np.add(rows, tol, order="C")
        for c, lo, hi in zip(cands.T[:, :, None], lows, highs):
            ge &= c >= lo
            gt |= c > hi
        out[start : start + rows.shape[1]] = (ge & gt).any(axis=0)
    return out


def exposed_sets(weights: np.ndarray, points: np.ndarray, tol: float) -> Iterator[tuple[int, ...]]:
    """For each row w of weights in turn, the ids of the points whose score
    `points @ w` lies within tol of the highest, ascending.

    The scores are taken as `weights @ points.T` in blocks of rows, as many
    rows per block as keep it within _BLOCK_ROWS**2 cells (at least one),
    and a block is scored only when its first row is asked for, so memory
    stays bounded however many rows there are. A score in a block differs
    from the matrix-vector product of its row, if at all, by the rounding
    of a D-term dot product. A row whose scores hold a NaN ties no point
    with its highest and gives ().
    """
    step = max(1, _BLOCK_ROWS * _BLOCK_ROWS // max(1, len(points)))
    for start in range(0, len(weights), step):
        scores = weights[start : start + step] @ points.T
        on = scores >= scores.max(axis=1, keepdims=True) - tol
        cols = np.nonzero(on)[1].tolist()
        ends = np.cumsum(on.sum(axis=1)).tolist()
        yield from (tuple(cols[a:b]) for a, b in zip([0, *ends], ends))


def drop_nested_faces(faces: list[FaceRecord]) -> list[FaceRecord]:
    """The faces, of distinct vertex sets, whose vertex set lies strictly
    inside no other face's, in order. A by-vertex index finds the faces
    that hold all of a face's vertices."""
    faces_at: dict[int, set[int]] = {}
    for pos, f in enumerate(faces):
        for v in f.vertex_ids:
            faces_at.setdefault(v, set()).add(pos)
    keep: list[FaceRecord] = []
    for f in faces:
        around = set.intersection(*(faces_at[v] for v in f.vertex_ids))
        if all(len(faces[g].vertex_ids) <= len(f.vertex_ids) for g in around):
            keep.append(f)
    return keep


def group_coincident(points: np.ndarray, eps: float) -> list[list[int]]:
    """Group rows lying within eps (max-norm) of an earlier group's first row.

    Each row joins the first group whose first row is within eps of it, or
    opens a new group. Groups come in order of their first rows, and each
    group lists its rows ascending; the first row represents the group.
    The groups are `_first_close_rows`' with eps in every column.
    """
    pts = np.asarray(points, dtype=float)
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(_first_close_rows(pts, np.full(pts.shape[1], eps))):
        groups.setdefault(f, []).append(i)
    return list(groups.values())


def _first_close_rows(rows: np.ndarray, tols: np.ndarray) -> list[int]:
    """The first row of each row's group, where rows are visited in order
    and a row not yet in a group opens one and takes every unplaced row
    within `tols` of it in every column. An earlier first row close to such
    a row would have taken it already, so this is the first group it can
    join.

    Close rows are within t = tols[0] in column 0, so one stable sort of
    that column and one `searchsorted` give each row the rows after it up
    to its entry + 2 t, and only those are tested. None is missed: for
    entries a <= b, a computed b - a <= t means b - a <= t / (1 - 2**-53)
    < 2 t, and as rounding is monotone and b is a float, fl(a + 2 t) >= b.
    A row with no close partner is a group of its own. The close pairs
    (k, j), k < j, are visited by ascending k, so whether k opened a group
    is settled before its own pairs come up.
    """
    order = np.argsort(rows[:, 0], kind="stable")
    ranked = rows[order, 0]
    ends = np.searchsorted(ranked, ranked + 2 * tols[0], side="right")
    pairs = []
    for p in np.flatnonzero(ends > np.arange(1, len(order) + 1)).tolist():
        i, cands = int(order[p]), order[p + 1 : ends[p]]
        close = (np.abs(rows[cands] - rows[i]) <= tols).all(axis=1)
        pairs += [(min(i, j), max(i, j)) for j in cands[close].tolist()]
    first = list(range(len(order)))
    for k, j in sorted(pairs):
        if first[k] == k and first[j] == j:
            first[j] = k
    return first


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


def close_below(points: np.ndarray) -> np.ndarray:
    """The points followed by D rows m - s e_j, where m is their
    componentwise minimum and s their max-norm spread.

    Each appended row is at most every point and lower by s in objective j,
    so any w > 0 scores it below all of them. So the faces of the closed
    set's hull with a strictly positive normal, the ones the positivity LP
    passes, are the points' Pareto faces under the same ids. The appended
    rows span the plane of coordinate sum 0 and no point lies on it, so the
    closed set spans all D dimensions once two points differ.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    low = pts.min(axis=0)
    spread = float((pts.max(axis=0) - low).max())
    return np.vstack([pts, low - spread * np.eye(pts.shape[1])])


def convex_hull(
    points: np.ndarray, eps_geom: float = EPS_GEOM, apex: int | None = None
) -> LocalHull:
    """Build the convex hull of a full-dimensional point set, or only the
    facets through the point `apex`.

    Qhull triangulates non-simplicial facets, so it reports one plane per
    triangle, and each triangle carries its facet's equation bit for bit.
    Exact copies of an equation are dropped first, keeping first
    occurrences in Qhull's order. Each remaining plane is normalized by the
    norm `np.linalg.norm` gives it, and `_merge_close_planes` keeps each
    plane unless it agrees within the incidence tolerance with a plane kept
    before it, so each geometric facet appears once. Dropping the copies
    first changes nothing: a copy is close to exactly the planes its first
    occurrence is close to, so the greedy pass would drop it either way.
    It spares the pass the copies, which share an offset and so are all
    each other's candidates; on a hull with large merged facets they are
    most of Qhull's planes (23 270 planes, 3 434 distinct, on the oracle's
    hull of `gen_gridworld(6, 2, 3, 5)`).
    Qhull reports every plane with its outward normal, the hull lying on the
    side n @ x + b <= 0 (Barber, Dobkin and Huhdanpaa, *The Quickhull
    algorithm for convex hulls*, ACM TOMS 22, 1996), so the normalized
    equations are the normals and offsets as given; nothing is reoriented.

    The hull's vertices are the points on its simplices, marked from
    `hull.simplices` directly; scipy's `hull.vertices` would sort the same
    ids out of that array by `np.unique` first.

    With an apex, only the kept planes passing within the incidence
    tolerance of it are measured. Its heights come from the matrix-vector
    routine that gives the masks theirs, one row's product at a time, so
    these are exactly the full build's facets whose masks hold the apex, in
    order; none when the apex is not a hull vertex. Search reads no others.

    Args:
        points: (n, D) array with n >= D + 1 spanning all D dimensions.
        eps_geom: tolerance for plane dedupe and vertex-on-facet incidence.
        apex: a point id, to build only the facets through that point.

    Raises:
        DegenerateHullError: when the points span fewer than D dimensions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d point array, got shape {pts.shape}")
    n, dim = pts.shape
    adim = affine_dimension(pts)
    if adim == 0:
        raise DegenerateHullError("all points coincide (affine dimension 0)")
    if adim < dim or n < dim + 1:
        raise DegenerateHullError(f"{n} points span affine dimension {adim} < ambient dimension {dim}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateHullError(f"hull construction failed: {exc}") from exc

    tol = eps_geom * max(1.0, float(np.abs(pts).max()))
    is_vertex = np.zeros(n, dtype=bool)
    is_vertex[hull.simplices] = True

    # Exact copies go first, by a dict keyed by each row's bytes: on a local
    # hull's few planes that is much cheaper than `np.unique`, and a hull
    # without copies keeps its array.
    eqs = hull.equations
    firsts: dict[bytes, int] = {}
    for k, row in enumerate(eqs.view(f"V{eqs.itemsize * eqs.shape[1]}").ravel().tolist()):
        firsts.setdefault(row, k)
    if len(firsts) < len(eqs):
        eqs = eqs[list(firsts.values())]
    # What `np.linalg.norm(row)` computes for each row: numpy multiplies a
    # (1, D) by a (D, 1) matrix with the same dot routine.
    raw = eqs[:, :-1]
    norms = np.sqrt((raw[:, None] @ raw[:, :, None]).ravel())
    normals = raw / norms[:, None]
    offsets = -eqs[:, -1] / norms
    kept = _merge_close_planes(normals, offsets, tol, eps_geom)
    if apex is not None:
        through = is_vertex[apex] & (np.abs(normals @ pts[apex] - offsets) <= tol)
        kept = [k for k in kept if through[k]]
    normals = normals[kept]
    offsets = offsets[kept]
    # Row k of `height` holds every point's height over kept plane k, from
    # one matrix-vector product per plane; a single matrix product would
    # round differently.
    height = np.array([pts @ w for w in normals]).reshape(len(kept), n) - offsets[:, None]
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


def _merge_close_planes(
    normals: np.ndarray, offsets: np.ndarray, tol: float, eps_geom: float
) -> list[int]:
    """Indices of the planes kept greedily in order, each unless a plane
    kept before it has a unit normal within eps_geom per coordinate and an
    offset within tol: the first rows of `_first_close_rows`' groups, with
    the offsets as the sorted column."""
    tols = np.full(normals.shape[1] + 1, eps_geom)
    tols[0] = tol
    first = _first_close_rows(np.column_stack([offsets, normals]), tols)
    return [k for k, f in enumerate(first) if f == k]


def incident_facets(hull: LocalHull, point_id: int) -> tuple[int, ...]:
    """Indices of the hull facets containing a given hull vertex, ascending,
    by one scan of the facet masks; ApexNotVertexError for a non-vertex."""
    if point_id not in hull.vertex_ids:
        raise ApexNotVertexError(f"point {point_id} is not a vertex of the hull")
    return tuple(i for i, m in enumerate(hull.facet_masks) if m >> point_id & 1)


def subfaces_at(mask: int, dim: int, apex_masks: Sequence[int]) -> list[int]:
    """Vertex masks of the facets through the apex of the face `mask`,
    whose dimension is `dim`, in facet order.

    `apex_masks` holds the vertex masks of the apex's facets, in facet
    order, as `select_pareto_faces` reads them once per descent.

    On a polytope, the facets of a face F are exactly the inclusion-maximal
    proper intersections of F with the hull's facets (Kaibel and Pfetsch,
    *Computing the face lattice of a polytope from its vertex-facet
    incidences*, Comput. Geom. 23, 2002). A facet of F through the apex lies
    on apex-incident facets only, so the maximal sets among F's proper
    intersections with the apex-incident facets are F's facets through the
    apex, each of dimension dim - 1, and each is listed once. No point set
    is measured. Faces of dimension 1 have no usable subfaces, so they
    yield an empty list.

    A face with dim + 1 vertices is a simplex, the usual case in general
    position. Every dim-vertex subset of it is a facet of it, and each
    facet F - v through the apex is F's intersection with some apex facet,
    so every smaller intersection lies inside one of those: the maximal
    intersections are exactly the ones with dim vertices, found by one bit
    count each instead of comparing every pair.
    """
    if dim < 1:
        raise ValueError(f"face dimension must be >= 1, got {dim}")
    if dim == 1:
        return []
    cands = dict.fromkeys(mask & m for m in apex_masks)
    if mask.bit_count() == dim + 1:
        return [c for c in cands if c.bit_count() == dim]
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


def _ridge_lp(W: np.ndarray) -> tuple[list[float], list[float]]:
    """The positivity LP over two normals u, v in closed form.

    With weights (a, 1 - a) the LP is max over a in [0, 1] of
    min_j (v_j + a s_j), s = u - v: a concave, piecewise-linear function of
    a whose maximum lies at a = 0, at a = 1 or where a coordinate j with
    s_j >= 0 crosses one k with s_k <= 0, at a = p / (p + q) with
    p = v_k - v_j and q = u_j - u_k, inside (0, 1) when both are positive.
    Its dual, min over y on the simplex of max(u @ y, v @ y), has its
    minimum at some e_j or on the edge between a j with s_j > 0 and a k
    with s_k < 0, at y_j = -s_k / (s_j - s_k) and y_k = s_j / (s_j - s_k),
    where u @ y = v @ y. Each side takes its best candidate, the first on
    ties, in the order listed: a = 0, a = 1, then crossings by ascending
    (j, k); each e_j by ascending j, then edges by ascending (j, k).

    Returns:
        (the weights (a, 1 - a) of u and v, the dual weights y).
    """
    if not np.isfinite(W).all():
        raise ValueError(f"normals of shape {W.shape} have entries that are not finite")
    u, v = W.tolist()
    cols = range(len(u))
    s = [uj - vj for uj, vj in zip(u, v)]
    pairs = [(j, k) for j in cols if s[j] >= 0.0 for k in cols if s[k] <= 0.0]

    best_a, best_t = 0.0, min(v)
    crossings = [
        p / (p + q) for p, q in ((v[k] - v[j], u[j] - u[k]) for j, k in pairs) if p > 0.0 < q
    ]
    for a in [1.0, *crossings]:
        t = min(a * uj + (1.0 - a) * vj for uj, vj in zip(u, v))
        if t > best_t:
            best_a, best_t = a, t

    tops = [max(uj, vj) for uj, vj in zip(u, v)]
    best_m = min(tops)
    y = [0.0] * len(u)
    y[tops.index(best_m)] = 1.0
    for j, k in pairs:
        if s[j] > 0.0 > s[k]:
            yj, yk = -s[k] / (s[j] - s[k]), s[j] / (s[j] - s[k])
            m = max(yj * u[j] + yk * u[k], yj * v[j] + yk * v[k])
            if m < best_m:
                best_m = m
                y = [0.0] * len(u)
                y[j], y[k] = yj, yk
    return [best_a, 1.0 - best_a], y


def pareto_lp(normals: Sequence[np.ndarray]) -> LpCertificate:
    """Maximize the smallest coordinate of a convex combination of normals.

    Solves max_t { t : sum_i alpha_i W[i, j] >= t for all j, alpha in the
    simplex }. The face whose defining facet normals are W is on the Pareto
    front exactly when the optimum is positive. A single normal needs no
    LP, two are solved in closed form (`_ridge_lp`), and three or more by
    HiGHS (`_highs_lp`).

    Returns:
        Certificate with the optimal simplex weights and objective value; the
        weights are clipped to the simplex and t_star recomputed from them, the
        same way on both paths, so the certificate is always exactly
        feasible. Its `dual` holds the LP's dual weights over the
        objectives, None for a single normal.

    Raises:
        ValueError: when the normals are not a nonempty 2-d array, or hold
            an entry that is not finite; the message names their shape.
        RuntimeError: when HiGHS returns no acceptable optimum; the message
            names the model status and the shape of the normals.
    """
    W = np.asarray(normals, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise ValueError(f"need a nonempty 2-d array of normals, got shape {W.shape}")
    n, d = W.shape
    if n == 1:
        return LpCertificate(normals=W, alpha=np.ones(1), t_star=float(W[0].min()))
    if n == 2:
        x, dual = _ridge_lp(W)
    else:
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
        x, dual = x[:n], -row_dual[:d]
    alpha = np.maximum(x, 0.0)
    alpha = alpha / alpha.sum()
    t_star = float((alpha @ W).min())
    return LpCertificate(normals=W, alpha=alpha, t_star=t_star, dual=np.asarray(dual, dtype=float))


def sign_masks(normals: np.ndarray, eps_pos: float) -> list[int]:
    """One integer per row of normals, with bit j set when the row's entry
    j exceeds eps_pos.

    The sign screen: a face whose defining normals' integers OR to fewer
    than all D bits has an objective with no normal entry above eps_pos.
    Every convex combination of them is then at most eps_pos in that
    objective, so the positivity LP optimum cannot exceed eps_pos and the
    face fails without solving it. All D bits set means only that the LP
    has to decide.
    """
    return ((normals > eps_pos) @ (1 << np.arange(normals.shape[1]))).tolist()


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
    weakly below it. A passing subset is not split further, and a subset
    inside one that passed is neither tested nor split, as in
    `select_pareto_faces`: subsets leave the queue by falling size, so each
    passing subset is maximal.

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
        if vids in tested or any(set(vids) <= set(f.vertex_ids) for f in out):
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
