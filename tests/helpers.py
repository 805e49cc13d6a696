"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (triple loops,
quadratic filters, exhaustive subset enumeration, simulation) so that
agreement with the package is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib.util
import itertools
import sys
from collections import deque
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from momdp_pareto import Mdp, gen_gridworld, gen_random_mdp
from momdp_pareto.mdp import (
    deterministic_returns,
    enumerate_deterministic,
    long_term_return,
    mix_policies,
)
from momdp_pareto.geometry import (
    FaceRecord,
    affine_dimension,
    mask_ids,
    pareto_lp,
    pprune,
)
from momdp_pareto.oracle import ComparisonReport, FaceCheck, VerifyReport, _face_weights
from momdp_pareto.search import return_scale


def benchmark_instances() -> list:
    """Every instance of the benchmark's workloads, in workload order, from
    `perfbench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [inst for insts in workloads.WORKLOADS.values() for inst in insts]


def degenerate_instances() -> dict:
    """MDP builders by name: duplicated actions, dependent objectives, 2x2
    gridworlds and gamma 0, at D = 3 to 5 and seeds 0 and 1."""
    families = {
        "dupact": lambda seed, D: duplicate_action(gen_random_mdp(seed, 4, 3, D)),
        "depobj": lambda seed, D: dependent_objective(gen_random_mdp(seed, 5, 3, D)),
        "grid": lambda seed, D: gen_gridworld(seed, 2, 2, D),
        "gamma0": lambda seed, D: gen_random_mdp(seed, 4, 3, D, gamma=0.0),
    }
    return {
        f"{family}-D{D}-s{seed}": functools.partial(build, seed, D)
        for family, build in families.items()
        for D in (3, 4, 5)
        for seed in (0, 1)
    }


def one_hot_policy(actions, num_actions: int) -> np.ndarray:
    """Deterministic action vector as a stochastic policy matrix."""
    actions = np.asarray(actions, dtype=np.int64)
    out = np.zeros((actions.shape[0], num_actions))
    out[np.arange(actions.shape[0]), actions] = 1.0
    return out


def hamming_distance(p1, p2) -> int:
    """Number of states where two deterministic policies of one length
    disagree."""
    if len(p1) != len(p2):
        raise ValueError(f"policies have different lengths: {len(p1)} vs {len(p2)}")
    return sum(int(a) != int(b) for a, b in zip(p1, p2))


def einsum_return(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Long-term return of one policy by the one-hot einsum formula: an (S,)
    policy becomes a one-hot (S, A) matrix, P_pi and r_pi are one einsum
    each, and one (S, S) solve gives V. The stacked evaluators, and so
    `long_term_return`, must match it bit for bit."""
    mat = np.asarray(policy, dtype=float)
    if mat.ndim == 1:
        mat = one_hot_policy(policy, mdp.num_actions)
    p_pi = np.einsum("sa,sat->st", mat, mdp.P)
    r_pi = np.einsum("sa,sad->sd", mat, mdp.r)
    return mdp.mu @ np.linalg.solve(np.eye(mdp.num_states) - mdp.gamma * p_pi, r_pi)


def naive_induced(mdp: Mdp, policy_matrix: np.ndarray):
    """Policy-averaged transition matrix and reward, by explicit summation."""
    S, A, _ = mdp.P.shape
    D = mdp.r.shape[2]
    P = np.zeros((S, S))
    r = np.zeros((S, D))
    for s in range(S):
        for a in range(A):
            for t in range(S):
                P[s, t] += policy_matrix[s, a] * mdp.P[s, a, t]
            for d in range(D):
                r[s, d] += policy_matrix[s, a] * mdp.r[s, a, d]
    return P, r


def iterative_eval(
    mdp: Mdp, policy_matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 10**6
) -> np.ndarray:
    """Fixed-policy value function by repeated backup until the update stalls."""
    P, r = naive_induced(mdp, policy_matrix)
    V = np.zeros_like(r)
    for _ in range(max_sweeps):
        nxt = r + mdp.gamma * (P @ V)
        if np.abs(nxt - V).max() <= tol:
            return nxt
        V = nxt
    raise RuntimeError("value iteration did not reach the requested residual")


def mc_return(
    mdp: Mdp,
    policy_matrix: np.ndarray,
    horizon: int = 200,
    n_paths: int = 100_000,
    seed: int = 0,
):
    """Monte-Carlo estimate of the long-term return with its standard error.

    All paths advance in lock-step; sampling uses inverse-CDF draws so the
    whole rollout is a handful of vectorized operations per step.
    """
    rng = np.random.default_rng(seed)
    S, A, D = mdp.r.shape
    cum_mu = np.cumsum(mdp.mu)
    states = np.searchsorted(cum_mu, rng.random(n_paths), side="right")
    states = np.minimum(states, S - 1)
    cum_pi = np.cumsum(policy_matrix, axis=1)
    cum_P = np.cumsum(mdp.P, axis=2)
    totals = np.zeros((n_paths, D))
    discount = 1.0
    for _ in range(horizon):
        u = rng.random(n_paths)
        actions = np.minimum(
            (u[:, None] > cum_pi[states]).sum(axis=1), A - 1
        )
        totals += discount * mdp.r[states, actions]
        u = rng.random(n_paths)
        states = np.minimum(
            (u[:, None] > cum_P[states, actions]).sum(axis=1), S - 1
        )
        discount *= mdp.gamma
    mean = totals.mean(axis=0)
    se = totals.std(axis=0, ddof=1) / np.sqrt(n_paths)
    return mean, se


def strictly_dominates(u: np.ndarray, v: np.ndarray, eps: float = 0.0) -> bool:
    return bool(np.all(u >= v - eps) and np.any(u > v + eps))


class Dominance(enum.Enum):
    """The relation of one point u to one point v, as `loop_dominance`
    names it."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def loop_dominance(u: np.ndarray, v: np.ndarray, eps: float = 0.0) -> Dominance:
    """Pareto dominance of one point u over one point v with slack eps, from
    the differences' smallest, largest and largest absolute entry."""
    diff = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    if np.abs(diff).max() <= eps:
        return Dominance.EQUAL
    if diff.min() >= -eps and diff.max() > eps:
        return Dominance.DOMINATES
    if diff.max() <= eps and diff.min() < -eps:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def loop_group_coincident(points: np.ndarray, eps: float) -> list[list[int]]:
    """`group_coincident` by comparing each row with the first row of every
    group opened so far, in order."""
    groups: list[list[int]] = []
    for i, p in enumerate(points):
        for g in groups:
            if np.abs(p - points[g[0]]).max() <= eps:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def loop_find_vertex(scaled: np.ndarray, point: np.ndarray, eps: float):
    """The first row of `scaled` within eps (max-norm) of `point`, or None,
    by visiting the rows in order."""
    for vid, s in enumerate(scaled):
        if np.abs(s - point).max() <= eps:
            return vid
    return None


def quadratic_pprune(points: np.ndarray, eps: float = 0.0, margin: float = 0.0) -> list[int]:
    """All-pairs non-domination filter, O(n^2). With a margin, a point x is
    dropped when some point dominates x + margin."""
    points = np.asarray(points, dtype=float)
    keep = []
    for i in range(points.shape[0]):
        if not any(
            strictly_dominates(points[j], points[i] + margin, eps)
            for j in range(points.shape[0])
            if j != i
        ):
            keep.append(i)
    return keep


def sweep_pprune(
    points: np.ndarray, margin: float = 0.0, block: int = 256, cells: list | None = None
) -> list[int]:
    """A bare maxima sweep (Kung, Luccio and Preparata), without `pprune`'s
    extreme-row pre-pass: every row in descending lexicographic order, so a
    dominator comes before every row it dominates, `block` rows at a time,
    each block tested against the rows kept so far and then against itself,
    with a (rows, cloud) mask built one coordinate at a time. When `cells`
    is a list, the size of each mask is appended to it."""
    pts = np.asarray(points, dtype=float)

    def dominated(rows: np.ndarray, cloud: np.ndarray) -> np.ndarray:
        if cells is not None:
            cells.append(len(rows) * len(cloud))
        ge = np.ones((len(rows), len(cloud)), dtype=bool)
        gt = np.zeros_like(ge)
        for d in range(pts.shape[1]):
            ge &= cloud[:, d] >= rows[:, d, None] + margin
            gt |= cloud[:, d] > rows[:, d, None] + margin
        return (ge & gt).any(axis=1)

    order = np.lexsort(-pts.T[::-1])
    kept = order[:0]
    for start in range(0, len(order), block):
        rows = order[start : start + block]
        rows = rows[~dominated(pts[rows], pts[kept])]
        rows = rows[~dominated(pts[rows], pts[rows])]
        kept = np.concatenate([kept, rows])
    return np.sort(kept).tolist()


def all_pairs_pprune(points: np.ndarray, chunk: int = 256, cloud=None) -> list[int]:
    """Non-dominated rows by testing every row against every row of `cloud`
    (the points themselves by default), `chunk` rows at a time, one
    coordinate at a time."""
    points = np.asarray(points, dtype=float)
    cloud = points if cloud is None else np.asarray(cloud, dtype=float)
    keep: list[int] = []
    for a in range(0, points.shape[0], chunk):
        rows = points[a : a + chunk]
        ge = np.ones((rows.shape[0], cloud.shape[0]), dtype=bool)
        gt = np.zeros_like(ge)
        for d in range(points.shape[1]):
            ge &= cloud[:, d] >= rows[:, d, None]
            gt |= cloud[:, d] > rows[:, d, None]
        keep.extend(a + int(i) for i in np.flatnonzero(~(ge & gt).any(axis=1)))
    return keep


def loop_compare_fronts(a, b, tol: float = 1e-8) -> ComparisonReport:
    """compare_fronts with its vertex distances from a double loop over every
    pair and the pairs ordered by sorting (distance, i, j) tuples."""
    pa = np.array([v.ret for v in a.vertices]) * a.return_scale
    pb = np.array([v.ret for v in b.vertices]) * b.return_scale
    pairs = []
    for i in range(len(pa)):
        for j in range(len(pb)):
            d = float(np.abs(pa[i] - pb[j]).max())
            if d <= tol:
                pairs.append((d, i, j))
    pairs.sort()
    a_to_b: dict[int, int] = {}
    taken_b: set[int] = set()
    max_dist = 0.0
    for d, i, j in pairs:
        if i in a_to_b or j in taken_b:
            continue
        a_to_b[i] = j
        taken_b.add(j)
        max_dist = max(max_dist, d)
    vertex_match = len(a_to_b) == len(pa) == len(pb)
    unmatched_a = [list(a.vertices[i].ret) for i in range(len(pa)) if i not in a_to_b]
    unmatched_b = [list(b.vertices[j].ret) for j in range(len(pb)) if j not in taken_b]

    faces_b = {tuple(sorted(f.vertex_ids)) for f in b.faces}
    mapped: dict[tuple[int, ...], tuple[int, ...]] = {}
    a_only: list[tuple[int, ...]] = []
    for f in a.faces:
        own = tuple(sorted(f.vertex_ids))
        if all(v in a_to_b for v in f.vertex_ids):
            mapped[tuple(sorted(a_to_b[v] for v in f.vertex_ids))] = own
        else:
            a_only.append(own)
    a_only.extend(mapped[key] for key in sorted(set(mapped) - faces_b))
    b_only = sorted(faces_b - set(mapped))
    return ComparisonReport(
        vertex_match=vertex_match,
        face_match=vertex_match and not a_only and not b_only,
        unmatched_a=unmatched_a,
        unmatched_b=unmatched_b,
        face_diffs={"a_only": a_only, "b_only": b_only},
        max_vertex_distance=max_dist,
        tol=tol,
    )


def supporting_hyperplane_facets(
    points: np.ndarray, tol: float = 1e-9
) -> set[frozenset[int]]:
    """Facet vertex sets by testing the hyperplane of every D-subset.

    A subset's hyperplane is a facet when all points lie on one side; the
    facet's vertex set is every point on the plane, so coplanar subsets of a
    non-simplicial facet collapse to a single entry.
    """
    points = np.asarray(points, dtype=float)
    n, D = points.shape
    scale = max(1.0, np.abs(points).max())
    facets: set[frozenset[int]] = set()
    for subset in itertools.combinations(range(n), D):
        base = points[subset[0]]
        diffs = points[list(subset[1:])] - base
        u, s, vt = np.linalg.svd(diffs, full_matrices=True)
        if s.size and s.min() <= 1e-9 * max(s.max(), 1.0):
            continue
        normal = vt[-1]
        c = float(normal @ base)
        side = points @ normal - c
        if np.all(side <= tol * scale):
            pass
        elif np.all(side >= -tol * scale):
            normal, c, side = -normal, -c, -side
        else:
            continue
        on_plane = frozenset(np.flatnonzero(np.abs(side) <= tol * scale).tolist())
        facets.add(on_plane)
    return facets


def barycentric_grid(k: int, steps: int = 4) -> np.ndarray:
    """All weight vectors over k entries on a 1/steps grid."""
    combos = []
    for c in itertools.combinations_with_replacement(range(k), steps):
        w = np.zeros(k)
        for idx in c:
            w[idx] += 1.0 / steps
        combos.append(w)
    return np.unique(np.round(np.array(combos), 12), axis=0)


def convex_cloud(points: np.ndarray, n_random: int = 2000, seed: int = 0) -> np.ndarray:
    """The input points plus a dense sample of their convex combinations."""
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(points.shape[0]), size=n_random)
    return np.vstack([points, lam @ points])


def dominated_in_cloud(point: np.ndarray, cloud: np.ndarray, eps: float = 1e-9) -> bool:
    """Is the point strictly dominated by any cloud member, with margin eps."""
    ge = np.all(cloud >= point - eps, axis=1)
    gt = np.any(cloud > point + eps, axis=1)
    return bool(np.any(ge & gt))


def segment_residual(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm gap between p and the segment [a, b], measured at the clamped
    least-squares parameter. This sits at or above the true minimum gap, so
    small values certify closeness."""
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return float(np.abs(a + t * d - p).max())


def make_bandit(rewards, gamma: float = 0.0) -> Mdp:
    """Single-state MDP whose A arms pay the given D-vectors."""
    rewards = np.asarray(rewards, dtype=float)
    A = rewards.shape[0]
    return Mdp(
        P=np.ones((1, A, 1)),
        r=rewards[None, :, :],
        gamma=gamma,
        mu=np.array([1.0]),
    )


def duplicate_action(mdp: Mdp, src: int = 1, dst: int = 2) -> Mdp:
    """The MDP with action `dst` made an exact copy of action `src`."""
    P, r = mdp.P.copy(), mdp.r.copy()
    P[:, dst], r[:, dst] = P[:, src], r[:, src]
    return Mdp(P=P, r=r, gamma=mdp.gamma, mu=mdp.mu)


def dependent_objective(mdp: Mdp) -> Mdp:
    """The MDP with its last objective replaced by the mean of the first two."""
    r = mdp.r.copy()
    r[:, :, -1] = r[:, :, :2].mean(axis=2)
    return Mdp(P=mdp.P, r=r, gamma=mdp.gamma, mu=mdp.mu)


def ridge_points() -> np.ndarray:
    """3D cloud whose hull has one non-dominated edge through the apex while
    every 2-face at the apex tilts negative in some objective."""
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0],
            [-5.0, -0.5, -0.5],
            [-0.6, -1.0, -1.0],
        ]
    )


def apex_facet_ids(hull, apex_id: int) -> list[int]:
    """Indices of the hull facets whose masks hold the apex, by testing
    every mask's bit."""
    return [fi for fi, m in enumerate(hull.facet_masks) if m >> apex_id & 1]


def apex_masks(hull, apex_id: int) -> list[int]:
    """The vertex masks of the apex's facets, in facet order, as
    `subfaces_at` takes them."""
    return [hull.facet_masks[fi] for fi in apex_facet_ids(hull, apex_id)]


def svd_subfaces_at(mask: int, hull, apex_id: int) -> list[int]:
    """The faces one dimension below the face `mask` that contain the apex,
    by measuring point sets: each intersection of the face with an
    apex-incident facet that does not hold the whole face is kept when its
    SVD gives dimension one below the face's own SVD, each vertex set once,
    in facet order. A face of dimension 1 or less yields none."""

    def dimension(m):
        return affine_dimension(hull.points[mask_ids(m)])

    dim = dimension(mask)
    out: list[int] = []
    if dim <= 1:
        return out
    for fi in apex_facet_ids(hull, apex_id):
        inter = mask & hull.facet_masks[fi]
        if inter != mask and inter not in out and dimension(inter) == dim - 1:
            out.append(inter)
    return out


def pairwise_subfaces_at(mask: int, dim: int, hull, apex_id: int) -> list[int]:
    """The faces one dimension below the face `mask` that contain the apex,
    as the inclusion-maximal proper intersections of the face with the
    apex-incident facets: every candidate is compared with every other, on
    simplex faces too. Each vertex set once, in facet order; a face of
    dimension 1 yields none."""
    if dim <= 1:
        return []
    cands: list[int] = []
    for fi in apex_facet_ids(hull, apex_id):
        inter = mask & hull.facet_masks[fi]
        if inter != mask and inter not in cands:
            cands.append(inter)
    return [c for c in cands if not any(c != o and c & o == c for o in cands)]


def faces_by_lp_everywhere(apex_id: int, hull, eps_pos: float = 1e-9):
    """The apex's Pareto faces by a descent that solves the positivity LP on
    every face it tests, over the normals of every apex facet holding the
    face, splits failing faces by `svd_subfaces_at` and takes every face's
    dimension from its own SVD.

    Returns the passing faces as records in discovery order and the number
    of faces tested.
    """
    apex_facets = apex_facet_ids(hull, apex_id)
    queue = deque(hull.facet_masks[fi] for fi in apex_facets)
    tested = set()
    passing = []
    while queue:
        mask = queue.popleft()
        dim = affine_dimension(hull.points[mask_ids(mask)])
        if mask in tested or dim < 1:
            continue
        tested.add(mask)
        defining = [fi for fi in apex_facets if mask & hull.facet_masks[fi] == mask]
        cert = pareto_lp(hull.normals[defining])
        if cert.t_star > eps_pos:
            passing.append(
                FaceRecord(tuple(mask_ids(mask)), dim, cert.normals, cert.alpha, cert.t_star)
            )
            continue
        if dim > 1:
            queue.extend(svd_subfaces_at(mask, hull, apex_id))
    return passing, len(tested)


def passes_sign_screen(normals: np.ndarray, eps_pos: float) -> bool:
    """The sign screen by columns: False when some objective has no normal
    entry above eps_pos, the reference for `geometry.sign_masks`."""
    return bool((normals.max(axis=0) > eps_pos).all())


def linprog_pareto_lp(normals: np.ndarray):
    """The positivity LP through `scipy.optimize.linprog(method="highs")`.

    Returns `(alpha, t_star)` as `geometry.pareto_lp` derives them from the
    solution, or None when linprog reports no success.
    """
    W = np.asarray(normals, dtype=float)
    n, d = W.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-W.T, np.ones((d, 1))])
    a_eq = np.ones((1, n + 1))
    a_eq[0, -1] = 0.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(d),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    if not res.success:
        return None
    alpha = np.maximum(res.x[:n], 0.0)
    alpha = alpha / alpha.sum()
    return alpha, float((alpha @ W).min())


def linprog_support_lp(points: np.ndarray, vids: tuple[int, ...]):
    """`geometry._support_lp` through `scipy.optimize.linprog(method="highs")`,
    one constraint row at a time."""
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


def loop_hull_facets(points: np.ndarray, apex_id=None, eps_geom: float = 1e-9):
    """`convex_hull`'s facets as (unit normal, offset, vertex ids) triples,
    with its planes deduplicated one plane at a time: each Qhull plane is
    normalized, compared with every plane kept so far, and kept unless one
    is within eps_geom per normal coordinate and eps_geom times the points'
    scale in offset. Each kept plane is then oriented and its vertices
    listed on its own, with fresh products after every flip."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    scale = max(1.0, float(np.abs(pts).max()))
    planes = []
    for eq in hull.equations:
        w = eq[:-1].astype(float)
        c = -float(eq[-1])
        norm = float(np.linalg.norm(w))
        w = w / norm
        c = c / norm
        if not any(
            np.abs(w - w2).max() <= eps_geom and abs(c - c2) <= eps_geom * scale
            for w2, c2 in planes
        ):
            planes.append((w, c))
    return _oriented_facets(pts, hull, planes, apex_id, eps_geom)


def unblocked_hull_facets(points: np.ndarray, apex_id=None, eps_geom: float = 1e-9):
    """`convex_hull`'s facets with its planes deduplicated by
    `greedy_plane_merge` over all F Qhull planes, exact copies included,
    in Qhull's order; tolerances, orientation, incidence and output as in
    `loop_hull_facets`."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    scale = max(1.0, float(np.abs(pts).max()))
    eqs = hull.equations
    norms = np.array([np.linalg.norm(row) for row in eqs[:, :-1]])
    normals = eqs[:, :-1] / norms[:, None]
    offsets = -eqs[:, -1] / norms
    kept = greedy_plane_merge(normals, offsets, eps_geom * scale, eps_geom)
    planes = [(normals[k], float(offsets[k])) for k in kept]
    return _oriented_facets(pts, hull, planes, apex_id, eps_geom)


def greedy_plane_merge(normals: np.ndarray, offsets: np.ndarray, tol: float, eps_geom: float):
    """The planes kept greedily in order, each unless a plane kept before it
    has a unit normal within eps_geom per coordinate and an offset within
    tol, from one (F, F) closeness mask over all F planes at once."""
    close = np.abs(offsets[:, None] - offsets[None, :]) <= tol
    for col in normals.T:
        close &= np.abs(col[:, None] - col[None, :]) <= eps_geom
    kept = []
    taken = np.zeros(len(offsets), dtype=bool)
    for k in range(len(offsets)):
        if not taken[k]:
            kept.append(k)
            taken |= close[k]
    return kept


def _oriented_facets(pts, hull, planes, apex_id, eps_geom):
    """Orient each (unit normal, offset) plane outward and list the hull
    vertices on it, one plane at a time, as (normal, offset, vertex ids)."""
    scale = max(1.0, float(np.abs(pts).max()))
    centroid = pts.mean(axis=0)
    hull_vertices = set(int(v) for v in hull.vertices)
    facets = []
    for w, c in planes:
        margin = c - pts @ w
        if margin[list(hull_vertices)].min() < -1e-7 * scale:
            w, c = -w, -c
        side = float(w @ centroid - c)
        if side > eps_geom * scale:
            w, c = -w, -c
        elif abs(side) <= eps_geom * scale and apex_id is not None:
            if float(w @ pts[apex_id] - c) > eps_geom * scale:
                w, c = -w, -c
        on = np.flatnonzero(np.abs(pts @ w - c) <= eps_geom * scale)
        vids = tuple(sorted(int(i) for i in on if int(i) in hull_vertices))
        facets.append((w, float(c), vids))
    return facets


def pairwise_consolidate_faces(faces, scaled_returns):
    """Face consolidation by the affine dimension of unions: the union SVD
    run on every vertex-sharing pair of equal dimension, once per shared
    vertex, and nesting found by comparing every face with every other. It
    is the reference for `consolidate_faces`' exposed-set rule."""
    n = len(faces)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    by_vertex = {}
    for i, f in enumerate(faces):
        for v in f.vertex_ids:
            by_vertex.setdefault(v, []).append(i)
    for shared in by_vertex.values():
        for pos, i in enumerate(shared):
            for j in shared[pos + 1 :]:
                ri, rj = find(i), find(j)
                if ri == rj or faces[i].dim != faces[j].dim:
                    continue
                union = sorted(set(faces[i].vertex_ids) | set(faces[j].vertex_ids))
                pts = np.array([scaled_returns[v] for v in union])
                if affine_dimension(pts) == faces[i].dim:
                    parent[max(ri, rj)] = min(ri, rj)
    merged = {}
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
    keep, seen = [], set()
    for f in ordered:
        if f.vertex_ids in seen:
            continue
        if any(set(f.vertex_ids) < set(g.vertex_ids) for g in ordered if g is not f):
            continue
        seen.add(f.vertex_ids)
        keep.append(f)
    return keep


def piecewise_exposed_sets(faces, scaled_returns, eps_geom: float = 1e-9):
    """The vertex ids each face piece's certificate w = alpha @ normals
    scores within eps_geom times the returns' scale of its maximum, from one
    matrix-vector product `points @ w` per piece."""
    points = np.asarray(scaled_returns, dtype=float)
    tol = eps_geom * max(1.0, float(np.abs(points).max()))
    keys = []
    for f in faces:
        score = points @ (f.alpha @ f.normals)
        keys.append(tuple(np.flatnonzero(score >= score.max() - tol).tolist()))
    return keys


def piecewise_consolidate_faces(faces, scaled_returns, eps_geom: float = 1e-9):
    """`consolidate_faces` one piece at a time: each piece keyed by
    `piecewise_exposed_sets`, the first piece with a key kept under it, and
    a face dropped when another face holds all of its vertices and more,
    found by comparing every pair."""
    by_key = {}
    for f, key in zip(faces, piecewise_exposed_sets(faces, scaled_returns, eps_geom)):
        assert set(f.vertex_ids) <= set(key)
        if key not in by_key:
            by_key[key] = f if key == f.vertex_ids else dataclasses.replace(f, vertex_ids=key)
    ordered = list(by_key.values())
    return [
        f for f in ordered
        if not any(set(f.vertex_ids) < set(g.vertex_ids) for g in ordered)
    ]


def loop_verify_front(mdp, front, samples_per_face=25, tol=1e-8, seed=0):
    """`verify_front` one sample at a time: each mixture is built by
    `mix_policies`, evaluated by `long_term_return`, projected by its own
    least-squares solve and scanned for dominance on its own."""
    scale = return_scale(mdp)
    pols = enumerate_deterministic(mdp.num_states, mdp.num_actions)
    cloud = deterministic_returns(mdp, pols) * scale
    cloud = cloud[pprune(cloud)]

    def dominated(x):
        ge = (cloud >= x - 1e-12).all(axis=1)
        gt = (cloud > x + tol).any(axis=1)
        return bool((ge & gt).any())

    report = VerifyReport(passed=True)
    for v in front.vertices:
        if dominated(v.ret * scale):
            report.dominated_vertices.append(v.id)
            report.passed = False

    rng = np.random.default_rng(seed)
    for fid, face in enumerate(front.faces):
        vrecs = [front.vertices[v] for v in face.vertex_ids]
        V = np.array([vr.ret for vr in vrecs]) * scale
        basis = (V[1:] - V[0]).T
        weights = _face_weights(len(vrecs), samples_per_face, rng)
        max_resid = 0.0
        n_dom = 0
        for w in weights:
            mixed = mix_policies([vr.policy for vr in vrecs], w, mdp.num_actions)
            x = long_term_return(mdp, mixed) * scale
            coef, *_ = np.linalg.lstsq(basis, x - V[0], rcond=None)
            resid = float(np.abs(x - V[0] - basis @ coef).max())
            max_resid = max(max_resid, resid)
            if dominated(x):
                n_dom += 1
        ok = max_resid <= tol and n_dom == 0
        report.face_checks.append(
            FaceCheck(
                face_id=fid,
                n_samples=len(weights),
                max_affine_residual=max_resid,
                n_dominated=n_dom,
                passed=ok,
            )
        )
        report.passed = report.passed and ok
    return report
