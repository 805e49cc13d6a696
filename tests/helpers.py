"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (triple loops,
quadratic filters, exhaustive subset enumeration, simulation) so that
agreement with the package is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from momdp_pareto import (
    FaceDescriptor,
    Mdp,
    affine_dimension,
    incident_facets,
    pareto_lp,
    subfaces_at,
)


def one_hot_policy(actions, num_actions: int) -> np.ndarray:
    """Deterministic action vector as a stochastic policy matrix."""
    actions = np.asarray(actions, dtype=np.int64)
    out = np.zeros((actions.shape[0], num_actions))
    out[np.arange(actions.shape[0]), actions] = 1.0
    return out


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


def quadratic_pprune(points: np.ndarray, eps: float = 0.0) -> list[int]:
    """All-pairs non-domination filter, O(n^2)."""
    points = np.asarray(points, dtype=float)
    keep = []
    for i in range(points.shape[0]):
        if not any(
            strictly_dominates(points[j], points[i], eps)
            for j in range(points.shape[0])
            if j != i
        ):
            keep.append(i)
    return keep


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


def product_grid_weights(k: int, total: int, rng: np.random.Generator) -> np.ndarray:
    """verify's face weights, built from every point of the 5**k product grid:
    the compositions of 4 in product order, the first `total` of them, topped
    up with Dirichlet draws."""
    grid = [
        np.array(c, dtype=float) / 4.0
        for c in itertools.product(range(5), repeat=k)
        if sum(c) == 4
    ]
    if len(grid) >= total:
        return np.array(grid[:total])
    extra = rng.dirichlet(np.ones(k), size=total - len(grid))
    return np.vstack([np.array(grid), extra])


def faces_by_lp_everywhere(apex_id: int, hull, eps_pos: float = 1e-9):
    """The apex's Pareto faces by a descent that solves the positivity LP on
    every face it tests and takes every face's dimension from its own SVD.

    Returns the passing (face, certificate) pairs in discovery order and the
    number of faces tested.
    """
    apex_facets = incident_facets(hull, apex_id)

    def canonical(vids):
        vset = set(vids)
        defining = tuple(
            fi for fi in apex_facets if vset <= set(hull.facets[fi].vertex_ids)
        )
        dim = affine_dimension(hull.points[list(vids)])
        return FaceDescriptor(tuple(sorted(vids)), defining, dim)

    queue = deque(canonical(hull.facets[fi].vertex_ids) for fi in apex_facets)
    tested = set()
    passing = []
    while queue:
        face = queue.popleft()
        if face.vertex_ids in tested or face.dim < 1:
            continue
        tested.add(face.vertex_ids)
        cert = pareto_lp(np.array([hull.facets[fi].normal for fi in face.defining_facets]))
        if cert.t_star > eps_pos:
            passing.append((face, cert))
            continue
        if face.dim > 1:
            for child in subfaces_at(face, hull, apex_id):
                queue.append(canonical(child.vertex_ids))
    return passing, len(tested)
