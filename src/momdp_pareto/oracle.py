"""Brute-force front enumeration, front comparison and sampled verification."""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import (
    DegenerateHullError,
    affine_dimension,
    convex_hull,
    deterministic_jitter,
    pprune,
)
from .mdp import (
    InvalidMdpError,
    Mdp,
    gen_random_mdp,
    long_term_return,
    mix_policies,
    validate_mdp,
)
from .search import (
    FaceRecord,
    ParetoFront,
    SearchConfig,
    SearchStats,
    VertexRecord,
    _support_lp,
    consolidate_faces,
    return_scale,
    search,
    select_pareto_faces,
)


class EnumerationCapError(RuntimeError):
    """Raised when A**S exceeds the policy enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration needs {count} policies, above the cap of {cap}")
        self.count = count
        self.cap = cap


def _all_policies(num_states: int, num_actions: int) -> np.ndarray:
    """All deterministic policies as an (A**S, S) array, lexicographic."""
    n = num_actions**num_states
    idx = np.arange(n)
    cols = [
        (idx // num_actions ** (num_states - 1 - s)) % num_actions
        for s in range(num_states)
    ]
    return np.stack(cols, axis=1).astype(np.int64)


def _block_returns(mdp: Mdp, block: np.ndarray) -> np.ndarray:
    """Long-term returns of a block of deterministic policies, batched."""
    S = mdp.num_states
    idx = np.arange(S)
    p_pi = mdp.P[idx[None, :], block]
    r_pi = mdp.r[idx[None, :], block]
    lhs = np.eye(S)[None, :, :] - mdp.gamma * p_pi
    values = np.linalg.solve(lhs, r_pi)
    return np.einsum("s,nsd->nd", mdp.mu, values)


def _enumerate_returns(
    mdp: Mdp, thread_count: int = 1, chunk: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """Policies and returns for the full deterministic policy space."""
    pols = _all_policies(mdp.num_states, mdp.num_actions)
    n = pols.shape[0]
    out = np.empty((n, mdp.num_objectives))
    spans = [(a, min(a + chunk, n)) for a in range(0, n, chunk)]

    def run(span: tuple[int, int]) -> None:
        a, b = span
        out[a:b] = _block_returns(mdp, pols[a:b])

    if thread_count > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=thread_count) as pool:
            list(pool.map(run, spans))
    else:
        for span in spans:
            run(span)
    return pols, out


def _pprune_chunked(points: np.ndarray, chunk: int = 20000) -> list[int]:
    """pprune for large arrays: prune chunks, then prune the survivors.

    Non-domination within the union implies non-domination within each chunk,
    so the two-level pass keeps exactly the same indices as a direct call.
    """
    n = points.shape[0]
    if n <= chunk:
        return pprune(points)
    survivors: list[int] = []
    for a in range(0, n, chunk):
        survivors.extend(a + i for i in pprune(points[a : a + chunk]))
    surv = np.array(survivors)
    return sorted(int(surv[i]) for i in pprune(points[surv]))


def _oracle_degenerate_faces(pts: np.ndarray, eps_pos: float):
    """Direct LP face tests for hull-degenerate non-dominated sets."""
    n = pts.shape[0]
    if n > 16:
        raise RuntimeError(
            f"degenerate-face fallback would enumerate subsets of {n} points; "
            "the non-dominated set is too large for direct testing"
        )
    found: dict[tuple[int, ...], tuple[tuple[int, ...], np.ndarray, float, int]] = {}
    for apex in range(n):
        rest = [m for m in range(n) if m != apex]
        queue: deque[tuple[int, ...]] = deque([(apex, *rest)])
        tested: set[tuple[int, ...]] = set()
        while queue:
            vids = queue.popleft()
            if vids in tested:
                continue
            tested.add(vids)
            dim = affine_dimension(pts[list(vids)])
            if dim >= 1:
                w, t = _support_lp(pts, vids)
                if w is not None and t > eps_pos:
                    key = tuple(sorted(vids))
                    if key not in found:
                        found[key] = (key, w[None, :], t, dim)
                    continue
            if len(vids) > 2:
                for drop in vids[1:]:
                    queue.append(tuple(x for x in vids if x != drop))
    return list(found.values())


def brute_force_front(
    mdp: Mdp,
    cap: int = 1_000_000,
    thread_count: int = 1,
    eps_equal: float = 1e-9,
    eps_geom: float = 1e-9,
    eps_pos: float = 1e-9,
) -> ParetoFront:
    """Compute the Pareto front by evaluating every deterministic policy.

    Enumerates all A**S policies, prunes dominated returns, builds the convex
    hull of the survivors and keeps the hull faces whose positivity LP passes,
    examined from every hull vertex. Intended as a reference implementation;
    cost grows with A**S.

    Args:
        mdp: a valid MDP.
        cap: maximum number of policies to enumerate.
        thread_count: worker threads for the evaluation sweep.
        eps_equal: tolerance identifying coincident returns (scaled space).
        eps_geom: hull incidence tolerance.
        eps_pos: positivity threshold of the face LP.

    Raises:
        InvalidMdpError: when validation fails.
        EnumerationCapError: when A**S exceeds the cap.
    """
    violations = validate_mdp(mdp)
    if violations:
        raise InvalidMdpError(violations)
    count = mdp.num_actions**mdp.num_states
    if count > cap:
        raise EnumerationCapError(count, cap)
    t0 = time.perf_counter()
    stats = SearchStats(policies_evaluated=count)
    scale = return_scale(mdp)

    pols, raw = _enumerate_returns(mdp, thread_count=thread_count)
    scaled = raw * scale
    nd = _pprune_chunked(scaled)

    # Collapse returns that coincide within eps_equal; the lexicographically
    # first policy of each group represents it, the rest become co-policies.
    reps: list[int] = []
    co: list[list[int]] = []
    for i in nd:
        for k, r in enumerate(reps):
            if np.abs(scaled[i] - scaled[r]).max() <= eps_equal:
                co[k].append(i)
                break
        else:
            reps.append(i)
            co.append([])

    pts = scaled[reps]
    dim = mdp.num_objectives
    faces_local: list[tuple[tuple[int, ...], np.ndarray, np.ndarray, float, int]] = []

    if len(reps) > 1:
        hull_pts = pts
        adim = affine_dimension(pts)
        if adim < dim or len(reps) < dim + 1:
            stats.warnings.append(
                f"non-dominated returns span dimension {adim} with {len(reps)} points; "
                "jitter applied before hull construction"
            )
            hull_pts = deterministic_jitter(pts)
        hull = None
        if len(reps) >= dim + 1:
            try:
                hull = convex_hull(hull_pts, eps_geom=eps_geom)
            except DegenerateHullError:
                stats.warnings.append(
                    "hull of non-dominated returns is degenerate; "
                    "testing faces directly instead"
                )
        if hull is not None:
            seen: set[tuple[int, ...]] = set()
            for apex in hull.vertex_ids:
                passing, _ = select_pareto_faces(apex, hull, eps_pos)
                for fd, cert in passing:
                    if fd.vertex_ids in seen:
                        continue
                    seen.add(fd.vertex_ids)
                    normals = np.array(
                        [hull.facets[fi].normal for fi in fd.defining_facets]
                    )
                    faces_local.append(
                        (fd.vertex_ids, normals, cert.alpha, cert.t_star, fd.dim)
                    )
        else:
            for key, normals, t, fdim in _oracle_degenerate_faces(pts, eps_pos):
                faces_local.append((key, normals, np.ones(1), t, fdim))

    if faces_local:
        used = sorted({lid for vids, *_ in faces_local for lid in vids})
    else:
        # No face passed (or a single point): the front is the single best
        # return under a uniform positive weighting, lowest index on ties.
        used = [int(np.argmax(pts.sum(axis=1)))]

    lid_to_gid = {lid: g for g, lid in enumerate(used)}
    vertices = []
    for lid in used:
        src = reps[lid]
        vertices.append(
            VertexRecord(
                id=lid_to_gid[lid],
                policy=pols[src],
                co_policies=[pols[j] for j in co[lid]],
                ret=raw[src],
            )
        )
    faces = consolidate_faces(
        [
            FaceRecord(
                vertex_ids=tuple(sorted(lid_to_gid[lid] for lid in vids)),
                dim=fdim,
                normals=normals,
                alpha=alpha,
                t_star=t_star,
            )
            for vids, normals, alpha, t_star, fdim in faces_local
        ],
        [pts[lid] for lid in used],
    )
    stats.wall_time["total"] = time.perf_counter() - t0
    return ParetoFront(vertices=vertices, faces=faces, stats=stats, return_scale=scale)


@dataclass
class ComparisonReport:
    """Outcome of matching two fronts vertex by vertex and face by face.

    Vertices are matched greedily by scaled max-norm distance under the given
    tolerance; unmatched entries list raw returns. Face sets are compared
    after translating the first front's vertex ids through the matching.
    """

    vertex_match: bool
    face_match: bool
    unmatched_a: list[list[float]]
    unmatched_b: list[list[float]]
    face_diffs: dict[str, list[tuple[int, ...]]]
    max_vertex_distance: float
    tol: float

    @property
    def match(self) -> bool:
        return self.vertex_match and self.face_match


def compare_fronts(a: ParetoFront, b: ParetoFront, tol: float = 1e-8) -> ComparisonReport:
    """Match two fronts and report every discrepancy.

    Args:
        a, b: fronts over the same MDP (same return scaling).
        tol: max-norm tolerance in scaled return space.
    """
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
    face_match = vertex_match and not a_only and not b_only
    return ComparisonReport(
        vertex_match=vertex_match,
        face_match=face_match,
        unmatched_a=unmatched_a,
        unmatched_b=unmatched_b,
        face_diffs={"a_only": a_only, "b_only": b_only},
        max_vertex_distance=max_dist,
        tol=tol,
    )


@dataclass
class FaceCheck:
    face_id: int
    n_samples: int
    max_affine_residual: float
    n_dominated: int
    passed: bool


@dataclass
class VerifyReport:
    passed: bool
    face_checks: list[FaceCheck] = field(default_factory=list)
    dominated_vertices: list[int] = field(default_factory=list)


def _compositions(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` non-negative ints summing to `total`, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(parts - 1, total - head):
            yield (head, *tail)


def _face_weights(k: int, total: int, rng: np.random.Generator) -> np.ndarray:
    """Barycentric sample weights: a step-0.25 grid topped up with random draws.

    The grid points come in lexicographic order and only the first `total`
    are generated, so the cost does not grow as 5**k.
    """
    grid = [
        np.array(c, dtype=float) / 4.0
        for c in itertools.islice(_compositions(k, 4), total)
    ]
    if len(grid) >= total:
        return np.array(grid)
    extra = rng.dirichlet(np.ones(k), size=total - len(grid))
    return np.vstack([np.array(grid), extra])


def verify_front(
    mdp: Mdp,
    front: ParetoFront,
    samples_per_face: int = 25,
    tol: float = 1e-8,
    seed: int = 0,
    cap: int = 1_000_000,
    thread_count: int = 1,
) -> VerifyReport:
    """Spot-check a front against full policy enumeration.

    Every vertex return is checked for non-domination. For each face,
    barycentric mixtures of its vertex policies are evaluated and must (i)
    land on the face's affine hull within tol (scaled) and (ii) not be
    strictly dominated, beyond tol, by any deterministic policy's return.

    Raises:
        EnumerationCapError: when A**S exceeds the cap.
    """
    count = mdp.num_actions**mdp.num_states
    if count > cap:
        raise EnumerationCapError(count, cap)
    scale = return_scale(mdp)
    _, raw_all = _enumerate_returns(mdp, thread_count=thread_count)
    cloud = raw_all * scale

    def dominated(x: np.ndarray) -> bool:
        ge = (cloud >= x - tol).all(axis=1)
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


@dataclass
class BenchRow:
    states: int
    actions: int
    objectives: int
    seed: int
    solver: str
    vertices: int
    faces: int
    seconds: float


def bench_suite(
    states: list[int],
    actions: list[int],
    objectives: int,
    seeds: list[int],
    gamma: float = 0.9,
    cap: int = 1_000_000,
) -> list[BenchRow]:
    """Time `search` against `brute_force_front` over a grid of instances."""
    rows: list[BenchRow] = []
    for S in states:
        for A in actions:
            for seed in seeds:
                mdp = gen_random_mdp(seed, S, A, objectives, gamma)
                t0 = time.perf_counter()
                front = search(mdp, SearchConfig(seed=seed))
                dt = time.perf_counter() - t0
                rows.append(
                    BenchRow(S, A, objectives, seed, "solve", len(front.vertices), len(front.faces), dt)
                )
                t0 = time.perf_counter()
                oracle = brute_force_front(mdp, cap=cap)
                dt = time.perf_counter() - t0
                rows.append(
                    BenchRow(S, A, objectives, seed, "oracle", len(oracle.vertices), len(oracle.faces), dt)
                )
    return rows
