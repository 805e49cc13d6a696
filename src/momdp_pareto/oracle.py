"""Brute-force front enumeration, front comparison and sampled verification."""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    FaceRecord,
    affine_dimension,  # unused; the benchmark's tracer binds it on this module
    convex_hull,
    dominated_by,
    drop_nested_faces,
    group_coincident,
    pprune,
)
from .mdp import (
    Mdp,
    check_count,
    check_one_thread,
    deterministic_returns,
    enumerate_deterministic,
    gen_random_mdp,
    # Not called here since verify evaluates samples in stacked blocks; the
    # benchmark's tracer still binds it on this module.
    long_term_return,
    stochastic_returns,
    tree_depth,
    tree_returns,
)
from .search import (
    ParetoFront,
    SearchStats,
    VertexRecord,
    consolidate_faces,  # unused; the benchmark's tracer binds it on this module
    return_scale,
    search,
    select_pareto_faces,
    vertex_policy,
)


class EnumerationCapError(RuntimeError):
    """Raised when A**S exceeds the policy enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration needs {count} policies, above the cap of {cap}")
        self.count = count
        self.cap = cap


def check_tolerance(name: str, value: float) -> None:
    """Raise a ValueError naming `name` unless value is a finite number >= 0.

    A NaN tolerance makes every comparison false, and a negative one makes
    points differ from themselves, so neither describes a tolerance. A bool
    is not a tolerance either, so True and False are refused too.
    """
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    ):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


# Margin of the tree screen in `_nondominated_policies`, in scaled space,
# where returns lie in [-1, 1] and rewards in [-(1 - gamma), 1 - gamma]. Let
# u = 2**-52. A node of the tree whose computed values satisfy
# (I - gamma P_pi) V = r_pi + rho passes rho on to each child unchanged in
# exact arithmetic, plus rho_s g from the residual rho_s of the column
# c = M e_s, where g = (V'_s - V_s) / M_ss has |g| <= 2 because M_ss >= 1.
# The base LU solve leaves a residual of order S u (I - gamma P_pi is row
# diagonally dominant, so partial pivoting grows entries by at most 2), and
# each update's O(S + D) products add a few u more. A return's error is
# mu M rho, at most |rho| / (1 - gamma). So a tree row is off from the LU
# row of `deterministic_returns` by about c S u / (1 - gamma), with c a few
# times the depth (at most 12, as A**depth <= 4096); this is a first-order
# estimate, not a proof. Measured with the policies innermost in the tree:
# c <= 0.375 over the dense, dupact, depobj and grid families, seeds 0 and
# 1, at gamma from 0 to 0.999999, depths 1 to 12, S from 4 to 13 and A from
# 2 to 10. The largest c are at gamma 0, from errors of 3.3e-16 at S = 4
# and 5; at gamma >= 0.9, c <= 0.26. On gen_random_mdp(0, 8, 4, 3) the
# error is 9.8e-16 at gamma 0.9 and 8.7e-11 at 0.999999. The screen drops
# x only when some y has tree value >= x's tree value + margin everywhere,
# so with row errors e < margin / 2 the LU returns give y > x in every
# objective and x is not in the LU non-dominated set. 2**10 S u / (1 - gamma)
# leaves a factor of over 2700 above the measured error.
def _tree_margin(mdp: Mdp) -> float:
    return 2.0**10 * mdp.num_states * 2.0**-52 / (1.0 - mdp.gamma)


def _nondominated_policies(mdp: Mdp, cap: int = 1_000_000) -> tuple[np.ndarray, np.ndarray]:
    """The non-dominated deterministic policies of an MDP, as an (n, S)
    array in lexicographic order, and their raw returns.

    A cap that is not an int >= 1 raises a ValueError naming it, and A**S
    above the cap an EnumerationCapError, before any work.

    Every return comes from `deterministic_returns`, so the set, its order
    and its returns are bit for bit those of evaluating all A**S policies
    and pruning them with `pprune`. For at most 512 policies that is what
    happens. Otherwise `tree_returns` screens all policies by rank-one
    updates; `pprune` with `_tree_margin` drops only policies that the LU
    returns dominate in every objective, and the survivors, decoded from
    their indices, are evaluated and pruned exactly.
    """
    check_count("cap", cap, 1)
    S, A = mdp.num_states, mdp.num_actions
    if A**S > cap:
        raise EnumerationCapError(A**S, cap)
    scale = return_scale(mdp)
    depth = tree_depth(S, A)
    if depth:
        approx = tree_returns(mdp, depth) * scale
        pols = enumerate_deterministic(S, A, pprune(approx, _tree_margin(mdp)))
    else:
        pols = enumerate_deterministic(S, A)
    raw = deterministic_returns(mdp, pols)
    nd = pprune(raw * scale)
    return pols[nd], raw[nd]


def brute_force_front(mdp: Mdp, cap: int = 1_000_000, thread_count: int = 1) -> ParetoFront:
    """Compute the Pareto front from the returns of every deterministic policy.

    Finds the non-dominated policies among all A**S, builds the convex hull
    of their returns and keeps the hull faces whose positivity LP passes,
    examined from the hull vertices. Intended as a reference implementation;
    cost grows with A**S.

    The hull is one `convex_hull` call, which closes returns too flat for a
    hull off below. Its `vertex_ids` are returns only, and each starts a
    descent (`select_pareto_faces`), whose first step is the sign screen
    over the vertex's facet normals: a vertex they fail lies on no Pareto
    face, and its descent returns after that one facet scan. A face's LP
    input is the set of hull facets containing it, so each descent records
    exactly the maximal Pareto faces through its apex, and together they
    leave nothing to merge. But facets too far apart to merge can share
    vertices within the incidence tolerance, so the faces nested in another
    (seen at gamma >= 0.9999) are dropped, as search drops them.

    Above 512 policies, a rank-one policy tree screens all policies first
    and only the few it cannot rule out are evaluated exactly; see
    `_nondominated_policies`. Every return, vertex and co-policy is the one
    an exact evaluation of all A**S policies gives, bit for bit.

    Args:
        mdp: the MDP, valid since its construction.
        cap: maximum number of policies to enumerate.
        thread_count: must be 1; every sweep runs on the calling thread.

    Raises:
        ValueError: when cap is not an int >= 1 or thread_count is not 1,
            naming it.
        EnumerationCapError: when A**S exceeds the cap.
    """
    check_one_thread(thread_count)
    t0 = time.perf_counter()
    pols, raw = _nondominated_policies(mdp, cap)
    stats = SearchStats(policies_evaluated=mdp.num_actions**mdp.num_states)
    scale = return_scale(mdp)
    scaled = raw * scale

    # Collapse returns that coincide within EPS_EQUAL; the lexicographically
    # first policy of each group represents it, the rest become co-policies.
    groups = group_coincident(scaled)
    pts = scaled[[g[0] for g in groups]]
    passing: list[FaceRecord] = []
    if len(pts) > 1:
        hull = convex_hull(pts)
        for apex in hull.vertex_ids:
            passing += select_pareto_faces(apex, hull)[0]
        stats.count_face_work(hull)
    # A face passes from each of its corners; keep its first record, then
    # drop the faces nested inside another.
    first: dict[tuple[int, ...], FaceRecord] = {}
    for face in passing:
        first.setdefault(face.vertex_ids, face)
    faces_local = drop_nested_faces(list(first.values()))

    if faces_local:
        used = sorted({lid for f in faces_local for lid in f.vertex_ids})
    else:
        # No face passed (or a single point): the front is the single best
        # return under a uniform positive weighting, lowest index on ties.
        used = [int(np.argmax(pts.sum(axis=1)))]

    lid_to_gid = {lid: g for g, lid in enumerate(used)}
    vertices = [
        VertexRecord(
            id=lid_to_gid[lid],
            policy=pols[groups[lid][0]],
            co_policies=[pols[j] for j in groups[lid][1:]],
            ret=raw[groups[lid][0]],
        )
        for lid in used
    ]
    faces = [
        dataclasses.replace(f, vertex_ids=tuple(lid_to_gid[lid] for lid in f.vertex_ids))
        for f in faces_local
    ]
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

    Raises:
        ValueError: when tol is NaN, infinite or negative, or the fronts'
            returns differ in length; the message names both lengths.
    """
    check_tolerance("tol", tol)
    pa = np.array([v.ret for v in a.vertices]) * a.return_scale
    pb = np.array([v.ret for v in b.vertices]) * b.return_scale
    if len(pa) and len(pb) and pa.shape[1] != pb.shape[1]:
        raise ValueError(f"fronts have returns of {pa.shape[1]} and {pb.shape[1]} objectives")
    a_to_b: dict[int, int] = {}
    taken_b: set[int] = set()
    max_dist = 0.0
    if len(pa) and len(pb):
        # Greedy matching over the pairs within tol, closest first; ties go
        # to the lower index in a, then in b. The max-norm distances are
        # taken one objective at a time, so no (a, b, D) array is built.
        dist = np.zeros((len(pa), len(pb)))
        diff = np.empty_like(dist)
        for col_a, col_b in zip(pa.T, pb.T):
            np.abs(np.subtract(col_a[:, None], col_b, out=diff), out=diff)
            np.maximum(dist, diff, out=dist)
        ii, jj = np.nonzero(dist <= tol)
        dd = dist[ii, jj]
        for k in np.lexsort((jj, ii, dd)):
            i, j = int(ii[k]), int(jj[k])
            if i in a_to_b or j in taken_b:
                continue
            a_to_b[i] = j
            taken_b.add(j)
            max_dist = max(max_dist, float(dd[k]))
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


def _face_weights(k: int, total: int, rng: np.random.Generator) -> np.ndarray:
    """`total` barycentric sample weights over k vertices, uniform on the
    simplex, so that every vertex gets weight in almost every sample."""
    return rng.dirichlet(np.ones(k), size=total)


# Slack on the "at least as good" side of verify's dominance test; see
# `verify_front`.
_ROUNDING_SLACK = 1e-12
# Face samples whose mixtures verify builds and evaluates at once, the size
# of one `stochastic_returns` block.
_SAMPLE_BLOCK = 4096


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
    With `samples_per_face` 0 only the vertices are checked.

    The samples of all faces are evaluated in stacked blocks by
    `stochastic_returns`, bit for bit as `long_term_return` evaluates each.
    Each face's residuals come from one least-squares solve with its samples
    as right-hand sides, and one blocked mask tests all samples for
    dominance, as another tests all vertices.

    A scaled point x counts as dominated by a return c when c exceeds x by
    more than tol in some objective and is at least x - 1e-12 in every
    objective. The 1e-12 absorbs evaluation rounding only, so that a genuine
    trade-off of any size above it is never read as dominance. Scaled
    returns lie in [-1, 1], and each comes from an LU solve of
    (I - gamma P) V = r, whose relative error is about
    cond(I - gamma P) S 2**-53 <= (1 + gamma) / (1 - gamma) S 1.1e-16, or
    2.5e-14 at gamma = 0.9 and S = 12; x and c come from different solves,
    so they differ from the exact returns by two such errors. Where that
    bound passes 1e-12, a dominance within rounding of a tie goes unflagged.

    The dominance scans run over the exact returns of the non-dominated
    policies only, found as in `brute_force_front`. This is exact: a return
    that dominates x beyond tol is itself dominated by, or equal to, a
    non-dominated return, and that return is at least as large everywhere,
    so it dominates x beyond tol too.

    The MDP is valid since its construction, so verify checks only the
    front and its own arguments.

    Raises:
        ValueError: when samples_per_face or seed is not an int >= 0, tol is
            NaN, infinite or negative, cap is not an int >= 1,
            thread_count is not 1, or a vertex policy is not one integer
            action in [0, A) per state (`vertex_policy`) or a vertex return
            is not D entries; the message names the input, and for a policy
            the vertex, state and action.
        EnumerationCapError: when A**S exceeds the cap.
    """
    check_tolerance("tol", tol)
    check_count("seed", seed, 0)
    check_count("samples_per_face", samples_per_face, 0)
    check_one_thread(thread_count)
    S, A, D = mdp.num_states, mdp.num_actions, mdp.num_objectives
    policies = []
    for v in front.vertices:
        policies.append(vertex_policy(v, S, A))
        if np.shape(v.ret) != (D,):
            raise ValueError(f"vertex {v.id}: return has {np.size(v.ret)} entries, not {D}")
    scale = return_scale(mdp)
    cloud = _nondominated_policies(mdp, cap)[1] * scale

    rets = np.array([v.ret for v in front.vertices]).reshape(-1, D) * scale
    bad = dominated_by(rets, cloud, tol, _ROUNDING_SLACK)
    report = VerifyReport(
        passed=not bad.any(),
        dominated_vertices=[v.id for v, b in zip(front.vertices, bad.tolist()) if b],
    )

    # Each face's mixtures add its vertices' weight columns in face-vertex
    # order, as `mix_policies` adds them. They are built and evaluated for
    # runs of faces of at most _SAMPLE_BLOCK samples (or one face), so the
    # (rows, S, A) stack does not grow with the number of faces.
    rng = np.random.default_rng(seed)
    weights = [_face_weights(len(f.vertex_ids), samples_per_face, rng) for f in front.faces]
    states = np.arange(S)
    samples = np.empty((len(front.faces), samples_per_face, D))
    step = max(1, _SAMPLE_BLOCK // max(1, samples_per_face))
    for start in range(0, len(front.faces), step):
        faces = front.faces[start : start + step]
        mixed = np.zeros((len(faces), samples_per_face, S, A))
        for mats, face, w in zip(mixed, faces, weights[start:]):
            for vid, col in zip(face.vertex_ids, w.T):
                mats[:, states, policies[vid]] += col[:, None]
        returns = stochastic_returns(mdp, mixed.reshape(-1, S, A)) * scale
        samples[start : start + len(faces)] = returns.reshape(len(faces), samples_per_face, D)
    n_dominated = (
        dominated_by(samples.reshape(-1, D), cloud, tol, _ROUNDING_SLACK)
        .reshape(len(front.faces), samples_per_face)
        .sum(axis=1)
    )

    for fid, (face, xs, n_dom) in enumerate(zip(front.faces, samples, n_dominated.tolist())):
        max_resid = 0.0
        if samples_per_face:
            V = rets[list(face.vertex_ids)]
            basis = (V[1:] - V[0]).T
            offsets = (xs - V[0]).T
            coef, *_ = np.linalg.lstsq(basis, offsets, rcond=None)
            max_resid = float(np.abs(offsets - basis @ coef).max())
        ok = max_resid <= tol and n_dom == 0
        report.face_checks.append(
            FaceCheck(
                face_id=fid,
                n_samples=samples_per_face,
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
    """Time `search` against `brute_force_front` over a grid of instances.

    A size below 1 or a cap that is not an int >= 1 (ValueError), a gamma
    outside [0, 1) (InvalidMdpError) and an instance over the cap
    (EnumerationCapError) are found before the first solve.
    """
    check_count("cap", cap, 1)
    grid = [(S, A, seed) for S in states for A in actions for seed in seeds]
    mdps = [gen_random_mdp(seed, S, A, objectives, gamma) for S, A, seed in grid]
    for S, A, _ in grid:
        if A**S > cap:
            raise EnumerationCapError(A**S, cap)
    rows: list[BenchRow] = []
    for (S, A, seed), mdp in zip(grid, mdps):
        t0 = time.perf_counter()
        front = search(mdp)
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
