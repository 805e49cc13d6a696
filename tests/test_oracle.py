import dataclasses
import importlib
import re

import numpy as np
import pytest

from momdp_pareto import (
    EnumerationCapError,
    ParetoFront,
    SearchConfig,
    brute_force_front,
    compare_fronts,
    gen_gridworld,
    gen_random_mdp,
    search,
    verify_front,
)
from momdp_pareto import Mdp, geometry, oracle
from momdp_pareto.geometry import affine_dimension
from momdp_pareto import mdp as mdp_module
from momdp_pareto.mdp import deterministic_returns, enumerate_deterministic, mix_policies
from momdp_pareto.oracle import _face_weights, bench_suite
from momdp_pareto.search import FaceRecord, SearchStats, VertexRecord, return_scale

from helpers import (
    apex_facet_ids,
    benchmark_instances,
    dependent_objective,
    dominated_in_cloud,
    duplicate_action,
    faces_by_lp_everywhere,
    loop_compare_fronts,
    loop_verify_front,
    make_bandit,
    passes_sign_screen,
    product_grid_weights,
)
from test_golden import INSTANCES as GOLDEN_INSTANCES


class TestBruteForce:
    def test_bandit_front(self, bandit3):
        front = brute_force_front(bandit3)
        rets = sorted(tuple(np.round(v.ret, 12)) for v in front.vertices)
        assert rets == [(0.0, 1.0), (1.0, 0.0)]
        assert [f.vertex_ids for f in front.faces] == [(0, 1)]

    def test_single_objective_single_vertex(self):
        m = gen_random_mdp(1, 4, 3, 1)
        front = brute_force_front(m)
        assert len(front.vertices) == 1
        assert front.faces == []

    def test_cap_enforced(self):
        m = gen_random_mdp(0, 5, 5, 3)
        front = search(m)
        # The oracle and verify share the sweep, and with it its cap.
        for sweep in (lambda: brute_force_front(m, cap=100), lambda: verify_front(m, front, cap=100)):
            with pytest.raises(EnumerationCapError) as err:
                sweep()
            assert err.value.count == 5**5
            assert err.value.cap == 100

    def test_counts_all_policies(self, mdp433):
        front = brute_force_front(mdp433)
        assert front.stats.policies_evaluated == 3**4
        assert front.stats.planner_calls == 0

    def test_agrees_with_search_on_random_instance(self):
        m = gen_random_mdp(7, 5, 3, 3)
        rep = compare_fronts(search(m, SearchConfig(seed=0)), brute_force_front(m))
        assert rep.vertex_match and rep.face_match

    def test_agrees_with_search_on_gridworld(self):
        m = gen_gridworld(1, 3, 3, 3)
        rep = compare_fronts(search(m, SearchConfig(seed=0)), brute_force_front(m))
        assert rep.vertex_match and rep.face_match

    def test_thread_count_does_not_change_front(self, mdp433):
        a = brute_force_front(mdp433, thread_count=1)
        b = brute_force_front(mdp433, thread_count=4)
        assert [tuple(v.ret) for v in a.vertices] == [tuple(v.ret) for v in b.vertices]
        assert [f.vertex_ids for f in a.faces] == [f.vertex_ids for f in b.faces]


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_random_mdp(0, 4, 3, 3),
        lambda: gen_gridworld(1, 2, 2, 3),
        lambda: duplicate_action(gen_random_mdp(1, 4, 3, 3)),
    ],
    ids=["mdp433", "grid2x2", "dupact"],
)
def test_search_and_oracle_returns_agree_exactly(build):
    # Both evaluate deterministic policies through the same code, so matched
    # vertices carry bit-identical returns.
    m = build()
    rep = compare_fronts(search(m, SearchConfig(seed=0)), brute_force_front(m))
    assert rep.vertex_match
    assert rep.max_vertex_distance == 0.0


def test_oracle_face_dims_on_a_closed_hull_equal_search():
    """With action 2 copied from action 1, this instance's non-dominated
    returns span 4 of 5 dimensions, so the oracle builds its hull on the
    returns closed off below. Face dimensions come from the face lattice,
    and the appended rows lie on no face, so each face's dimension is that
    of its returns, as in search."""
    mdp = duplicate_action(gen_random_mdp(5, 4, 3, 5))
    got, want = brute_force_front(mdp), search(mdp)
    assert got.stats.warnings == []
    assert compare_fronts(got, want).match
    got_pts, want_pts = (
        np.array([v.ret for v in f.vertices]) * f.return_scale for f in (got, want)
    )
    assert affine_dimension(got_pts) == 4
    for front, pts in ((got, got_pts), (want, want_pts)):
        for face in front.faces:
            assert face.dim == affine_dimension(pts[list(face.vertex_ids)])
    to_want = [int(np.abs(want_pts - p).max(axis=1).argmin()) for p in got_pts]
    mapped = [(tuple(sorted(to_want[v] for v in f.vertex_ids)), f.dim) for f in got.faces]
    assert sorted(mapped) == sorted((f.vertex_ids, f.dim) for f in want.faces)
    assert max(f.dim for f in got.faces) == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_closes_off_below_d_plus_one_returns(seed, monkeypatch):
    """With fewer than D + 1 non-dominated returns the oracle builds its
    hull on the returns closed off below, with no warning; it used to test
    faces directly."""
    built = []

    def recording(points, **kwargs):
        built.append(len(points))
        return geometry.convex_hull(points, **kwargs)

    monkeypatch.setattr(oracle, "convex_hull", recording)
    m = gen_random_mdp(seed, 2, 2, 5)
    got = brute_force_front(m)
    n = len(got.vertices)
    assert 1 < n < 6
    assert built == [n, n + 5]
    assert got.stats.warnings == []
    assert compare_fronts(got, search(m)).match


def oracle_instances():
    """MDP builders by name: every golden instance within the oracle's
    default cap, and every benchmark instance the benchmark runs it on."""
    out = {}
    for name, build in GOLDEN_INSTANCES.items():
        mdp = build()
        if mdp.num_actions**mdp.num_states <= 1_000_000:
            out[f"golden-{name}"] = build
    for inst in benchmark_instances():
        if "oracle" in inst.ops:
            out[f"bench-{inst.name}"] = inst.build
    return out


ORACLE_INSTANCES = oracle_instances()


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_consolidation_leaves_the_oracle_faces_unchanged(name):
    """The oracle's descents on one hull record exactly the maximal Pareto
    faces, so `consolidate_faces` has nothing to merge or drop: it returns
    the oracle's faces as they are, in order. The oracle no longer calls it."""
    front = brute_force_front(ORACLE_INSTANCES[name]())
    scaled = [v.ret * front.return_scale for v in front.vertices]
    assert front.faces
    assert oracle.consolidate_faces(front.faces, scaled) == front.faces


@pytest.mark.parametrize(
    "name",
    ["golden-dense-S4-A3-D5-s1", "golden-grid-2x2-D4-s2", "bench-depobj-S5-A3-D4-s1"],
)
def test_apex_sign_screen_changes_no_face_and_no_count(name, monkeypatch):
    """The oracle descends from every input vertex. Where the apex's facet
    normals miss an objective, its descent returns no face at once: no
    subface step and no LP. Nothing is lost there, as a descent that solves
    the LP on every face through that apex (`faces_by_lp_everywhere`)
    passes none. Each of these instances has such a vertex."""
    search_module = importlib.import_module("momdp_pareto.search")
    descend = search_module.select_pareto_faces
    work = []
    ended = []

    def counted(attribute):
        original = getattr(search_module, attribute)

        def wrapped(*args):
            work.append(attribute)
            return original(*args)

        monkeypatch.setattr(search_module, attribute, wrapped)

    def descending(apex_id, hull):
        work.clear()
        got = descend(apex_id, hull)
        if not passes_sign_screen(hull.normals[apex_facet_ids(hull, apex_id)], 1e-9):
            assert got == ([], []) and work == []
            ended.append((apex_id, hull))
        return got

    counted("subfaces_at")
    counted("pareto_lp")
    monkeypatch.setattr(oracle, "select_pareto_faces", descending)
    brute_force_front(ORACLE_INSTANCES[name]())
    assert ended
    for apex_id, hull in ended:
        assert faces_by_lp_everywhere(apex_id, hull)[0] == []


def test_oracle_solves_each_face_lp_once(monkeypatch):
    """The oracle descends from many hull vertices but solves the positivity
    LP once per distinct set of defining facets."""
    # The package rebinds the name `search` to the function, so the module
    # is fetched by its import path.
    search_module = importlib.import_module("momdp_pareto.search")
    solve, build = search_module.pareto_lp, oracle.convex_hull
    inputs, hulls = [], []

    def counting_lp(normals):
        inputs.append(np.asarray(normals).tobytes())
        return solve(normals)

    def keeping_hull(*args, **kwargs):
        hulls.append(build(*args, **kwargs))
        return hulls[-1]

    monkeypatch.setattr(search_module, "pareto_lp", counting_lp)
    monkeypatch.setattr(oracle, "convex_hull", keeping_hull)
    brute_force_front(gen_random_mdp(0, 8, 4, 3))
    assert len(hulls) == 1
    assert 0 < len(inputs) == len(hulls[0].certificates) == len(set(inputs))


@pytest.mark.parametrize("name", ["eps_equal", "eps_geom", "eps_pos"])
def test_oracle_takes_no_tolerances(name):
    """The oracle's tolerances are the geometry's fixed ones."""
    with pytest.raises(TypeError, match=name):
        brute_force_front(gen_random_mdp(0, 4, 3, 3), **{name: 1e-7})


# (seed, S, A, D, gamma) of random MDPs on which the oracle reported a face
# nested inside another of its own faces, both of dimension D - 1: two hull
# facets too far apart to merge shared its vertices within the incidence
# tolerance. On (0, 5, 3, 4) at 0.9999 they were (21, 23, 24, 25) and
# (21, 23, 24, 25, 26, 28).
HIGH_GAMMA_NESTED = [
    (0, 5, 3, 4, 0.9999),
    (3, 4, 3, 5, 0.9999),
    (0, 5, 3, 4, 0.99999),
    (2, 5, 3, 4, 0.99999),
    (2, 5, 3, 4, 0.999999),
    (3, 4, 3, 5, 0.999999),
]


@pytest.mark.parametrize("seed,S,A,D,gamma", HIGH_GAMMA_NESTED)
def test_high_gamma_oracle_drops_nested_faces(seed, S, A, D, gamma):
    m = gen_random_mdp(seed, S, A, D, gamma=gamma)
    front = brute_force_front(m)
    sets = [set(f.vertex_ids) for f in front.faces]
    assert not [(a, b) for a in sets for b in sets if a < b]
    assert compare_fronts(search(m), front, tol=1e-8).match
    assert verify_front(m, front, samples_per_face=5).passed


def test_oracle_and_search_share_the_nested_face_drop(monkeypatch):
    """Both drop nested faces through `geometry.drop_nested_faces`."""
    calls = []

    def spy(faces):
        calls.append(len(faces))
        return geometry.drop_nested_faces(faces)

    monkeypatch.setattr(oracle, "drop_nested_faces", spy)
    monkeypatch.setattr(importlib.import_module("momdp_pareto.search"), "drop_nested_faces", spy)
    m = gen_random_mdp(0, 5, 3, 4, gamma=0.9999)
    search(m)
    brute_force_front(m)
    assert len(calls) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
def test_verify_and_compare_reject_bad_tolerances(value):
    m = gen_random_mdp(0, 3, 2, 2)
    front = search(m)
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
        verify_front(m, front, tol=value)
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
        compare_fronts(front, front, tol=value)


@pytest.mark.parametrize("value", [0, -2])
def test_oracle_and_verify_reject_thread_counts_below_one(value):
    """Both used to run on one thread when given 0 or a negative count."""
    m = gen_random_mdp(0, 3, 2, 2)
    front = search(m)
    match = f"^thread_count must be an int >= 1, got {value}$"
    with pytest.raises(ValueError, match=match):
        brute_force_front(m, thread_count=value)
    with pytest.raises(ValueError, match=match):
        verify_front(m, front, thread_count=value)


@pytest.mark.parametrize("cap", [-5, 0, 1.5, float("nan"), True])
def test_oracle_verify_and_bench_reject_caps_that_are_not_counts(cap, monkeypatch):
    """A negative cap used to read as "enumeration needs 81 policies, above
    the cap of -5", and a NaN cap skipped the check, as `A**S > nan` is
    False. Each is now refused before any work."""
    m = gen_random_mdp(0, 4, 3, 2)
    front = search(m)

    def never(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(oracle, "tree_returns", never)
    monkeypatch.setattr(oracle, "deterministic_returns", never)
    monkeypatch.setattr(oracle, "gen_random_mdp", never)
    match = f"^cap must be an int >= 1, got {re.escape(repr(cap))}$"
    with pytest.raises(ValueError, match=match):
        brute_force_front(m, cap=cap)
    with pytest.raises(ValueError, match=match):
        verify_front(m, front, cap=cap)
    with pytest.raises(ValueError, match=match):
        bench_suite([3], [2], 2, [0], cap=cap)


def integer_rewards(seed: int, gamma: float, objectives: int) -> Mdp:
    """A dense S=5, A=3 MDP with rewards in {0, 1, 2}: many returns tie in
    some objective up to rounding, and the policy tree rounds them
    differently from the LU solves."""
    m = gen_random_mdp(seed, 5, 3, objectives, gamma)
    r = np.random.default_rng(seed).integers(0, 3, size=m.r.shape).astype(float)
    return Mdp(P=m.P, r=r, gamma=gamma, mu=m.mu)


def full_sweep(m: Mdp):
    """Every policy evaluated by `deterministic_returns` and pruned by `pprune`."""
    pols = enumerate_deterministic(m.num_states, m.num_actions)
    raw = deterministic_returns(m, pols)
    nd = geometry.pprune(raw * return_scale(m))
    return pols[nd], raw[nd]


class TestNondominatedPolicies:
    """The oracle's and verify's sweep, screened by the policy tree, against
    evaluating and pruning every policy."""

    CASES = {
        "dense": lambda: gen_random_mdp(0, 5, 3, 3),
        "dupact": lambda: duplicate_action(gen_random_mdp(1, 5, 3, 3)),
        "depobj": lambda: dependent_objective(gen_random_mdp(2, 5, 3, 4)),
        "grid": lambda: gen_gridworld(3, 2, 2, 3),
        "gamma0": lambda: gen_random_mdp(4, 5, 3, 3, 0.0),
        "gamma9999": lambda: gen_random_mdp(5, 5, 3, 3, 0.9999),
    }

    @staticmethod
    def assert_bit_identical(m, thread_count=1):
        pols, raw = oracle._nondominated_policies(m, thread_count)
        want_pols, want_raw = full_sweep(m)
        assert pols.dtype == np.int64
        assert pols.tobytes() == want_pols.tobytes()
        assert raw.tobytes() == want_raw.tobytes()

    @staticmethod
    def use_tree(monkeypatch, block=16):
        """Screen sweeps of more than 8 policies, in blocks of `block`."""
        monkeypatch.setattr(mdp_module, "_TREE_MIN_POLICIES", 8)
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", block)

    # The tree in blocks of 16 or 4096 policies, and no tree (these
    # instances have at most 243 policies).
    @pytest.mark.parametrize("block", [16, 4096, None])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_full_sweep(self, case, block, monkeypatch):
        if block:
            self.use_tree(monkeypatch, block)
        m = self.CASES[case]()
        self.assert_bit_identical(m)
        self.assert_bit_identical(m, thread_count=3)

    @pytest.mark.parametrize("objectives", [2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
    def test_ties_up_to_rounding(self, gamma, objectives, monkeypatch):
        self.use_tree(monkeypatch)
        for seed in range(20):
            self.assert_bit_identical(integer_rewards(seed, gamma, objectives))

    def test_benchmark_size(self):
        """A**S = 65536: the tree at its own depth, in 16 blocks."""
        self.assert_bit_identical(gen_random_mdp(0, 8, 4, 3), thread_count=2)

    # check3's, wide3's and degen's gridworld instance of the benchmark.
    @pytest.mark.parametrize(
        "build,kept",
        [
            (lambda: gen_random_mdp(0, 8, 4, 3), 86),
            (lambda: gen_random_mdp(0, 6, 5, 3), 278),
            (lambda: gen_gridworld(1, 2, 3, 3), 186),
        ],
        ids=["check3", "wide3", "degen-grid"],
    )
    def test_screen_keeps_as_many_rows_as_pinned(self, build, kept):
        """How many policies the tree screen leaves to evaluate exactly. A
        looser screen gives the same front, only slower, so it is pinned."""
        m = build()
        depth = mdp_module.tree_depth(m.num_states, m.num_actions)
        approx = mdp_module.tree_returns(m, depth) * return_scale(m)
        assert len(geometry.pprune(approx, oracle._tree_margin(m))) == kept

    def test_evaluates_only_the_screened_policies(self, monkeypatch):
        m = gen_random_mdp(0, 7, 4, 3)
        calls, evaluated = [], []
        prune, evaluate = oracle.pprune, oracle.deterministic_returns

        def recording_prune(points, margin=0.0):
            calls.append((len(points), margin))
            return prune(points, margin)

        def recording_eval(mdp, policies, thread_count=1):
            evaluated.append(len(policies))
            return evaluate(mdp, policies, thread_count)

        monkeypatch.setattr(oracle, "pprune", recording_prune)
        monkeypatch.setattr(oracle, "deterministic_returns", recording_eval)
        pols, _ = oracle._nondominated_policies(m)
        margin = oracle._tree_margin(m)
        assert 0.0 < margin < 1e-10
        assert calls == [(4**7, margin), (evaluated[0], 0.0)]
        assert len(pols) <= evaluated[0] < 4**7 // 10
        calls.clear()
        oracle._nondominated_policies(gen_random_mdp(0, 4, 4, 3))
        assert calls == [(4**4, 0.0)]


def test_all_policies_lexicographic():
    pols = enumerate_deterministic(3, 2)
    assert pols.shape == (8, 3)
    assert [tuple(p) for p in pols[:3]] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]


def drop_last_vertex(front: ParetoFront) -> ParetoFront:
    last = front.vertices[-1].id
    return dataclasses.replace(
        front,
        vertices=front.vertices[:-1],
        faces=[f for f in front.faces if last not in f.vertex_ids],
    )


class TestCompareFronts:
    def test_self_comparison(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        rep = compare_fronts(front, front)
        assert rep.match
        assert rep.max_vertex_distance == 0.0

    def test_missing_vertex_detected(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        rep = compare_fronts(drop_last_vertex(front), front)
        assert not rep.vertex_match
        assert len(rep.unmatched_b) == 1

    def test_swapping_arguments_swaps_reports(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        smaller = drop_last_vertex(front)
        ab = compare_fronts(smaller, front)
        ba = compare_fronts(front, smaller)
        assert ab.match == ba.match is False
        assert ab.unmatched_b == ba.unmatched_a
        assert ab.unmatched_a == ba.unmatched_b == []

    def test_missing_face_detected(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        trimmed = dataclasses.replace(front, faces=front.faces[:-1])
        rep = compare_fronts(trimmed, front)
        assert rep.vertex_match and not rep.face_match
        assert len(rep.face_diffs["b_only"]) == 1

    def test_perturbation_beyond_tolerance_detected(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        moved = dataclasses.replace(
            front,
            vertices=[
                dataclasses.replace(v, ret=v.ret + 1e-4) if v.id == 0 else v
                for v in front.vertices
            ],
        )
        rep = compare_fronts(moved, front, tol=1e-8)
        assert not rep.vertex_match


def front_of_returns(rets, faces=()) -> ParetoFront:
    """A front over the given returns, with placeholder policies and
    certificates, for tests that only read returns and face vertex ids."""
    policy = np.zeros(1, dtype=np.int64)
    vertices = [
        VertexRecord(id=i, policy=policy, co_policies=[], ret=np.array(r, dtype=float))
        for i, r in enumerate(rets)
    ]
    records = [
        FaceRecord(
            vertex_ids=tuple(f), dim=len(f) - 1, normals=np.eye(2), alpha=np.ones(2) / 2, t_star=0.5
        )
        for f in faces
    ]
    return ParetoFront(vertices=vertices, faces=records, stats=SearchStats(), return_scale=1.0)


class TestCompareFrontsMatching:
    """compare_fronts' vectorized matching against the double loop."""

    def test_coincident_vertices_and_tied_distances(self):
        a = front_of_returns(
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 2.0], [5.0, 5.0]],
            faces=[(0, 2), (1, 3), (2, 3)],
        )
        b = front_of_returns(
            [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.0], [1.0, 0.25], [2.0, 2.0], [0.0, 0.25]],
            faces=[(0, 3), (2, 4), (3, 4)],
        )
        for tol in (0.0, 0.25, 0.3, 1.5, 10.0):
            for x, y in ((a, b), (b, a), (a, a)):
                assert compare_fronts(x, y, tol) == loop_compare_fronts(x, y, tol)
        rep = compare_fronts(a, b, 0.25)
        assert rep.max_vertex_distance == 0.25
        assert len(rep.unmatched_a) == 1 and len(rep.unmatched_b) == 2

    def test_random_coarse_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            na, nb = rng.integers(1, 12, size=2)
            a = front_of_returns(rng.integers(0, 3, size=(na, 3)) / 2.0, faces=[(0, na - 1)])
            b = front_of_returns(rng.integers(0, 3, size=(nb, 3)) / 2.0, faces=[(0, nb - 1)])
            for tol in (0.0, 0.5, 1.0):
                assert compare_fronts(a, b, tol) == loop_compare_fronts(a, b, tol)

    def test_search_against_oracle(self):
        for m in (gen_random_mdp(2, 4, 3, 3), duplicate_action(gen_random_mdp(0, 4, 3, 3))):
            s, o = search(m, SearchConfig(seed=0)), brute_force_front(m)
            for tol in (1e-8, 0.05):
                assert compare_fronts(s, o, tol) == loop_compare_fronts(s, o, tol)
                assert compare_fronts(o, s, tol) == loop_compare_fronts(o, s, tol)


def with_dominated_face(mdp, front: ParetoFront) -> ParetoFront:
    """The front plus a dominated deterministic return as an extra vertex, on
    an extra face with vertex 0; the face's samples at that vertex are
    dominated."""
    pols = enumerate_deterministic(mdp.num_states, mdp.num_actions)
    rets = deterministic_returns(mdp, pols)
    worst = int(np.argmin(rets.sum(axis=1)))
    assert dominated_in_cloud(rets[worst] * front.return_scale, rets * front.return_scale, 1e-6)
    vid = len(front.vertices)
    extra = VertexRecord(id=vid, policy=pols[worst], co_policies=[], ret=rets[worst])
    face = dataclasses.replace(front.faces[0], vertex_ids=(0, vid))
    return dataclasses.replace(
        front, vertices=front.vertices + [extra], faces=front.faces + [face]
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_random_mdp(3, 5, 4, 3),
        lambda: duplicate_action(gen_random_mdp(0, 6, 3, 3)),
        lambda: gen_gridworld(1, 2, 3, 3),
    ],
    ids=["dense", "dupact", "grid2x3"],
)
def test_verify_on_non_dominated_cloud_equals_full_scan(build, monkeypatch):
    m = build()
    front = search(m, SearchConfig(seed=0))
    fronts = [front, with_dominated_face(m, front)]
    pruned = [verify_front(m, f, samples_per_face=8) for f in fronts]
    full_scans = []

    def every_policy(mdp, thread_count=1, cap=1_000_000):
        pols = enumerate_deterministic(mdp.num_states, mdp.num_actions)
        full_scans.append(len(pols))
        return pols, deterministic_returns(mdp, pols, thread_count)

    monkeypatch.setattr(oracle, "_nondominated_policies", every_policy)
    full = [verify_front(m, f, samples_per_face=8) for f in fronts]
    assert full_scans == [m.num_actions**m.num_states] * 2
    assert pruned == full
    assert pruned[0].passed
    assert pruned[1].dominated_vertices == [len(front.vertices)]
    assert pruned[1].face_checks[-1].n_dominated > 0


class TestVerifyFront:
    def test_passes_on_searched_front(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        report = verify_front(mdp433, front, samples_per_face=10)
        assert report.passed
        assert report.dominated_vertices == []
        for check in report.face_checks:
            assert check.passed
            assert check.n_samples >= 1
            assert check.max_affine_residual <= 1e-8
            assert check.n_dominated == 0

    def test_flags_a_degraded_vertex(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        worse = dataclasses.replace(
            front,
            vertices=[
                dataclasses.replace(v, ret=v.ret - 0.5) if v.id == 0 else v
                for v in front.vertices
            ],
        )
        report = verify_front(mdp433, worse, samples_per_face=5)
        assert not report.passed
        assert 0 in report.dominated_vertices

    def test_trade_off_on_an_edge_is_not_dominance(self):
        """Seed 703078820 draws a sample on face 18 of the 2x3 gridworld's
        front (vertices 21 and 27) with weight 3.7e-6 on vertex 27. It leads
        vertex 21 by 6.1e-9 in objective 0 and trails it by 3.0e-7 in
        objective 1: a trade-off, which a tol-sized slack on the "at least
        as good" side would read as dominance."""
        m = gen_gridworld(1, 2, 3, 3)
        front = search(m)
        assert front.faces[18].vertex_ids == (21, 27)
        report = verify_front(m, front, seed=703078820)
        assert report.face_checks[18].n_dominated == 0
        assert report.passed

    def test_single_vertex_front_vacuous(self):
        m = gen_random_mdp(1, 4, 3, 1)
        report = verify_front(m, brute_force_front(m))
        assert report.passed
        assert report.face_checks == []


def assert_same_report(got, ref):
    """Every field equal, except that each face's max_affine_residual may
    differ by 1e-15: one least-squares solve over all of a face's samples
    rounds differently from one solve per sample."""
    assert dataclasses.replace(got, face_checks=[]) == dataclasses.replace(ref, face_checks=[])
    assert len(got.face_checks) == len(ref.face_checks)
    for g, r in zip(got.face_checks, ref.face_checks):
        assert abs(g.max_affine_residual - r.max_affine_residual) <= 1e-15
        assert dataclasses.replace(g, max_affine_residual=0.0) == dataclasses.replace(
            r, max_affine_residual=0.0
        )


BENCHMARK_VERIFY = [
    (inst.name, inst.build) for inst in benchmark_instances() if "verify" in inst.ops
]
FAMILIES = [
    (f"{family}-s{seed}", build)
    for seed in range(5)
    for family, build in (
        ("dupact", lambda seed=seed: duplicate_action(gen_random_mdp(seed, 4, 3, 3))),
        ("gamma0", lambda seed=seed: gen_random_mdp(seed, 4, 3, 3, gamma=0.0)),
        ("grid2x2", lambda seed=seed: gen_gridworld(seed, 2, 2, 3)),
    )
]


class TestStackedVerifyMatchesLoop:
    """verify_front's stacked evaluation, residuals and dominance masks
    against the one-sample-at-a-time loop."""

    @pytest.mark.parametrize(
        "build", [b for _, b in BENCHMARK_VERIFY], ids=[n for n, _ in BENCHMARK_VERIFY]
    )
    def test_benchmark_instances(self, build):
        m = build()
        front = search(m)
        for seed in (0, 1):
            assert_same_report(verify_front(m, front, seed=seed), loop_verify_front(m, front, seed=seed))

    @pytest.mark.parametrize("build", [b for _, b in FAMILIES], ids=[n for n, _ in FAMILIES])
    def test_degenerate_families(self, build):
        m = build()
        front = search(m)
        assert_same_report(verify_front(m, front, seed=3), loop_verify_front(m, front, seed=3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_random_mdp(3, 5, 4, 3),
            lambda: duplicate_action(gen_random_mdp(0, 6, 3, 3)),
            lambda: gen_gridworld(1, 2, 3, 3),
        ],
        ids=["dense", "dupact", "grid2x3"],
    )
    def test_injected_dominance(self, build):
        m = build()
        front = with_dominated_face(m, search(m, SearchConfig(seed=0)))
        report = verify_front(m, front, samples_per_face=8)
        assert_same_report(report, loop_verify_front(m, front, samples_per_face=8))
        assert report.dominated_vertices == [len(front.vertices) - 1]
        assert report.face_checks[-1].n_dominated > 0

    @pytest.mark.parametrize("sample_block", [40, 5])
    def test_samples_crossing_block_edges(self, monkeypatch, sample_block):
        """Runs of 4 faces (or of one face, when a face has more samples
        than the run allows), blocks of 7 evaluations and blocks of 5 mask
        rows split the samples and the vertices, with a short last block."""
        m = gen_gridworld(1, 2, 3, 3)
        front = with_dominated_face(m, search(m))
        ref = loop_verify_front(m, front, samples_per_face=9, seed=4)
        mdp_module = importlib.import_module("momdp_pareto.mdp")
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", sample_block)
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", 7)
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", 5)
        assert len(front.faces) % 4 and (4 * 9) % 7 and len(front.vertices) % 5
        assert_same_report(verify_front(m, front, samples_per_face=9, seed=4), ref)
        assert ref.face_checks[-1].n_dominated > 0

    def test_mixtures_are_mix_policies_bit_for_bit(self, monkeypatch):
        m = gen_gridworld(1, 2, 3, 3)
        front = search(m)
        assert max(len(f.vertex_ids) for f in front.faces) >= 3
        stacks = []
        evaluate = oracle.stochastic_returns

        def keeping_stack(mdp, mats):
            stacks.append(np.array(mats))
            return evaluate(mdp, mats)

        monkeypatch.setattr(oracle, "stochastic_returns", keeping_stack)
        verify_front(m, front, samples_per_face=30, seed=5)
        rng = np.random.default_rng(5)
        want = [
            mix_policies([front.vertices[v].policy for v in f.vertex_ids], w, m.num_actions)
            for f in front.faces
            for w in _face_weights(len(f.vertex_ids), 30, rng)
        ]
        assert len(stacks) == 1
        assert stacks[0].tobytes() == np.array(want).tobytes()

    def test_zero_samples_checks_vertices_only(self, mdp433):
        front = with_dominated_face(mdp433, search(mdp433))
        report = verify_front(mdp433, front, samples_per_face=0)
        assert_same_report(report, loop_verify_front(mdp433, front, samples_per_face=0))
        assert report.dominated_vertices == [len(front.vertices) - 1]
        assert [c.n_samples for c in report.face_checks] == [0] * len(front.faces)
        assert all(c.passed and c.max_affine_residual == 0.0 for c in report.face_checks)

    def test_bad_vertex_policy_named_in_error(self, mdp433):
        front = search(mdp433)
        for bad, message in (
            ([0, 1, 3, 0], "action 3 at state 2 is not an integer in [0, 3)"),
            ([0, -1, 0, 0], "action -1 at state 1 is not an integer in [0, 3)"),
            ([0, 1, 2], "deterministic policy must have shape (4,), got (3,)"),
        ):
            vertices = list(front.vertices)
            vertices[1] = dataclasses.replace(vertices[1], policy=np.array(bad))
            broken = dataclasses.replace(front, vertices=vertices)
            with pytest.raises(ValueError) as err:
                verify_front(mdp433, broken)
            assert str(err.value) == "vertex 1: " + message

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([0.5, 1, 0, 0], "action 0.5 at state 0 is not an integer in [0, 3)"),
            ([0, 1, 2, float("nan")], "action nan at state 3 is not an integer in [0, 3)"),
            ([0, 3, 1, 0], "action 3 at state 1 is not an integer in [0, 3)"),
        ],
    )
    def test_bad_action_names_vertex_state_and_action(self, mdp433, bad, message):
        """A fractional action passed the old min/max check and reached
        numpy's indexing as an IndexError."""
        front = search(mdp433)
        vertices = list(front.vertices)
        vertices[1] = dataclasses.replace(vertices[1], policy=np.array(bad))
        broken = dataclasses.replace(front, vertices=vertices)
        with pytest.raises(ValueError) as err:
            verify_front(mdp433, broken)
        assert str(err.value) == "vertex 1: " + message

    def test_whole_number_float_actions_verify_as_ints(self, mdp433):
        front = search(mdp433)
        floats = dataclasses.replace(
            front,
            vertices=[dataclasses.replace(v, policy=v.policy.astype(float)) for v in front.vertices],
        )
        assert repr(verify_front(mdp433, floats)) == repr(verify_front(mdp433, front))

    def test_negative_samples_named_in_error(self, mdp433):
        front = search(mdp433)
        with pytest.raises(ValueError, match=r"samples_per_face must be an int >= 0, got -3"):
            verify_front(mdp433, front, samples_per_face=-3)

    @pytest.mark.parametrize("samples", [2.5, "5"])
    def test_non_int_samples_named_in_error(self, mdp433, samples):
        """2.5 used to raise islice's "Stop argument" message."""
        front = search(mdp433)
        message = rf"^samples_per_face must be an int >= 0, got {re.escape(repr(samples))}$"
        with pytest.raises(ValueError, match=message):
            verify_front(mdp433, front, samples_per_face=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_named_in_error(self, mdp433, seed):
        """-1 used to raise numpy's "expected non-negative integer"."""
        front = search(mdp433)
        with pytest.raises(ValueError, match=rf"^seed must be an int >= 0, got {seed}$"):
            verify_front(mdp433, front, seed=seed)


def test_face_weights_match_product_grid():
    for k in range(1, 10):
        for total in (1, 25, 200):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            got = _face_weights(k, total, rng)
            ref = product_grid_weights(k, total, ref_rng)
            assert got.shape == ref.shape == (total, k)
            assert got.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBenchSuite:
    def test_row_grid_and_fields(self):
        rows = bench_suite([3], [3, 4], 2, [0, 1])
        assert len(rows) == 8
        assert {r.solver for r in rows} == {"solve", "oracle"}
        assert all(r.seconds > 0 for r in rows)
        by_key = {}
        for r in rows:
            by_key.setdefault((r.states, r.actions, r.seed), {})[r.solver] = r
        for pair in by_key.values():
            assert pair["solve"].vertices == pair["oracle"].vertices
            assert pair["solve"].faces == pair["oracle"].faces

    def test_cap_checked_on_every_cell_before_the_first_solve(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("search ran before the cap check")

        monkeypatch.setattr(oracle, "search", never)
        # The first cell (3**3 = 27 policies) fits the cap; the last does not.
        with pytest.raises(EnumerationCapError) as err:
            bench_suite([3], [3, 4], 2, [0, 1], cap=27)
        assert (err.value.count, err.value.cap) == (64, 27)
