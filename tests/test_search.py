import importlib

import numpy as np
import pytest

from momdp_pareto import (
    FaceRecord,
    Mdp,
    gen_gridworld,
    SearchAbortError,
    SearchConfig,
    VertexRecord,
    brute_force_front,
    compare_fronts,
    gen_random_mdp,
    long_term_return,
    policies_on_face,
    search,
)
from momdp_pareto import geometry
from momdp_pareto.geometry import (
    Dominance,
    affine_basis,
    affine_dimension,
    convex_hull,
    dominance,
    mask_ids,
    pprune,
)
from momdp_pareto.mdp import enumerate_deterministic, neighbors_one
from momdp_pareto.search import (
    _add_vertex,
    _coplanar_cut,
    _find_vertex,
    _policy_key,
    consolidate_faces,
    explore_vertex,
    make_context,
    return_scale,
    select_pareto_faces,
)

from helpers import (
    benchmark_instances,
    duplicate_action,
    faces_by_lp_everywhere,
    loop_find_vertex,
    make_bandit,
    pairwise_consolidate_faces,
    svd_subfaces_at,
)
from test_golden import INSTANCES as GOLDEN_INSTANCES


class TestBanditFront:
    def test_two_vertices_one_edge(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0))
        rets = sorted(tuple(np.round(v.ret, 12)) for v in front.vertices)
        assert rets == [(0.0, 1.0), (1.0, 0.0)]
        assert len(front.faces) == 1
        assert front.faces[0].vertex_ids == (0, 1)
        assert front.faces[0].dim == 1

    def test_dominated_arm_never_appears(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0))
        for v in front.vertices:
            assert not np.allclose(v.ret, [0.4, 0.4])

    def test_same_front_from_either_starting_arm(self, bandit3):
        a = search(bandit3, SearchConfig(seed=0, initial_policy=np.array([0])))
        b = search(bandit3, SearchConfig(seed=0, initial_policy=np.array([1])))
        assert compare_fronts(a, b).match


class TestCollapsedFronts:
    def test_single_objective(self):
        m = gen_random_mdp(2, 3, 3, 1)
        front = search(m, SearchConfig(seed=0))
        assert len(front.vertices) == 1
        assert front.faces == []
        # The lone vertex is the scalar optimum.
        best = max(
            long_term_return(m, p)[0] for p in enumerate_deterministic(3, 3)
        )
        assert front.vertices[0].ret[0] == pytest.approx(best, abs=1e-9)

    def test_identical_objectives(self):
        base = gen_random_mdp(4, 3, 2, 1)
        m = Mdp(P=base.P, r=np.repeat(base.r, 3, axis=2), gamma=base.gamma, mu=base.mu)
        front = search(m, SearchConfig(seed=0))
        assert len(front.vertices) == 1
        assert front.faces == []


class TestOracleAgreement:
    def test_seed0_instance(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        oracle = brute_force_front(mdp433)
        rep = compare_fronts(front, oracle)
        assert rep.vertex_match and rep.face_match
        assert rep.max_vertex_distance <= 1e-8


class TestStats:
    def test_single_planner_call_and_iteration_count(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        assert front.stats.planner_calls == 1
        assert front.stats.iterations == len(front.vertices)
        assert front.stats.policies_evaluated >= len(front.vertices)
        for key in ("planner", "explore", "total"):
            assert front.stats.wall_time[key] >= 0.0

    def test_initial_policy_hook_skips_planner(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0, initial_policy=np.array([0])))
        assert front.stats.planner_calls == 0

    def test_bad_initial_policy_names_state(self, mdp433):
        with pytest.raises(ValueError, match=r"action 0\.5 at state 1 is not an integer in \[0, 3\)"):
            search(mdp433, SearchConfig(initial_policy=[0, 0.5, 1, 0]))
        with pytest.raises(ValueError, match=r"action 3 at state 2 is not an integer in \[0, 3\)"):
            search(mdp433, SearchConfig(initial_policy=[0, 1, 3, 0]))
        with pytest.raises(ValueError, match=r"initial_policy must be one action per state, got shape \(4, 3\)"):
            SearchConfig(initial_policy=np.full((4, 3), 1 / 3))


class TestScalarizationConsistency:
    def test_positive_weight_optima_lie_on_front(self):
        m = gen_random_mdp(6, 3, 3, 3)
        front = search(m, SearchConfig(seed=0))
        all_returns = np.array(
            [long_term_return(m, p) for p in enumerate_deterministic(3, 3)]
        )
        vertex_returns = np.array([v.ret for v in front.vertices])
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.uniform(0.05, 1.0, size=3)
            assert (vertex_returns @ w).max() >= (all_returns @ w).max() - 1e-9


class TestDeterminism:
    def test_repeat_runs_identical(self, mdp433):
        a = search(mdp433, SearchConfig(seed=0))
        b = search(mdp433, SearchConfig(seed=0))
        assert len(a.vertices) == len(b.vertices)
        for va, vb in zip(a.vertices, b.vertices):
            assert np.array_equal(va.policy, vb.policy)
            assert np.array_equal(va.ret, vb.ret)
        assert [f.vertex_ids for f in a.faces] == [f.vertex_ids for f in b.faces]

    def test_thread_count_does_not_change_result(self, mdp433):
        a = search(mdp433, SearchConfig(seed=0, thread_count=1))
        b = search(mdp433, SearchConfig(seed=0, thread_count=4))
        assert [tuple(v.policy) for v in a.vertices] == [tuple(v.policy) for v in b.vertices]
        assert [f.vertex_ids for f in a.faces] == [f.vertex_ids for f in b.faces]

    def test_seed_choice_does_not_change_front(self, mdp433):
        a = search(mdp433, SearchConfig(seed=1))
        b = search(mdp433, SearchConfig(seed=99))
        assert compare_fronts(a, b).match


class TestAborts:
    def test_dominated_start_names_a_better_neighbor(self):
        m = make_bandit(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(SearchAbortError) as err:
            search(m, SearchConfig(seed=0, initial_policy=np.array([0])))
        assert "dominat" in str(err.value)

    def test_interior_start_aborts(self):
        # The first arm sits midway on the segment joining (1,0) and (0,1):
        # no single neighbor dominates it, yet it is not extreme.
        arms = np.array(
            [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.7, 0.35], [0.35, 0.7]]
        )
        m = make_bandit(arms)
        with pytest.raises(SearchAbortError):
            search(m, SearchConfig(seed=0, initial_policy=np.array([0])))


class TestVisitedCache:
    def test_reexploration_evaluates_nothing_new(self, bandit3):
        ctx = make_context(bandit3, SearchConfig(seed=0))
        pol = np.array([0], dtype=np.int64)
        ctx.z[tuple(pol.tolist())] = long_term_return(bandit3, pol)
        ctx.stats.policies_evaluated += 1
        _add_vertex(ctx, pol, ctx.z[tuple(pol.tolist())], [])
        explore_vertex(ctx, ctx.vertices[0])
        count = ctx.stats.policies_evaluated
        faces, verts = explore_vertex(ctx, ctx.vertices[0])
        assert ctx.stats.policies_evaluated == count
        assert faces == [] and verts == []


class TestFindVertex:
    def test_first_of_two_matches(self, bandit3):
        """Vertices 1 and 2 both lie within eps_equal of the probe; the
        lookup names the smaller id, as the row-by-row scan does."""
        ctx = make_context(bandit3, SearchConfig(seed=0))
        eps = ctx.config.eps_equal
        probe = np.array([0.5, 0.25])
        ctx.scaled = np.array(
            [probe + [2 * eps, 0.0], probe + [0.0, -eps], probe + [0.5 * eps, 0.5 * eps]]
        )
        assert _find_vertex(ctx, probe) == loop_find_vertex(ctx.scaled, probe, eps) == 1
        ctx.scaled = ctx.scaled[[0, 2, 1]]
        assert _find_vertex(ctx, probe) == 1
        ctx.scaled = ctx.scaled[[0]]
        assert _find_vertex(ctx, probe) is None

    def test_random_probes_match_the_scan(self, bandit3):
        ctx = make_context(bandit3, SearchConfig(seed=0))
        rng = np.random.default_rng(3)
        ctx.scaled = rng.integers(0, 3, size=(80, 2)) * 1e-9
        for probe in rng.integers(0, 5, size=(200, 2)) * 0.5e-9:
            want = loop_find_vertex(ctx.scaled, probe, ctx.config.eps_equal)
            assert _find_vertex(ctx, probe) == want

    def test_added_vertices_are_found(self, bandit3):
        ctx = make_context(bandit3, SearchConfig(seed=0))
        assert ctx.scaled.shape == (0, 2)
        assert _find_vertex(ctx, np.zeros(2)) is None
        for a in range(3):
            pol = np.array([a], dtype=np.int64)
            _add_vertex(ctx, pol, long_term_return(bandit3, pol), [])
        assert ctx.scaled.shape == (3, 2)
        for vid, v in enumerate(ctx.vertices):
            assert _find_vertex(ctx, v.ret * ctx.scale) == vid


class TestCoPolicies:
    def test_duplicate_arm_merges(self):
        m = make_bandit(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        front = search(m, SearchConfig(seed=0))
        assert len(front.vertices) == 2
        by_ret = {tuple(np.round(v.ret, 9)): v for v in front.vertices}
        dup = by_ret[(1.0, 0.0)]
        assert len(dup.co_policies) == 1
        assert len(by_ret[(0.0, 1.0)].co_policies) == 0
        # Coincident returns leave too few distinct points for a 2-d hull,
        # so this run must take the degenerate path and say so.
        assert front.stats.warnings


class TestFrontInvariants:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_faces_reference_vertices_and_cover_them(self, seed):
        m = gen_random_mdp(seed, 4, 3, 3)
        front = search(m, SearchConfig(seed=0))
        ids = {v.id for v in front.vertices}
        seen = set()
        keys = set()
        for f in front.faces:
            assert set(f.vertex_ids) <= ids
            assert f.vertex_ids not in keys
            keys.add(f.vertex_ids)
            seen.update(f.vertex_ids)
        if len(front.vertices) > 1:
            assert seen == ids

    def test_no_face_nested_in_another(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        sets = [set(f.vertex_ids) for f in front.faces]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a < b


class TestPoliciesOnFace:
    def test_indicator_weight_returns_vertex(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0))
        pol, ret = policies_on_face(bandit3, front, 0, [1.0, 0.0])
        assert np.allclose(ret, front.vertices[0].ret)

    def test_edge_midpoint(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0))
        pol, ret = policies_on_face(bandit3, front, 0, [0.5, 0.5])
        assert np.allclose(pol.sum(axis=1), 1.0)
        mid = 0.5 * (front.vertices[0].ret + front.vertices[1].ret)
        assert np.abs(ret - mid).max() <= 1e-9

    def test_face_mixture_not_dominated(self):
        m = gen_random_mdp(3, 4, 3, 3)
        front = search(m, SearchConfig(seed=0))
        face_id = next(i for i, f in enumerate(front.faces) if f.dim == 2)
        k = len(front.faces[face_id].vertex_ids)
        _, ret = policies_on_face(m, front, face_id, np.full(k, 1.0 / k))
        scale = return_scale(m)
        for p in enumerate_deterministic(4, 3):
            other = long_term_return(m, p)
            gap = (other - ret) * scale
            assert not (np.all(gap >= -1e-9) and np.any(gap > 1e-9))

    def test_bad_face_id_rejected(self, bandit3):
        front = search(bandit3, SearchConfig(seed=0))
        with pytest.raises(ValueError):
            policies_on_face(bandit3, front, 5, [1.0])


def test_return_scale_formula():
    m = gen_random_mdp(0, 3, 2, 2)
    assert return_scale(m) == pytest.approx(
        (1 - m.gamma) / max(1.0, np.abs(m.r).max())
    )


class TestConsolidateFaces:
    def test_merges_coplanar_pieces_and_drops_nested(self):
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([1.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
        ]
        dummy = dict(normals=np.array([[0.0, 0.0, 1.0]]), alpha=np.ones(1), t_star=1.0)
        faces = [
            FaceRecord(vertex_ids=(0, 1, 2), dim=2, **dummy),
            FaceRecord(vertex_ids=(0, 2, 3), dim=2, **dummy),
            FaceRecord(vertex_ids=(0, 1), dim=1, **dummy),
            FaceRecord(vertex_ids=(0, 4), dim=1, **dummy),
            FaceRecord(vertex_ids=(0, 1, 4), dim=2, **dummy),
        ]
        out = consolidate_faces(faces, pts)
        got = {f.vertex_ids for f in out}
        # The two square pieces fuse, the edge inside the square disappears,
        # and the face in the other plane survives with its own edge absorbed.
        assert got == {(0, 1, 2, 3), (0, 1, 4)}

    def test_keeps_separate_parallel_faces(self):
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 1.0]),
        ]
        dummy = dict(normals=np.array([[0.0, 1.0, 0.0]]), alpha=np.ones(1), t_star=1.0)
        faces = [
            FaceRecord(vertex_ids=(0, 1), dim=1, **dummy),
            FaceRecord(vertex_ids=(2, 3), dim=1, **dummy),
        ]
        out = consolidate_faces(faces, pts)
        assert {f.vertex_ids for f in out} == {(0, 1), (2, 3)}


def _depobj(seed):
    m = gen_random_mdp(seed, 5, 3, 4)
    r = m.r.copy()
    r[:, :, -1] = r[:, :, :2].mean(axis=2)
    return Mdp(P=m.P, r=r, gamma=m.gamma, mu=m.mu)


RAW_FACE_SOURCES = {
    "dense-D3": lambda: gen_random_mdp(0, 6, 4, 3),
    "dense-D4": lambda: gen_random_mdp(2, 4, 3, 4),
    "dense-D5": lambda: gen_random_mdp(1, 4, 4, 5),
    "dupact": lambda: duplicate_action(gen_random_mdp(3, 4, 3, 3)),
    "gamma0": lambda: gen_random_mdp(1, 4, 3, 4, gamma=0.0),
    "depobj": lambda: _depobj(1),
    "grid-2x2": lambda: gen_gridworld(2, 2, 2, 3),
}


def _search_module():
    # The package rebinds the name `search` to the function, so the module is
    # fetched by its import path.
    return importlib.import_module("momdp_pareto.search")


@pytest.fixture(scope="module")
def raw_face_lists():
    """The face lists `search` hands to `consolidate_faces`, per instance."""
    module = _search_module()
    original = module.consolidate_faces
    lists = {}
    for name, build in RAW_FACE_SOURCES.items():
        captured = []

        def capture(faces, scaled):
            captured.append((list(faces), list(scaled)))
            return original(faces, scaled)

        module.consolidate_faces = capture
        try:
            search(build(), SearchConfig(seed=0))
        finally:
            module.consolidate_faces = original
        lists[name] = captured[0]
    return lists


def _same_pairs(faces):
    """Distinct pairs of faces that share a vertex and a dimension."""
    return {
        (i, j)
        for i, f in enumerate(faces)
        for j in range(i + 1, len(faces))
        if f.dim == faces[j].dim and set(f.vertex_ids) & set(faces[j].vertex_ids)
    }


class TestConsolidationScreen:
    """`consolidate_faces`' screen and by-vertex nesting index against the
    union SVD on every pair and the all-pairs nesting scan."""

    @staticmethod
    def counting_svds(monkeypatch):
        module = _search_module()
        calls = {"union": 0, "basis": 0}
        union, basis = module.affine_dimension, module.affine_basis

        def count_union(points, *args, **kwargs):
            calls["union"] += 1
            return union(points, *args, **kwargs)

        def count_basis(points, k):
            calls["basis"] += 1
            return basis(points, k)

        monkeypatch.setattr(module, "affine_dimension", count_union)
        monkeypatch.setattr(module, "affine_basis", count_basis)
        return calls

    @pytest.mark.parametrize("name", sorted(RAW_FACE_SOURCES))
    def test_same_output_as_union_svd_on_every_pair(self, raw_face_lists, name, monkeypatch):
        faces, scaled = raw_face_lists[name]
        want = pairwise_consolidate_faces(faces, scaled)
        calls = self.counting_svds(monkeypatch)
        got = consolidate_faces(faces, scaled)
        assert [f.vertex_ids for f in got] == [f.vertex_ids for f in want]
        assert all(f is g or f.normals is g.normals for f, g in zip(got, want))
        # One basis per face at most, and at most one union SVD per pair.
        assert calls["basis"] <= len(faces)
        assert calls["union"] <= len(_same_pairs(faces))

    def test_each_pair_tested_once(self, monkeypatch):
        """Four triangles share vertex 0, two of them coplanar; two pairs
        also share a second vertex."""
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.array([0.0, -1.0, 1.0]),
        ]
        dummy = dict(normals=np.ones((1, 3)), alpha=np.ones(1), t_star=1.0)
        faces = [
            FaceRecord(vertex_ids=(0, 1, 2), dim=2, **dummy),
            FaceRecord(vertex_ids=(0, 2, 3), dim=2, **dummy),
            FaceRecord(vertex_ids=(0, 1, 4), dim=2, **dummy),
            FaceRecord(vertex_ids=(0, 4, 5), dim=2, **dummy),
        ]
        helpers = importlib.import_module("helpers")
        reference_calls = []
        union = helpers.affine_dimension

        def count_reference(points, *args, **kwargs):
            reference_calls.append(1)
            return union(points, *args, **kwargs)

        monkeypatch.setattr(helpers, "affine_dimension", count_reference)
        want = pairwise_consolidate_faces(faces, pts)
        calls = self.counting_svds(monkeypatch)
        got = consolidate_faces(faces, pts)
        assert [f.vertex_ids for f in got] == [(0, 1, 2, 3), (0, 1, 4), (0, 4, 5)]
        assert [f.vertex_ids for f in got] == [f.vertex_ids for f in want]
        # The reference runs the union SVD on each of the six pairs, and again
        # on the two pairs that share a second vertex. Only the coplanar pair
        # reaches it here; the screen settles the other five.
        assert len(reference_calls) == 8
        assert calls["union"] == 1

    @staticmethod
    def tilted_pair(height):
        """Two triangles sharing the edge 1-2; the second's far corner sits
        `height` above the first's plane."""
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([1.0, 1.0, height]),
        ]
        dummy = dict(normals=np.ones((1, 3)), alpha=np.ones(1), t_star=1.0)
        faces = [
            FaceRecord(vertex_ids=(0, 1, 2), dim=2, **dummy),
            FaceRecord(vertex_ids=(1, 2, 3), dim=2, **dummy),
        ]
        basis = affine_basis(np.array(pts[:3]), 2)
        off, dist = basis.distances(np.array(pts[1:]))
        reach = max(dist.max(), basis.radius)
        cut = _coplanar_cut(basis, np.array([3]), np.array([reach]))[0]
        return faces, pts, off.max(), cut

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_pair_either_side_of_the_cut(self, side, monkeypatch):
        _, _, _, cut = self.tilted_pair(0.0)
        faces, pts, residual, new_cut = self.tilted_pair(cut * (1.5 if side == "above" else 0.5))
        assert (residual > new_cut) == (side == "above")
        calls = self.counting_svds(monkeypatch)
        got = consolidate_faces(faces, pts)
        # Above the cut the screen settles the pair; below it the union SVD
        # does. Either way the corner is far above the 1e-9 relative cut of
        # `affine_dimension`, so the pair stays apart.
        assert calls["union"] == (0 if side == "above" else 1)
        assert [f.vertex_ids for f in got] == [(0, 1, 2), (1, 2, 3)]
        assert [f.vertex_ids for f in got] == [
            f.vertex_ids for f in pairwise_consolidate_faces(faces, pts)
        ]

    @pytest.mark.parametrize("height", [0.0, 1e-13, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6])
    def test_heights_around_both_cuts_match_the_union_svd(self, height):
        faces, pts, _, _ = self.tilted_pair(height)
        got = consolidate_faces(faces, pts)
        want = pairwise_consolidate_faces(faces, pts)
        assert [f.vertex_ids for f in got] == [f.vertex_ids for f in want]


def test_search_config_defaults():
    cfg = SearchConfig()
    assert cfg.seed == 0
    assert cfg.thread_count == 1
    assert cfg.eps_equal == cfg.eps_geom == cfg.eps_pos == 1e-9
    assert cfg.initial_policy is None


BAD_TOLERANCES = [float("nan"), float("inf"), -float("inf"), -0.5, -1e-300, "1e-9", None]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
@pytest.mark.parametrize("name", ["eps_equal", "eps_geom", "eps_pos"])
def test_search_config_rejects_bad_tolerances(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got "):
        SearchConfig(**{name: value})


@pytest.mark.parametrize("value", [0, -2])
def test_search_config_rejects_thread_counts_below_one(value):
    with pytest.raises(ValueError, match=f"^thread_count must be an int >= 1, got {value}$"):
        SearchConfig(thread_count=value)


def test_search_config_accepts_zero_tolerances():
    cfg = SearchConfig(eps_equal=0.0, eps_geom=0, eps_pos=np.float64(0.0))
    assert cfg.eps_equal == cfg.eps_geom == cfg.eps_pos == 0.0


def test_nan_eps_equal_is_refused_before_searching():
    """A NaN eps_equal matches no vertex, so search kept adding the same
    returns as new vertices without end; the config now refuses it."""
    with pytest.raises(ValueError, match="eps_equal"):
        search(gen_random_mdp(0, 4, 3, 3), SearchConfig(eps_equal=float("nan")))


@pytest.mark.parametrize("solver", ["search", "oracle"])
def test_face_work_counts_match_the_calls(solver, monkeypatch):
    """`lps_solved` counts `pareto_lp` calls. The face descents take no
    SVD: every `geometry.affine_dimension` call is the one each
    `convex_hull` makes."""
    search_module = importlib.import_module("momdp_pareto.search")
    oracle_module = importlib.import_module("momdp_pareto.oracle")
    calls = {"lp": 0, "svd": 0, "hull": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(search_module, "pareto_lp", counted("lp", search_module.pareto_lp))
    monkeypatch.setattr(geometry, "affine_dimension", counted("svd", geometry.affine_dimension))
    for module in (search_module, oracle_module):
        monkeypatch.setattr(module, "convex_hull", counted("hull", module.convex_hull))
    run = search if solver == "search" else oracle_module.brute_force_front
    stats = run(gen_random_mdp(1, 4, 3, 5)).stats
    assert not stats.warnings
    assert stats.lps_solved == calls["lp"] > 0
    assert calls["svd"] == calls["hull"] > 0


@pytest.fixture(scope="module")
def local_hulls_d5():
    """Local hulls around the first few front vertices of a D=5 instance: each
    vertex's scaled return (point 0) and its incomparable, non-dominated
    one-change neighbors, as `explore_vertex` builds them."""
    m = gen_random_mdp(1, 4, 4, 5)
    scale = return_scale(m)
    front = search(m, SearchConfig(seed=0))
    hulls = []
    for v in front.vertices[:6]:
        apex = v.ret * scale
        near = [
            long_term_return(m, p) * scale for p in neighbors_one(v.policy, 4)
        ]
        near = [
            x for x in near if dominance(x, apex, 1e-9) is Dominance.INCOMPARABLE
        ]
        near = [near[i] for i in pprune(np.array(near))]
        hulls.append(convex_hull(np.vstack([apex] + near)))
    return hulls


class TestFaceSelectionScreen:
    def test_same_faces_as_an_lp_on_every_face(self, local_hulls_d5):
        """The reference solves the LP on every face it meets and then keeps
        the passing faces that lie strictly inside no other passing face.
        The descent must return exactly those, with bit-identical defining
        normals and certificates, and every passing face it skipped must lie
        strictly inside one it returned."""
        total_passing = total_dropped = 0
        for hull in local_hulls_d5:
            got, on_front = select_pareto_faces(0, hull)
            ref, _ = faces_by_lp_everywhere(0, hull)
            sets = [set(f.vertex_ids) for f in ref]
            kept = [f for f, s in zip(ref, sets) if not any(s < t for t in sets)]
            assert len(got) == len(kept)
            for face, want in zip(got, kept):
                assert face.vertex_ids == want.vertex_ids
                assert face.dim == want.dim
                assert face.normals.shape == want.normals.shape
                assert face.normals.tobytes() == want.normals.tobytes()
                assert face.alpha.tobytes() == want.alpha.tobytes()
                assert face.t_star == want.t_star
            returned = {f.vertex_ids for f in got}
            dropped = [f for f in ref if f.vertex_ids not in returned]
            for f in dropped:
                assert any(set(f.vertex_ids) < set(g.vertex_ids) for g in got)
            assert on_front == sorted({v for f in ref for v in f.vertex_ids})
            assert on_front == sorted({v for f in got for v in f.vertex_ids})
            total_passing += len(got)
            total_dropped += len(dropped)
        assert total_passing > 0 and total_dropped > 0

    def test_screen_skips_lps(self, local_hulls_d5, monkeypatch):
        # The package rebinds the name `search` to the function, so the module
        # is fetched by its import path.
        search_module = importlib.import_module("momdp_pareto.search")
        original = search_module.pareto_lp
        calls = []

        def counting(normals):
            calls.append(1)
            return original(normals)

        monkeypatch.setattr(search_module, "pareto_lp", counting)
        tested = 0
        for shared in local_hulls_d5:
            # A fresh hull, so no certificate is memoized on it yet.
            hull = convex_hull(shared.points)
            select_pareto_faces(0, hull)
            tested += faces_by_lp_everywhere(0, hull)[1]
        assert 0 < len(calls) < tested


def subface_instances():
    """(MDP builder, solvers) by name for every golden instance and every
    benchmark instance. The oracle runs on the golden instances within its
    default cap, and on the benchmark instances the benchmark runs it on,
    except where it is known to raise before building a hull."""
    out = {}
    for name, build in GOLDEN_INSTANCES.items():
        mdp = build()
        within_cap = mdp.num_actions**mdp.num_states <= 1_000_000
        out[f"golden-{name}"] = (build, (search, brute_force_front) if within_cap else (search,))
    for inst in benchmark_instances():
        raises = (inst.known_oracle_defect or "").startswith("raised")
        runs_oracle = "oracle" in inst.ops and not raises
        out[f"bench-{inst.name}"] = (
            inst.build, (search, brute_force_front) if runs_oracle else (search,)
        )
    return out


SUBFACE_INSTANCES = subface_instances()
# Every local return set of this instance is too flat for a hull, even
# jittered, and its oracle raises, so no descent runs on it.
NO_DESCENT = {"bench-depobj-S5-A3-D4-s1"}


@pytest.mark.parametrize("name", sorted(SUBFACE_INSTANCES))
def test_lattice_subfaces_equal_the_svd_rule(name, monkeypatch):
    """At every call of the descent, on every local hull of search and on
    the oracle's hull, `subfaces_at` returns the children the SVD rule
    returns, in the same order; the dimension handed to each call is its
    face's affine dimension, and each child's is one less."""
    module = _search_module()
    lattice = module.subfaces_at
    children = []

    def checked(mask, dim, hull, apex_id):
        got = lattice(mask, dim, hull, apex_id)
        assert got == svd_subfaces_at(mask, hull, apex_id)
        assert affine_dimension(hull.points[mask_ids(mask)]) == dim
        for child in got:
            assert affine_dimension(hull.points[mask_ids(child)]) == dim - 1
        children.extend(got)
        return got

    monkeypatch.setattr(module, "subfaces_at", checked)
    build, solvers = SUBFACE_INSTANCES[name]
    for solver in solvers:
        solver(build())
    assert children or name in NO_DESCENT


def test_policy_key_is_a_tuple_of_python_ints():
    key = _policy_key(np.array([0, 3, 1], dtype=np.int64))
    assert key == (0, 3, 1)
    assert all(type(a) is int for a in key)


class TestLocalHullFallbacks:
    """`_local_pareto_faces` builds the hull first and reads the affine
    dimension from a failure: a flat set is jittered and tried again, a
    full-dimensional set that Qhull refused goes straight to direct tests."""

    JITTER = (
        "vertex 7: local returns span dimension {} < 3; jitter applied before hull construction"
    )
    DIRECT = "vertex 7: hull construction degenerate; testing faces directly instead"

    def run(self, monkeypatch, failures):
        """Call `_local_pareto_faces` on five points in D=3 with its first
        hull builds raising `DegenerateHullError` with the given affine
        dimensions; returns the warnings, the points each hull build got and
        the points the direct tests got."""
        module = _search_module()
        build, direct = module.convex_hull, module.support_faces
        built, tested = [], []

        def scripted_hull(points, **kwargs):
            built.append(points)
            if len(built) <= len(failures):
                raise geometry.DegenerateHullError("scripted", failures[len(built) - 1])
            return build(points, **kwargs)

        def recording_direct(points, apex, eps_pos):
            tested.append(points)
            return direct(points, apex, eps_pos)

        monkeypatch.setattr(module, "convex_hull", scripted_hull)
        monkeypatch.setattr(module, "support_faces", recording_direct)
        ctx = make_context(gen_random_mdp(0, 4, 3, 3))
        vertex = VertexRecord(
            id=7, policy=np.zeros(4, dtype=np.int64), co_policies=[], ret=np.zeros(3)
        )
        pts = np.array(
            [[1.0, 1.0, 1.0], [0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0], [0.2, 0.2, 0.2]]
        )
        module._local_pareto_faces(ctx, vertex, pts)
        return ctx.stats.warnings, built, tested, pts

    def test_qhull_failure_on_full_dimensional_set(self, monkeypatch):
        warnings, built, tested, pts = self.run(monkeypatch, [3])
        assert warnings == [self.DIRECT]
        assert len(built) == 1 and tested[0] is pts

    def test_flat_set_jittered_hull(self, monkeypatch):
        warnings, built, tested, pts = self.run(monkeypatch, [2])
        assert warnings == [self.JITTER.format(2)]
        assert built[0] is pts
        assert built[1].tobytes() == geometry.deterministic_jitter(pts).tobytes()
        assert tested == []

    def test_flat_set_jitter_fails_too(self, monkeypatch):
        warnings, built, tested, pts = self.run(monkeypatch, [0, 0])
        assert warnings == [self.JITTER.format(0), self.DIRECT]
        assert len(built) == 2 and tested[0] is pts

    def test_dependent_objectives_warn_in_pairs(self):
        """Every vertex of this front has flat local returns whose jittered
        hull fails as well, so its warnings come in pairs, in vertex order."""
        front = search(_depobj(1))
        want = []
        for vid in range(11):
            want += [
                f"vertex {vid}: local returns span dimension 3 < 4; "
                "jitter applied before hull construction",
                f"vertex {vid}: hull construction degenerate; testing faces directly instead",
            ]
        assert front.stats.warnings == want
