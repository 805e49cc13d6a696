import importlib

import numpy as np
import pytest

from momdp_pareto import (
    FaceRecord,
    Mdp,
    SearchAbortError,
    SearchConfig,
    brute_force_front,
    compare_fronts,
    gen_random_mdp,
    long_term_return,
    policies_on_face,
    search,
)
from momdp_pareto import geometry
from momdp_pareto.geometry import convex_hull, dominance, Dominance, pprune
from momdp_pareto.mdp import enumerate_deterministic, neighbors_one
from momdp_pareto.search import (
    _add_vertex,
    _policy_key,
    consolidate_faces,
    explore_vertex,
    make_context,
    return_scale,
    select_pareto_faces,
)

from helpers import faces_by_lp_everywhere, make_bandit


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


def test_search_config_defaults():
    cfg = SearchConfig()
    assert cfg.seed == 0
    assert cfg.thread_count == 1
    assert cfg.eps_equal == cfg.eps_geom == cfg.eps_pos == 1e-9
    assert cfg.initial_policy is None


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
        hulls.append(convex_hull(np.vstack([apex] + near), apex_id=0))
    return hulls


class TestFaceSelectionScreen:
    def test_same_faces_as_an_lp_on_every_face(self, local_hulls_d5):
        total_passing = 0
        for hull in local_hulls_d5:
            got, on_front = select_pareto_faces(0, hull)
            ref, _ = faces_by_lp_everywhere(0, hull)
            assert len(got) == len(ref)
            for (fd, cert), (rfd, rcert) in zip(got, ref):
                assert fd.vertex_ids == rfd.vertex_ids
                assert fd.defining_facets == rfd.defining_facets
                assert fd.dim == rfd.dim
                assert cert.alpha.tobytes() == rcert.alpha.tobytes()
                assert cert.t_star == rcert.t_star
            assert on_front == sorted({v for fd, _ in ref for v in fd.vertex_ids})
            total_passing += len(got)
        assert total_passing > 0

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
        for hull in local_hulls_d5:
            select_pareto_faces(0, hull)
            tested += faces_by_lp_everywhere(0, hull)[1]
        assert 0 < len(calls) < tested

    def test_each_vertex_set_measured_once(self, local_hulls_d5, monkeypatch):
        original = geometry.affine_dimension
        calls = []

        def counting(points, *args, **kwargs):
            calls.append(1)
            return original(points, *args, **kwargs)

        monkeypatch.setattr(geometry, "affine_dimension", counting)
        measured = 0
        for shared in local_hulls_d5:
            # A fresh hull, so its memo starts empty.
            hull = convex_hull(shared.points, apex_id=0)
            calls.clear()
            first, _ = select_pareto_faces(0, hull)
            assert len(calls) == len(hull.dims)
            for vids, dim in hull.dims.items():
                assert dim == original(hull.points[list(vids)])
            measured += len(hull.dims)
            # A second descent on the same hull measures nothing again.
            again, _ = select_pareto_faces(0, hull)
            assert len(calls) == len(hull.dims)
            assert [fd for fd, _ in again] == [fd for fd, _ in first]
        assert measured > 0


def test_policy_key_is_a_tuple_of_python_ints():
    key = _policy_key(np.array([0, 3, 1], dtype=np.int64))
    assert key == (0, 3, 1)
    assert all(type(a) is int for a in key)
