import dataclasses
import importlib
import re
from collections import deque

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
from momdp_pareto import geometry, oracle
from momdp_pareto.geometry import (
    Dominance,
    affine_dimension,
    convex_hull,
    dominance,
    exposed_sets,
    incident_facets,
    mask_ids,
    pprune,
)
from momdp_pareto.mdp import deterministic_returns, enumerate_deterministic, neighbors_one
from momdp_pareto.search import (
    _add_vertex,
    _find_vertex,
    _policy_keys,
    consolidate_faces,
    explore_vertex,
    make_context,
    return_scale,
    select_pareto_faces,
)

from helpers import (
    apex_masks,
    benchmark_instances,
    degenerate_instances,
    duplicate_action,
    faces_by_lp_everywhere,
    loop_dominance,
    loop_find_vertex,
    make_bandit,
    pairwise_consolidate_faces,
    pairwise_subfaces_at,
    passes_sign_screen,
    piecewise_consolidate_faces,
    piecewise_exposed_sets,
    svd_subfaces_at,
)
from test_golden import INSTANCES as GOLDEN_INSTANCES


def start_at(monkeypatch, arm: int) -> None:
    """Make the planner start `search` at the given arm of a bandit."""
    monkeypatch.setattr(
        _search_module(), "solve_scalarized", lambda mdp, w: np.array([arm], dtype=np.int64)
    )


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

    def test_same_front_from_either_starting_arm(self, bandit3, monkeypatch):
        fronts = []
        for arm in (0, 1):
            start_at(monkeypatch, arm)
            fronts.append(search(bandit3, SearchConfig(seed=0)))
        assert compare_fronts(*fronts).match


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

    def test_single_action(self):
        """With one action a vertex has no neighbors, so the one policy is
        the only vertex and there are no faces."""
        m = gen_random_mdp(0, 3, 1, 3)
        front = search(m)
        assert len(front.vertices) == 1
        assert front.faces == []
        assert compare_fronts(front, brute_force_front(m)).match


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
    def test_dominated_start_names_a_better_neighbor(self, monkeypatch):
        m = make_bandit(np.array([[0.0, 0.0], [1.0, 1.0]]))
        start_at(monkeypatch, 0)
        with pytest.raises(SearchAbortError) as err:
            search(m, SearchConfig(seed=0))
        assert "dominat" in str(err.value)

    def test_first_dominating_neighbor_is_named(self, monkeypatch):
        """The start arm's neighbors are an equal arm, a dominated one and
        two that dominate it; the abort names the first of those two."""
        m = make_bandit(np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        start_at(monkeypatch, 0)
        with pytest.raises(
            SearchAbortError,
            match=r"vertex 0 \(actions \[0\]\) is strictly dominated by its neighbor with actions \[3\];",
        ):
            search(m, SearchConfig(seed=0))

    def test_interior_start_aborts(self, monkeypatch):
        # The first arm sits midway on the segment joining (1,0) and (0,1):
        # no single neighbor dominates it, yet it is not extreme.
        arms = np.array(
            [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.7, 0.35], [0.35, 0.7]]
        )
        m = make_bandit(arms)
        start_at(monkeypatch, 0)
        with pytest.raises(SearchAbortError):
            search(m, SearchConfig(seed=0))


class TestVisitedCache:
    def test_reexploration_evaluates_nothing_new(self, bandit3):
        ctx = make_context(bandit3, SearchConfig(seed=0))
        pol = np.array([0], dtype=np.int64)
        ctx.z[_policy_keys(pol)[0]] = long_term_return(bandit3, pol)
        ctx.stats.policies_evaluated += 1
        _add_vertex(ctx, pol, ctx.z[_policy_keys(pol)[0]], [])
        explore_vertex(ctx, ctx.vertices[0])
        count = ctx.stats.policies_evaluated
        faces, verts = explore_vertex(ctx, ctx.vertices[0])
        assert ctx.stats.policies_evaluated == count
        assert faces == [] and verts == []


class TestFindVertex:
    def test_first_of_two_matches(self, bandit3):
        """Vertices 1 and 2 both lie within EPS_EQUAL of the probe; the
        lookup names the smaller id, as the row-by-row scan does."""
        ctx = make_context(bandit3, SearchConfig(seed=0))
        eps = geometry.EPS_EQUAL
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
            want = loop_find_vertex(ctx.scaled, probe, geometry.EPS_EQUAL)
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


KEY_SOURCES = {
    "dense-D3": lambda: gen_random_mdp(0, 6, 4, 3),
    "dense-D5": lambda: gen_random_mdp(1, 4, 4, 5),
    "dupact": lambda: duplicate_action(gen_random_mdp(3, 4, 3, 3)),
    "depobj": lambda: _depobj(1),
    "grid-2x3": lambda: gen_gridworld(1, 2, 3, 3),
}


class TestVertexKeys:
    """`explore_vertex` looks a local point up by its first policy's key in
    `SearchContext.vertex_of`, and scans the vertex returns only on a miss."""

    @pytest.mark.parametrize("name", sorted(KEY_SOURCES))
    def test_every_key_hit_equals_the_scan(self, name, monkeypatch):
        """Each hit names the vertex that the row-by-row scan of the scaled
        returns names, and only each vertex's own policy is keyed, never a
        co-policy."""
        ctx = None
        hits = []

        class SpyKeys(dict):
            def get(self, key, default=None):
                vid = super().get(key, default)
                if vid is not None:
                    point = ctx.z[key] * ctx.scale
                    assert vid == loop_find_vertex(ctx.scaled, point, geometry.EPS_EQUAL)
                    hits.append(vid)
                return vid

        def spying_context(mdp, config=None):
            nonlocal ctx
            ctx = make_context(mdp, config)
            ctx.vertex_of = SpyKeys()
            return ctx

        monkeypatch.setattr(_search_module(), "make_context", spying_context)
        front = search(KEY_SOURCES[name]())
        assert hits
        assert ctx.vertex_of == {v.policy.tobytes(): v.id for v in front.vertices}
        if name == "dupact":
            assert any(v.co_policies for v in front.vertices)

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_random_mdp(0, 8, 4, 5), KEY_SOURCES["dupact"]],
        ids=["dense-S8-A4-D5", "dupact"],
    )
    def test_only_new_vertices_are_scanned(self, build):
        """On these fronts every known vertex is found by its key, so each
        scan admits a vertex; the start vertex is admitted without one."""
        front = search(build())
        assert front.stats.vertex_scans == len(front.vertices) - 1


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

    def test_nan_weights_rejected(self, mdp433):
        """They used to give a return of NaNs."""
        front = search(mdp433)
        assert len(front.faces[0].vertex_ids) == 2
        with pytest.raises(ValueError, match="^mixture weights must be nonnegative, got min nan$"):
            policies_on_face(mdp433, front, 0, [np.nan, np.nan])

    @pytest.mark.parametrize("action", [-1, 1.5, 7])
    def test_bad_vertex_action_names_it(self, mdp433, action):
        """-1 used to be mixed in as action A - 1, 1.5 truncated to 1, and
        7 raised a bare IndexError."""
        front = search(mdp433)
        face = front.faces[0]
        vid = face.vertex_ids[-1]
        policy = front.vertices[vid].policy.tolist()
        policy[2] = action
        front.vertices[vid].policy = np.array(policy)
        weights = np.full(len(face.vertex_ids), 1.0 / len(face.vertex_ids))
        with pytest.raises(ValueError) as err:
            policies_on_face(mdp433, front, 0, weights)
        assert str(err.value) == f"vertex {vid}: action {action!r} at state 2 is not an integer in [0, 3)"


def test_return_scale_formula():
    m = gen_random_mdp(0, 3, 2, 2)
    assert return_scale(m) == pytest.approx(
        (1 - m.gamma) / max(1.0, np.abs(m.r).max())
    )


def piece(vertex_ids, dim, *normals):
    """A face piece whose certificate weighs the given normals equally."""
    normals = np.array(normals, dtype=float)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    alpha = np.full(len(normals), 1.0 / len(normals))
    return FaceRecord(vertex_ids, dim, normals, alpha, float((alpha @ normals).min()))


def square_pyramid():
    """The unit square at z = 0 (points 0-3) and a point above corner 0."""
    return [
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
    ]


class TestConsolidateFaces:
    """Every piece carries a weight that supports the point set and scores
    the piece's vertices at its maximum, as a certificate of `search` does."""

    def test_merges_coplanar_pieces_and_drops_nested(self):
        pts = square_pyramid()
        faces = [
            # Two halves of the square, each with the square's own weight.
            piece((0, 1, 2), 2, (0, 0, -1)),
            piece((0, 2, 3), 2, (0, 0, -1)),
            # The edge 0-1 between the square and the side y = 0.
            piece((0, 1), 1, (0, -1, 0), (0, 0, -1)),
            piece((0, 4), 1, (-1, -1, 0)),
            piece((0, 1, 4), 2, (0, -1, 0)),
        ]
        out = consolidate_faces(faces, pts)
        # The two square pieces fuse, the edge inside the square disappears,
        # and the face in the other plane survives with its own edge absorbed.
        assert [f.vertex_ids for f in out] == [(0, 1, 2, 3), (0, 1, 4)]
        # The first piece's certificate becomes the square's; a piece that
        # is its whole face is kept as it is.
        assert out[0].normals is faces[0].normals and out[0].dim == 2
        assert out[1] is faces[4]

    def test_keeps_separate_parallel_faces(self):
        """The two parallel sides of a flat square, each exposed from its
        own side."""
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 1.0]),
        ]
        faces = [piece((0, 1), 1, (0, 0, -1)), piece((2, 3), 1, (0, 0, 1))]
        out = consolidate_faces(faces, pts)
        assert [f.vertex_ids for f in out] == [(0, 1), (2, 3)]
        assert out[0] is faces[0] and out[1] is faces[1]

    def test_piece_its_certificate_does_not_expose_aborts(self):
        pts = square_pyramid()
        faces = [piece((0, 1), 1, (0, 0, -1)), piece((0, 1, 4), 2, (0, 0, -1))]
        with pytest.raises(SearchAbortError, match=r"face piece 1 on vertices \(0, 1, 4\)"):
            consolidate_faces(faces, pts)

    def test_piece_whose_certificate_scores_nan_aborts(self):
        """A NaN score ties no vertex with the maximum, so the piece's own
        vertices are not exposed; the per-piece rule read its key as ()."""
        pts = square_pyramid()
        faces = [piece((0, 1), 1, (0, -1, 0)), piece((0, 1, 2, 3), 2, (0, 0, -1))]
        assert [f.vertex_ids for f in consolidate_faces(faces, pts)] == [(0, 1, 4), (0, 1, 2, 3)]
        faces[1].alpha = np.array([np.nan])
        with pytest.raises(SearchAbortError, match=r"face piece 1 on vertices \(0, 1, 2, 3\)"):
            consolidate_faces(faces, pts)

    def test_no_svd(self, raw_face_lists, monkeypatch):
        """`consolidate_faces` decides by its certificates' scores; it takes
        no `affine_dimension` at any binding."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return affine_dimension(*args, **kwargs)

        monkeypatch.setattr(_search_module(), "affine_dimension", spy)
        monkeypatch.setattr(geometry, "affine_dimension", spy)
        lists = raw_face_lists.values()
        merged = sum(len(consolidate_faces(faces, scaled)) for faces, scaled in lists)
        assert merged < sum(len(faces) for faces, _ in lists)
        assert calls == []


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
    **{f"golden-{name}": build for name, build in GOLDEN_INSTANCES.items()},
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


class TestConsolidationScreen:
    """`consolidate_faces`' exposed-set rule against the union SVD on every
    vertex-sharing pair and the all-pairs nesting scan
    (`pairwise_consolidate_faces`)."""

    @pytest.mark.parametrize("name", sorted(RAW_FACE_SOURCES))
    def test_same_output_as_union_svd_on_every_pair(self, raw_face_lists, name):
        faces, scaled = raw_face_lists[name]
        want = pairwise_consolidate_faces(faces, scaled)
        got = consolidate_faces(faces, scaled)
        assert [f.vertex_ids for f in got] == [f.vertex_ids for f in want]
        assert all(f is g or f.normals is g.normals for f, g in zip(got, want))
        assert [f.dim for f in got] == [f.dim for f in want]

    @pytest.mark.parametrize("name", sorted(RAW_FACE_SOURCES))
    def test_each_certificate_exposes_its_face(self, raw_face_lists, name):
        """The locality property the rule rests on: over all front vertices,
        each raw piece's certificate scores the piece's own vertices within
        1e-12 of its maximum, and the vertices it scores within eps_geom of
        its maximum are exactly one consolidated face."""
        faces, scaled = raw_face_lists[name]
        pts = np.asarray(scaled)
        tol = 1e-9 * max(1.0, np.abs(pts).max())
        merged = {f.vertex_ids for f in consolidate_faces(faces, scaled)}
        for f in faces:
            score = pts @ (f.alpha @ f.normals)
            assert score.max() - score[list(f.vertex_ids)].min() <= 1e-12
            tied = tuple(np.flatnonzero(score >= score.max() - tol).tolist())
            assert set(f.vertex_ids) <= set(tied) and tied in merged

    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("name", sorted(RAW_FACE_SOURCES))
    def test_blocked_scores_equal_the_per_piece_rule(
        self, raw_face_lists, name, block_rows, monkeypatch
    ):
        """Scoring the pieces in blocks of at most block_rows**2 cells (one
        piece per block, or a few) keys every piece as one matrix-vector
        product per piece does, and gives the same faces."""
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block_rows)
        faces, scaled = raw_face_lists[name]
        pts = np.asarray(scaled)
        tol = 1e-9 * max(1.0, np.abs(pts).max())
        certs = np.array([f.alpha @ f.normals for f in faces])
        assert list(exposed_sets(certs, pts, tol)) == piecewise_exposed_sets(faces, scaled)
        got = consolidate_faces(faces, scaled)
        want = piecewise_consolidate_faces(faces, scaled)
        assert [f.vertex_ids for f in got] == [f.vertex_ids for f in want]
        assert all(f is g or f.normals is g.normals for f, g in zip(got, want))

    @staticmethod
    def tilted_pair(height):
        """Two triangles sharing the edge 1-2, each with its outward normal;
        the second's far corner sits `height` above the first's plane."""
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([1.0, 1.0, height]),
        ]
        faces = [piece((0, 1, 2), 2, (0, 0, -1)), piece((1, 2, 3), 2, (height, height, -1))]
        return faces, pts

    @pytest.mark.parametrize("height", [0.0, 1e-13, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6])
    def test_heights_around_both_cuts_match_the_union_svd(self, height):
        """Far from 1e-9, the union SVD's relative cut and the rule's
        eps_geom tie agree. Near it the two cuts differ in how they measure
        the corner's height, so there the rule's own threshold is pinned:
        a corner within eps_geom of the other piece's plane joins the face."""
        faces, pts = self.tilted_pair(height)
        got = [f.vertex_ids for f in consolidate_faces(faces, pts)]
        if height <= 1e-11 or height >= 1e-8:
            want = pairwise_consolidate_faces(faces, pts)
            assert got == [f.vertex_ids for f in want]
        else:
            assert got == ([(0, 1, 2, 3)] if height <= 1e-9 else [(0, 1, 2), (1, 2, 3)])


def test_search_config_defaults():
    cfg = SearchConfig()
    assert cfg.seed == 0
    assert cfg.thread_count == 1
    assert geometry.EPS_EQUAL == geometry.EPS_GEOM == geometry.EPS_POS == 1e-9
    # The config reads only the positivity threshold, for the benchmark
    # tracer; search reads the geometry's constants directly.
    assert cfg.eps_pos == geometry.EPS_POS
    assert not hasattr(cfg, "eps_equal") and not hasattr(cfg, "eps_geom")


def test_search_config_fields_are_seed_and_thread_count():
    """The tolerances are fixed: class attributes, not fields, so they are
    not arguments either."""
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["seed", "thread_count"]
    for name in ("eps_equal", "eps_geom", "eps_pos"):
        with pytest.raises(TypeError, match=name):
            SearchConfig(**{name: 1e-7})


@pytest.mark.parametrize("value", [-1, 1.5, "0", None])
def test_search_config_rejects_bad_seeds(value):
    """A negative seed used to raise numpy's "expected non-negative integer",
    and seed 1.5 a TypeError, both only once `search` ran."""
    message = rf"^seed must be an int >= 0, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SearchConfig(seed=value)


@pytest.mark.parametrize("value", [0, -2])
def test_search_config_rejects_thread_counts_below_one(value):
    with pytest.raises(ValueError, match=f"^thread_count must be an int >= 1, got {value}$"):
        SearchConfig(thread_count=value)


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


    def test_bitmask_verdict_equals_the_sign_screen(self, local_hulls_d5, monkeypatch):
        """For every face the descent dequeues and decides, it looks up a
        certificate exactly when `passes_sign_screen` passes the face's
        defining normals: on the D=5 local hulls and on every local hull of
        search on the golden instances."""
        module = _search_module()
        build = module.convex_hull
        hulls = list(local_hulls_d5)

        def keeping(*args, **kwargs):
            hulls.append(build(*args, **kwargs))
            return hulls[-1]

        monkeypatch.setattr(module, "convex_hull", keeping)
        for make in GOLDEN_INSTANCES.values():
            search(make())
        dequeued, asked = [], []

        class Recording(deque):
            def popleft(self):
                dequeued.append(super().popleft())
                return dequeued[-1]

        class Asking(dict):
            def get(self, key, default=None):
                asked.append(key)
                return super().get(key, default)

        monkeypatch.setattr(module, "deque", Recording)
        verdicts = []
        for hull in hulls:
            dequeued.clear()
            asked.clear()
            object.__setattr__(hull, "certificates", Asking())
            got, _ = select_pareto_faces(0, hull)
            passed = [sum(1 << i for i in f.vertex_ids) for f in got]
            apex_facets = incident_facets(hull, 0)
            expected = []
            for mask in dequeued:
                if any(mask & p == mask != p for p in passed):
                    continue
                defining = tuple(fi for fi in apex_facets if mask & hull.facet_masks[fi] == mask)
                verdicts.append(passes_sign_screen(hull.normals[list(defining)], 1e-9))
                if verdicts[-1]:
                    expected.append(defining)
            assert asked == expected
        assert len(hulls) > len(local_hulls_d5)
        assert True in verdicts and False in verdicts


def subface_instances():
    """(MDP builder, solvers) by name for every golden instance, every
    benchmark instance and the degenerate families. The oracle runs on the
    golden instances within its default cap, on the benchmark instances the
    benchmark runs it on, and on every degenerate one."""
    out = {
        name: (build, (search, brute_force_front))
        for name, build in degenerate_instances().items()
    }
    for name, build in GOLDEN_INSTANCES.items():
        mdp = build()
        within_cap = mdp.num_actions**mdp.num_states <= 1_000_000
        out[f"golden-{name}"] = (build, (search, brute_force_front) if within_cap else (search,))
    for inst in benchmark_instances():
        out[f"bench-{inst.name}"] = (
            inst.build, (search, brute_force_front) if "oracle" in inst.ops else (search,)
        )
    return out


SUBFACE_INSTANCES = subface_instances()


@pytest.mark.parametrize("name", sorted(SUBFACE_INSTANCES))
def test_lattice_subfaces_equal_the_svd_rule(name, monkeypatch):
    """At every call of the descent, on every local hull of search and on
    the oracle's hull, `subfaces_at` gets the masks of the apex's facets in
    facet order and a face through the apex, and returns the children the
    SVD rule and the pairwise maximality filter return, in the same order,
    whether the face's vertex count makes it a simplex or not; the
    dimension handed to each call is its face's affine dimension, and each
    child's is one less. The hull and apex of each call are those of the
    `select_pareto_faces` call it runs in, in search or in the oracle."""
    module = _search_module()
    lattice, descend = module.subfaces_at, module.select_pareto_faces
    children = []
    current = []

    def descending(apex_id, hull):
        current[:] = [hull, apex_id]
        return descend(apex_id, hull)

    def checked(mask, dim, masks):
        hull, apex_id = current
        assert list(masks) == apex_masks(hull, apex_id)
        assert mask >> apex_id & 1
        got = lattice(mask, dim, masks)
        assert got == svd_subfaces_at(mask, hull, apex_id)
        assert got == pairwise_subfaces_at(mask, dim, hull, apex_id)
        assert affine_dimension(hull.points[mask_ids(mask)]) == dim
        for child in got:
            assert affine_dimension(hull.points[mask_ids(child)]) == dim - 1
        children.extend(got)
        return got

    monkeypatch.setattr(module, "subfaces_at", checked)
    monkeypatch.setattr(module, "select_pareto_faces", descending)
    monkeypatch.setattr(oracle, "select_pareto_faces", descending)
    build, solvers = SUBFACE_INSTANCES[name]
    for solver in solvers:
        solver(build())
    assert children


@pytest.mark.parametrize("name", sorted(SUBFACE_INSTANCES))
def test_neighbor_split_equals_the_row_by_row_relations(name, monkeypatch):
    """At every vertex search explores, the neighbors it prunes are exactly
    the ones `loop_dominance` calls incomparable with the apex, in index
    order, and the co-policies it records are the ones it calls equal, in
    index order, less those already recorded."""
    module = _search_module()
    explore, prune = module.explore_vertex, module.pprune
    seen = dict.fromkeys(Dominance, 0)
    pruned = []

    def recorded(points, *args):
        pruned.append(np.array(points))
        return prune(points, *args)

    def checked(ctx, vertex):
        nbrs = neighbors_one(vertex.policy, ctx.mdp.num_actions)
        x = deterministic_returns(ctx.mdp, nbrs) * ctx.scale
        rels = [loop_dominance(row, ctx.scaled[vertex.id], geometry.EPS_EQUAL) for row in x]
        known = {p.tobytes() for p in (vertex.policy, *vertex.co_policies)}
        before = len(vertex.co_policies)
        pruned.clear()
        out = explore(ctx, vertex)
        for rel in rels:
            seen[rel] += 1
        incomparable = [i for i, rel in enumerate(rels) if rel is Dominance.INCOMPARABLE]
        if incomparable:
            assert len(pruned) == 1 and np.array_equal(pruned[0], x[incomparable])
        else:
            assert pruned == []
        equal = [
            nbrs[i] for i, rel in enumerate(rels)
            if rel is Dominance.EQUAL and nbrs[i].tobytes() not in known
        ]
        assert [p.tolist() for p in vertex.co_policies[before:]] == [p.tolist() for p in equal]
        return out

    monkeypatch.setattr(module, "explore_vertex", checked)
    monkeypatch.setattr(module, "pprune", recorded)
    build, _ = SUBFACE_INSTANCES[name]
    search(build())
    assert seen[Dominance.INCOMPARABLE] and not seen[Dominance.DOMINATES]
    if "dupact" in name:
        assert seen[Dominance.EQUAL]


def test_stored_policies_are_no_views():
    """Search evaluates each vertex's neighbors as rows of one array and
    their returns as rows of another; every vertex policy, co-policy and
    return it stores is a copy, so no vertex keeps another array alive."""
    vertices = [v for make in GOLDEN_INSTANCES.values() for v in search(make()).vertices]
    stored = [p for v in vertices for p in (v.policy, *v.co_policies)]
    assert all(p.base is None and p.dtype == np.int64 for p in stored)
    assert all(v.ret.base is None for v in vertices)
    # Some instances have co-policies, so those are checked too.
    assert len(stored) > len(vertices)


def test_policy_keys_are_the_rows_int64_bytes():
    """One policy and the rows of a policy array get the same keys, their
    actions' bytes as int64, whatever integer type they come in."""
    pols = np.array([[0, 3, 1], [2, 0, 0]], dtype=np.int32)
    keys = _policy_keys(pols)
    assert keys == [row.astype(np.int64).tobytes() for row in pols]
    assert all(type(k) is bytes for k in keys)
    assert _policy_keys(pols[1]) == [keys[1]]
    assert _policy_keys(pols[:, ::-1][:, ::-1]) == keys


class TestLocalHullFallbacks:
    """`_local_pareto_faces` builds the hull first; a set that Qhull refuses
    is closed off below and built again, and a set refused even then stops
    the search."""

    def run(self, monkeypatch, failures, pts):
        """Call `_local_pareto_faces` on points in D=3 with its first
        `failures` hull builds raising `DegenerateHullError`; returns the
        warnings, the faces as (vertex ids, dim), the points each hull build
        got and the points the direct tests got."""
        module = _search_module()
        build, direct = module.convex_hull, module.support_faces
        built, tested = [], []

        def scripted_hull(points, **kwargs):
            built.append(points)
            if len(built) <= failures:
                raise geometry.DegenerateHullError("scripted")
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
        faces = module._local_pareto_faces(ctx, vertex, pts)
        return ctx.stats.warnings, [(f.vertex_ids, f.dim) for f in faces], built, tested

    SPREAD = np.array(
        [[1.0, 1.0, 1.0], [0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0], [0.2, 0.2, 0.2]]
    )
    # A hexagon in the plane x + y + z = 1: no point dominates another, and
    # the whole hexagon is the one Pareto face through point 0.
    HEXAGON = np.array(
        [
            [0.7, 0.3, 0.0],
            [0.3, 0.7, 0.0],
            [0.0, 0.7, 0.3],
            [0.0, 0.3, 0.7],
            [0.3, 0.0, 0.7],
            [0.7, 0.0, 0.3],
        ]
    )

    def test_qhull_failure_on_full_dimensional_set(self, monkeypatch):
        warnings, _, built, tested = self.run(monkeypatch, 1, self.SPREAD)
        assert warnings == [] and tested == []
        assert built[0] is self.SPREAD
        assert built[1].tobytes() == geometry.close_below(self.SPREAD).tobytes()

    def test_flat_set_closed_below(self, monkeypatch):
        warnings, faces, built, tested = self.run(monkeypatch, 0, self.HEXAGON)
        assert warnings == [] and tested == []
        assert len(built) == 2
        assert built[1].tobytes() == geometry.close_below(self.HEXAGON).tobytes()
        assert faces == [((0, 1, 2, 3, 4, 5), 2)]

    def test_closed_set_refused_too(self, monkeypatch):
        """No instance reaches this; the error names the vertex and its
        actions."""
        with pytest.raises(SearchAbortError) as err:
            self.run(monkeypatch, 2, self.HEXAGON)
        assert str(err.value) == (
            "vertex 7 (actions [0, 0, 0, 0]): Qhull refused its 6 local points "
            "in 3 objectives even closed off below"
        )
        assert isinstance(err.value.__cause__, geometry.DegenerateHullError)

    def test_dependent_objectives_warn_nothing(self):
        """Every local return set of this front spans three of four
        dimensions; closed off below, each gets a hull, so no fallback
        fires and the front matches the oracle's."""
        mdp = _depobj(1)
        front = search(mdp)
        assert len(front.vertices) == 11
        assert front.stats.warnings == []
        assert compare_fronts(front, brute_force_front(mdp)).match
