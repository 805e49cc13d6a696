import dataclasses
import importlib
import itertools
import sys
import threading

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs

from momdp_pareto import gen_gridworld, gen_random_mdp, geometry, long_term_return
from momdp_pareto.geometry import (
    AffineBasis,
    ApexNotVertexError,
    DegenerateHullError,
    Dominance,
    FaceDescriptor,
    _support_lp,
    affine_basis,
    affine_dimension,
    convex_hull,
    deterministic_jitter,
    dominance,
    dominated_by,
    group_coincident,
    incident_facets,
    is_pareto_face,
    pareto_lp,
    passes_sign_screen,
    pprune,
    subfaces_at,
    support_faces,
)
from momdp_pareto.mdp import enumerate_deterministic

from helpers import (
    all_pairs_pprune,
    barycentric_grid,
    convex_cloud,
    dominated_in_cloud,
    linprog_pareto_lp,
    linprog_support_lp,
    loop_dominance,
    loop_group_coincident,
    loop_hull_facets,
    quadratic_pprune,
    supporting_hyperplane_facets,
)


class TestDominance:
    def test_dominates(self):
        assert dominance(np.array([2.0, 2.0]), np.array([1.0, 2.0])) == Dominance.DOMINATES

    def test_dominated_by(self):
        assert dominance(np.array([1.0, 2.0]), np.array([2.0, 2.0])) == Dominance.DOMINATED_BY

    def test_incomparable(self):
        assert dominance(np.array([2.0, 1.0]), np.array([1.0, 2.0])) == Dominance.INCOMPARABLE

    def test_equal(self):
        assert dominance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == Dominance.EQUAL

    def test_eps_blurs_small_gaps(self):
        u = np.array([1.0, 1.0])
        v = np.array([1.0 + 1e-12, 1.0 - 1e-12])
        assert dominance(u, v, eps=1e-9) == Dominance.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominance(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            dominance(np.zeros((4, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            dominance(np.zeros((4, 3)), np.zeros((4, 3)))

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.5])
    def test_stack_matches_row_by_row(self, eps):
        """Half-step offsets and sub-eps nudges give every relation, and
        rows sitting exactly eps away."""
        rng = np.random.default_rng(7)
        v = rng.integers(0, 3, size=4) * 0.5
        u = v + np.vstack(
            [
                rng.integers(-2, 3, size=(200, 4)) * 0.5,
                rng.integers(-1, 2, size=(50, 4)) * 1e-10,
                np.zeros((1, 4)),
            ]
        )
        want = [loop_dominance(row, v, eps) for row in u]
        assert set(want) == set(Dominance)
        assert dominance(u, v, eps) == want
        assert [dominance(row, v, eps) for row in u] == want

    def test_empty_stack(self):
        assert dominance(np.zeros((0, 3)), np.zeros(3)) == []


class TestPPrune:
    def test_incomparable_triple_kept(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert pprune(pts) == [0, 1, 2]

    def test_strictly_dominated_dropped(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert pprune(pts) == [0]

    def test_matches_quadratic_filter(self):
        for seed in range(4):
            pts = np.random.default_rng(seed).random((100, 3))
            assert pprune(pts) == quadratic_pprune(pts)

    def test_fixed_point_property(self):
        pts = np.random.default_rng(7).normal(size=(60, 3))
        kept = set(pprune(pts))
        for i in range(60):
            dominated = any(
                dominance(pts[j], pts[i]) == Dominance.DOMINATES for j in kept
            )
            if i in kept:
                assert not dominated
            else:
                assert dominated

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pprune(np.zeros((0, 2)))


class TestPPruneSweep:
    """The sort-and-block sweep against all-pairs references."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_tie_heavy_integer_grids(self, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2, 40, 255, 256, 257, 600):
            pts = rng.integers(0, 3, size=(n, dim)).astype(float)
            assert pprune(pts) == quadratic_pprune(pts)

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_exact_duplicates_all_survive(self, dim):
        rng = np.random.default_rng(10 + dim)
        base = rng.normal(size=(60, dim))
        pts = base[rng.integers(0, 60, size=600)]
        kept = pprune(pts)
        assert kept == quadratic_pprune(pts)
        for i in kept:
            assert all(j in kept for j in np.flatnonzero((pts == pts[i]).all(axis=1)))

    def test_one_objective_keeps_every_maximum(self):
        pts = np.array([[1.0], [3.0], [2.0], [3.0], [-1.0]])
        assert pprune(pts) == [1, 3]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_several_blocks_of_mostly_non_dominated_rows(self, dim):
        # Rows near a plane tilted against every objective: at D=3 and D=5
        # about half or more are non-dominated, so the kept set grows in
        # every block.
        rng = np.random.default_rng(20 + dim)
        pts = rng.normal(size=(600, dim))
        pts[:, -1] = -pts[:, :-1].sum(axis=1) + 0.3 * pts[:, -1]
        assert pprune(pts) == quadratic_pprune(pts)

    def test_large_cloud_matches_all_pairs(self):
        rng = np.random.default_rng(3)
        blob = rng.normal(size=(16_000, 3))
        shell = rng.normal(size=(4_000, 3))
        shell *= 5.0 / np.linalg.norm(shell, axis=1, keepdims=True)
        pts = np.vstack([blob, shell, shell[:500]])
        assert pts.shape[0] >= 20_000
        kept = pprune(pts)
        assert kept == all_pairs_pprune(pts)
        assert 100 < len(kept) < pts.shape[0] // 2


class TestDominatedBy:
    """The blocked mask against one scan of the cloud per row."""

    @staticmethod
    def loop(points, cloud, tol, slack):
        return [
            bool(((cloud >= x - slack).all(axis=1) & (cloud > x + tol).any(axis=1)).any())
            for x in points
        ]

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_tie_heavy_grids(self, n):
        rng = np.random.default_rng(n)
        points = rng.integers(0, 4, size=(n, 3)) / 4.0
        cloud = rng.integers(0, 4, size=(50, 3)) / 4.0
        for tol, slack in ((0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (0.1, 1e-12), (0.3, 0.3)):
            got = dominated_by(points, cloud, tol, slack)
            assert got.dtype == bool and got.shape == (n,)
            assert got.tolist() == self.loop(points, cloud, tol, slack)

    def test_slack_and_tol_sides(self):
        cloud = np.array([[1.0, 1.0]])
        # Beats the point by 0.5 in one objective, trails it by 1e-13 in
        # the other: dominance within a 1e-12 slack only.
        point = np.array([[0.5, 1.0 + 1e-13]])
        assert dominated_by(point, cloud, 1e-8, 1e-12).tolist() == [True]
        assert dominated_by(point, cloud, 1e-8, 0.0).tolist() == [False]
        # A lead of 1e-9 does not count beyond tol 1e-8.
        assert dominated_by(cloud - 1e-9, cloud, 1e-8, 0.0).tolist() == [False]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dominated_by(np.zeros((2, 3)), np.zeros((4, 2)))


class TestAffineDimension:
    def test_single_point(self):
        assert affine_dimension(np.array([[1.0, 2.0, 3.0]])) == 0

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert affine_dimension(pts) == 1

    def test_tetrahedron(self):
        pts = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]
        )
        assert affine_dimension(pts) == 3


class TestGroupCoincident:
    def test_first_row_represents_its_group(self):
        # Row 2 is exactly eps from row 0 and joins it; row 5 is within eps
        # of row 2 but not of row 0, so it opens a group of its own.
        pts = np.array(
            [[0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [1.0, 2.0], [0.0, 0.0], [0.75, 0.0]]
        )
        assert group_coincident(pts, 0.5) == [[0, 2, 4], [1], [3], [5]]

    def test_zero_eps_groups_exact_duplicates(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-12], [1.0, 2.0]])
        assert group_coincident(pts, 0.0) == [[0, 2], [1]]

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_tie_heavy_grid_matches_the_loop(self, eps, dim):
        """600 rows on a half-step grid: many exact ties, and at eps >= 0.5
        rows close to a row that is itself in another group."""
        pts = np.random.default_rng(dim).integers(0, 4, size=(600, dim)) * 0.5
        assert group_coincident(pts, eps) == loop_group_coincident(pts, eps)

    @pytest.mark.parametrize("seed", range(3))
    def test_chains_within_eps_match_the_loop(self, seed):
        """Each row is within eps of the next, so groups end where a row
        leaves its first row's reach, whatever the row order."""
        eps = 1e-9
        rng = np.random.default_rng(seed)
        chain = np.arange(40)[:, None] * 0.6 * eps * np.ones(3)
        pts = np.vstack([chain, chain + 1.0])[rng.permutation(80)]
        got = group_coincident(pts, eps)
        assert got == loop_group_coincident(pts, eps)
        assert 2 < len(got) < 80

    def test_nan_rows_stay_alone(self):
        pts = np.array([[0.0, np.nan], [0.0, 0.0], [0.0, np.nan], [0.0, 0.0]])
        assert group_coincident(pts, 1.0) == loop_group_coincident(pts, 1.0)


def planar_cloud():
    """Five points in the plane z = 0.5: the 2-d front (1,0)-(0.6,0.6)-(0,1),
    a dominated point, and a point inside the hull that no single point
    dominates."""
    return np.array(
        [[1.0, 0, 0.5], [0.0, 1, 0.5], [0.6, 0.6, 0.5], [0.2, 0.2, 0.5], [0.8, 0.1, 0.5]]
    )


class TestSupportFaces:
    def test_normals_positive_and_supporting(self):
        pts = planar_cloud()
        for apex in range(len(pts)):
            for face, cert in support_faces(pts, apex, 1e-9):
                assert apex in face.vertex_ids
                assert face.defining_facets == ()
                assert cert.normals.shape == (1, 3)
                assert cert.alpha.tolist() == [1.0]
                w = cert.normals[0]
                assert (w > 0).all()
                assert cert.t_star == w.min()
                values = pts @ w
                on_face = values[list(face.vertex_ids)]
                assert on_face.max() - on_face.min() <= 1e-9
                assert values.max() <= on_face.min() + 1e-9

    def test_faces_per_apex(self):
        pts = planar_cloud()
        got = {
            apex: [(f.vertex_ids, f.dim) for f, _ in support_faces(pts, apex, 1e-9)]
            for apex in range(len(pts))
        }
        assert got == {
            0: [((0, 2), 1)],
            1: [((1, 2), 1)],
            2: [((1, 2), 1), ((0, 2), 1)],
            3: [],
            4: [],
        }


class TestJitter:
    def test_reproducible(self):
        pts = np.random.default_rng(0).random((5, 3))
        assert np.array_equal(deterministic_jitter(pts), deterministic_jitter(pts))

    def test_magnitude_bounded(self):
        pts = np.zeros((6, 4))
        delta = deterministic_jitter(pts, magnitude=1e-7) - pts
        assert np.abs(delta).max() <= 1e-7
        assert np.abs(delta).max() > 0


def unit_simplex_3d():
    return np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]
    )


class TestConvexHull:
    def test_simplex_has_four_facets(self):
        hull = convex_hull(unit_simplex_3d())
        assert len(hull.facets) == 4
        assert hull.vertex_ids == (0, 1, 2, 3)

    def test_square_with_center(self):
        pts = np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert len(hull.facets) == 4
        assert 4 not in hull.vertex_ids

    def test_cube_merges_coplanar_facets(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        hull = convex_hull(corners)
        assert len(hull.facets) == 6
        assert all(len(f.vertex_ids) == 4 for f in hull.facets)

    def test_all_points_inside_every_facet(self):
        pts = np.random.default_rng(3).normal(size=(30, 3))
        hull = convex_hull(pts)
        scale = max(1.0, np.abs(pts).max())
        for f in hull.facets:
            assert (pts @ f.normal - f.offset).max() <= 1e-9 * scale
            assert abs(np.linalg.norm(f.normal) - 1.0) <= 1e-12

    def test_facets_oriented_outward(self):
        pts = np.random.default_rng(4).normal(size=(15, 3))
        hull = convex_hull(pts)
        centroid = pts.mean(axis=0)
        for f in hull.facets:
            assert f.normal @ centroid < f.offset

    def test_matches_hyperplane_enumeration_3d(self):
        pts = np.random.default_rng(12).random((20, 3))
        hull = convex_hull(pts)
        got = {frozenset(f.vertex_ids) for f in hull.facets}
        assert got == supporting_hyperplane_facets(pts)

    def test_matches_hyperplane_enumeration_4d(self):
        pts = np.random.default_rng(21).normal(size=(10, 4))
        hull = convex_hull(pts)
        got = {frozenset(f.vertex_ids) for f in hull.facets}
        assert got == supporting_hyperplane_facets(pts)

    def test_flat_cloud_raises(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
        with pytest.raises(DegenerateHullError) as err:
            convex_hull(pts)
        assert err.value.affine_dim == 2

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateHullError):
            convex_hull(np.ones((3, 2)))


def cube_with_face_centres():
    corners = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    centres = [[0.5, 0.5, z] for z in (0.0, 1.0)]
    centres += [[0.5, y, 0.5] for y in (0.0, 1.0)]
    centres += [[x, 0.5, 0.5] for x in (0.0, 1.0)]
    return np.array(corners + centres)


def grid_returns():
    """Scaled returns of every policy of a 2x3 gridworld: many coincident
    points and coplanar facets."""
    m = gen_gridworld(1, 2, 3, 3)
    pols = enumerate_deterministic(m.num_states, m.num_actions)
    return np.unique(np.array([long_term_return(m, p) for p in pols]), axis=0)


def lattice_cloud(seed: int, dim: int):
    """Integer points, so that many facets are triangulated coplanar planes."""
    return np.random.default_rng(seed).integers(0, 3, size=(12 * dim, dim)).astype(float)


def flat_apex_cloud():
    """A 4x5 grid in the plane z = 0 and, first, an apex 1e-8 above it. The
    centroid lies within 1e-9 of the base plane, so the apex decides which
    way that facet's normal points."""
    base = np.array([[x, y, 0.0] for x in range(4) for y in range(5)]) / 4
    return np.vstack([[0.4, 0.5, 1e-8], base])


class TestFacetDedupe:
    """`convex_hull`'s one-mask dedupe, orientation and incidence against
    the plane-by-plane loop."""

    CLOUDS = {
        "cube-centres": cube_with_face_centres,
        "grid-2x3": grid_returns,
        "flat-apex": flat_apex_cloud,
        **{
            f"uniform-D{d}-s{seed}": (
                lambda d=d, seed=seed: np.random.default_rng(seed).uniform(size=(6 * d, d))
            )
            for d in (3, 4, 5)
            for seed in range(3)
        },
        **{
            f"normal-D{d}": (lambda d=d: np.random.default_rng(d).normal(size=(10 * d, d)))
            for d in (3, 4, 5)
        },
        **{f"lattice-D{d}": (lambda d=d: lattice_cloud(d, d)) for d in (3, 4, 5)},
    }

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    @pytest.mark.parametrize("apex_id", [None, 0])
    def test_same_facets_as_the_loop(self, name, apex_id):
        pts = self.CLOUDS[name]()
        got = convex_hull(pts, apex_id=apex_id).facets
        want = loop_hull_facets(pts, apex_id=apex_id)
        assert len(got) == len(want)
        for f, g in zip(got, want):
            assert f.normal.tobytes() == g.normal.tobytes()
            assert f.offset == g.offset
            assert f.vertex_ids == g.vertex_ids

    def test_flat_apex_cloud_takes_the_apex_tie_break(self):
        pts = flat_apex_cloud()
        hull = convex_hull(pts, apex_id=0)
        base = [
            f for f in hull.facets
            if abs(f.normal @ pts.mean(axis=0) - f.offset) <= 1e-9
        ]
        assert len(base) == 1
        np.testing.assert_allclose(base[0].normal, [0.0, 0.0, -1.0], atol=1e-12)
        assert base[0].vertex_ids == (1, 5, 16, 20)

    @pytest.mark.parametrize("name", ["cube-centres", "grid-2x3", "lattice-D3", "lattice-D4"])
    def test_clouds_have_triangulated_facets(self, name):
        """Qhull reports more planes than there are facets, so the dedupe
        has work to do on these clouds."""
        from scipy.spatial import ConvexHull

        pts = self.CLOUDS[name]()
        assert len(ConvexHull(pts).equations) > len(convex_hull(pts).facets)


class TestAffineBasis:
    def test_triangle_in_space(self):
        pts = np.array([[1.0, 0, 0], [3.0, 0, 0], [1.0, 4, 0]])
        basis = affine_basis(pts, 2)
        assert isinstance(basis, AffineBasis)
        assert basis.count == 3 and basis.radius == 4.0
        assert basis.sv_k == pytest.approx(2.0)
        off, dist = basis.distances(np.array([[2.0, 1, 0.5], [1.0, 0, -3]]))
        np.testing.assert_allclose(off, [0.5, 3.0])
        np.testing.assert_allclose(dist, [1.5, 3.0])

    def test_too_few_points_for_the_dimension(self):
        basis = affine_basis(np.array([[0.0, 0], [1.0, 1]]), 2)
        assert basis.sv_k == 0.0
        assert affine_basis(np.array([[0.0, 1.0]]), 1).sv_k == 0.0


class TestIncidentFacets:
    def test_tetrahedron_corner_has_three(self):
        hull = convex_hull(unit_simplex_3d())
        assert len(incident_facets(hull, 0)) == 3

    def test_square_pyramid_apex_has_four(self):
        pts = np.array(
            [
                [1.0, 1, 0], [1.0, -1, 0], [-1.0, -1, 0], [-1.0, 1, 0],
                [0.0, 0, 1],
            ]
        )
        hull = convex_hull(pts)
        assert len(incident_facets(hull, 4)) == 4

    def test_interior_point_rejected(self):
        pts = np.vstack([unit_simplex_3d(), [[0.1, 0.1, 0.1]]])
        hull = convex_hull(pts)
        with pytest.raises(ApexNotVertexError):
            incident_facets(hull, 4)

    def test_facets_scanned_once_per_apex(self, monkeypatch):
        """A D=5 descent asks for its apex's facets at every subface step;
        the hull lists them once per apex."""

        class CountingFacets(tuple):
            scans = 0

            def __iter__(self):
                CountingFacets.scans += 1
                return super().__iter__()

        search_module = importlib.import_module("momdp_pareto.search")
        subface_calls = []

        def counted_subfaces_at(face, hull, apex_id):
            subface_calls.append(apex_id)
            return subfaces_at(face, hull, apex_id)

        monkeypatch.setattr(search_module, "subfaces_at", counted_subfaces_at)
        built = convex_hull(np.random.default_rng(0).normal(size=(30, 5)))
        hull = dataclasses.replace(built, facets=CountingFacets(built.facets))
        apexes = hull.vertex_ids[:3]
        for apex in apexes:
            search_module.select_pareto_faces(apex, hull)
        assert len(subface_calls) > 3 * len(apexes)
        assert CountingFacets.scans == len(apexes)
        assert [incident_facets(hull, a) for a in apexes] == [
            incident_facets(built, a) for a in apexes
        ]
        assert CountingFacets.scans == len(apexes)


class TestSubfaces:
    def test_tetrahedron_facet_yields_two_edges(self):
        hull = convex_hull(unit_simplex_3d())
        apex = 0
        fid = incident_facets(hull, apex)[0]
        facet = hull.facets[fid]
        face = FaceDescriptor(
            vertex_ids=facet.vertex_ids, defining_facets=(fid,), dim=2
        )
        subs = subfaces_at(face, hull, apex)
        assert len(subs) == 2
        for sub in subs:
            assert sub.dim == 1
            assert apex in sub.vertex_ids
            assert len(sub.vertex_ids) == 2
            assert fid in sub.defining_facets and len(sub.defining_facets) >= 2

    def test_edge_has_no_subfaces(self):
        hull = convex_hull(unit_simplex_3d())
        face = FaceDescriptor(vertex_ids=(0, 1), defining_facets=(0, 1), dim=1)
        assert subfaces_at(face, hull, 0) == []

    def test_cube_square_facet_yields_two_edges(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        hull = convex_hull(corners)
        apex = 0
        fid = incident_facets(hull, apex)[0]
        facet = hull.facets[fid]
        face = FaceDescriptor(
            vertex_ids=facet.vertex_ids, defining_facets=(fid,), dim=2
        )
        subs = subfaces_at(face, hull, apex)
        assert len(subs) == 2
        assert all(s.dim == 1 and len(s.vertex_ids) == 2 for s in subs)


class TestParetoLp:
    def test_single_positive_normal(self):
        w = np.ones(3) / np.sqrt(3.0)
        cert = pareto_lp(w[None, :])
        assert cert.t_star == pytest.approx(1 / np.sqrt(3.0), abs=1e-12)
        assert cert.alpha == pytest.approx([1.0])

    def test_opposing_normals_cannot_be_positive(self):
        W = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
        cert = pareto_lp(W)
        # The third coordinate of every combination is exactly 0.
        assert cert.t_star <= 1e-12

    def test_symmetric_pair_reaches_quarter(self):
        W = np.array([[1.0, -0.5], [-0.5, 1.0]])
        cert = pareto_lp(W)
        assert cert.t_star == pytest.approx(0.25, abs=1e-9)
        assert cert.alpha == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_certificate_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            W = rng.normal(size=(4, 3))
            cert = pareto_lp(W)
            assert cert.alpha.min() >= 0
            assert cert.alpha.sum() == pytest.approx(1.0, abs=1e-10)
            assert (cert.alpha @ W).min() == pytest.approx(cert.t_star, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_lp(np.zeros((0, 2)))


class TestLpsMatchLinprog:
    """Both LPs hand HiGHS the model and options of `scipy.optimize.linprog`
    and accept its solution on linprog's terms, so certificates match a
    linprog reference bit for bit. These tests fail when a scipy release
    changes the HiGHS bindings under that contract."""

    @staticmethod
    def assert_same_certificate(W):
        cert = pareto_lp(W)
        alpha, t_star = linprog_pareto_lp(W)
        assert cert.alpha.tobytes() == alpha.tobytes()
        assert cert.t_star == t_star

    @staticmethod
    def assert_same_support(points, vids):
        w, t = _support_lp(points, vids)
        ref_w, ref_t = linprog_support_lp(points, vids)
        assert t == ref_t
        assert (w is None) == (ref_w is None)
        if w is not None:
            assert w.tobytes() == ref_w.tobytes()
        return w is None

    def test_random_normals(self):
        rng = np.random.default_rng(21)
        for n in range(1, 11):
            for d in range(2, 7):
                for _ in range(3):
                    self.assert_same_certificate(rng.normal(size=(n, d)))

    def test_duplicated_rows(self):
        rng = np.random.default_rng(22)
        for n, d in ((2, 3), (4, 5), (6, 4)):
            W = rng.normal(size=(n, d))
            self.assert_same_certificate(np.vstack([W, W[::2]]))
            self.assert_same_certificate(np.repeat(W[:1], 3, axis=0))

    def test_all_zero_column(self):
        rng = np.random.default_rng(23)
        for n, d in ((2, 2), (3, 4), (7, 6)):
            W = rng.normal(size=(n, d))
            W[:, d // 2] = 0.0
            self.assert_same_certificate(W)

    def test_support_subsets_with_and_without_a_normal(self):
        rng = np.random.default_rng(24)
        outcomes = set()
        for n, d in ((3, 2), (4, 3), (5, 3), (6, 4)):
            points = rng.random((n, d))
            for size in range(2, n + 1):
                for rest in itertools.combinations(range(1, n), size - 1):
                    outcomes.add(self.assert_same_support(points, (0, *rest)))
        # Both the supported path and the (None, -inf) path were compared.
        assert outcomes == {True, False}

    def test_failed_lp_names_status_and_shape(self, monkeypatch):
        assert _support_lp(np.eye(3), (0, 1))[0] is not None
        options = _highs.HighsOptions()
        options.presolve = "off"
        options.output_flag = False
        options.log_to_console = False
        options.simplex_iteration_limit = 0
        monkeypatch.setattr(geometry, "_HIGHS_OPTIONS", options)
        W = np.array([[1.0, -0.5, 0.2], [-0.5, 1.0, 0.3], [0.1, 0.1, -1.0], [0.3, 0.2, 0.1]])
        with pytest.raises(RuntimeError, match=r"shape \(4, 3\).*Iteration limit reached"):
            pareto_lp(W)
        assert _support_lp(np.eye(3), (0, 1)) == (None, float("-inf"))


def in_new_thread(fn, *args):
    """fn(*args) run in a thread of its own, so on a HiGHS solver of its own."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


class TestSharedHighsSolver:
    """Each thread reuses one HiGHS solver; `clearModel` before every LP
    must leave no trace of the previous LP's basis."""

    @staticmethod
    def certificate_bytes(W):
        cert = pareto_lp(W)
        return cert.alpha.tobytes(), cert.t_star

    def test_alternating_bases_match_fresh_solvers(self):
        rng = np.random.default_rng(31)
        changed = 0
        for n, d in ((3, 3), (4, 3), (5, 4), (6, 5)):
            for _ in range(6):
                pair = [rng.normal(size=(n, d)), rng.normal(size=(n, d))]
                fresh = [in_new_thread(self.certificate_bytes, W) for W in pair]
                supports = [tuple(np.flatnonzero(pareto_lp(W).alpha > 0)) for W in pair]
                changed += supports[0] != supports[1]
                for W, ref in zip(pair * 2, fresh * 2):
                    assert self.certificate_bytes(W) == ref
        # The back-to-back LPs really had different optimal bases.
        assert changed >= 10

    def test_threads(self):
        """Four threads, more than the cores, solve the same LPs in different
        orders with frequent switches; each uses its own solver and every
        certificate matches the serial one."""
        rng = np.random.default_rng(32)
        inputs = [rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 6))))
                  for _ in range(40)]
        serial = [self.certificate_bytes(W) for W in inputs]
        start = threading.Barrier(4, timeout=60)
        results, solvers = {}, {}

        def work(name, order):
            start.wait()
            solvers[name] = geometry._solver()
            results[name] = [(i, self.certificate_bytes(inputs[i])) for i in order * 3]

        orders = [list(range(40)), list(range(40))[::-1], list(range(0, 40, 2)) * 2,
                  list(range(1, 40, 2)) * 2]
        workers = [threading.Thread(target=work, args=(k, order)) for k, order in enumerate(orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len({id(solver) for solver in solvers.values()}) == 4
        for k, got in results.items():
            assert len(got) == 3 * len(orders[k])
            assert all(cert == serial[i] for i, cert in got)


class TestSignScreen:
    def test_nonpositive_column_bounds_lp_optimum(self):
        eps_pos = 1e-9
        rng = np.random.default_rng(11)
        # The column's largest entry is negative, zero, inside (0, eps_pos)
        # or exactly eps_pos.
        tops = (None, 0.0, eps_pos / 2, eps_pos)
        for trial in range(60):
            n, d = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            W = rng.normal(size=(n, d))
            j = int(rng.integers(d))
            W[:, j] = -np.abs(W[:, j]) * 10.0 ** rng.integers(-12, 1)
            if tops[trial % 4] is not None:
                W[int(rng.integers(n)), j] = tops[trial % 4]
            assert not passes_sign_screen(W, eps_pos)
            assert pareto_lp(W).t_star <= eps_pos

    def test_positive_entry_in_every_column_passes(self):
        W = np.array([[1.0, -1.0, 2e-9], [-1.0, 1.0, -3.0]])
        assert passes_sign_screen(W, 1e-9)
        # Passing the screen leaves the verdict to the LP.
        assert not is_pareto_face(W)


class TestIsParetoFace:
    def test_positive_normal(self):
        assert is_pareto_face(np.array([[1.0, 1.0, 1.0]]))

    def test_opposing_pair(self):
        assert not is_pareto_face(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]))

    def test_axis_pair_combines_positive(self):
        assert is_pareto_face(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_malformed_normals_rejected(self):
        for bad in (np.zeros((0, 2)), np.ones(3)):
            with pytest.raises(ValueError):
                is_pareto_face(bad)


class TestFacetPositivityAgainstSampling:
    """A facet's positivity verdict must agree with direct domination checks.

    For facets whose normal is clearly positive, no sampled facet point may be
    dominated by anything in the polytope. For facets with a clearly negative
    normal component, a dominating polytope point must exist; one is built by
    nudging the facet centroid along that coordinate and checking it stays
    inside every facet inequality.
    """

    def test_return_cloud_facets(self):
        checked_pos = checked_neg = 0
        for seed in (0, 1):
            mdp = gen_random_mdp(seed, 3, 3, 3)
            pts = np.array(
                [long_term_return(mdp, p) for p in enumerate_deterministic(3, 3)]
            )
            scale = max(1.0, np.abs(pts).max())
            hull = convex_hull(pts)
            cloud = convex_cloud(pts, n_random=3000, seed=seed)
            for f in hull.facets:
                t = float(f.normal.min())
                sub = pts[list(f.vertex_ids)]
                samples = barycentric_grid(sub.shape[0], steps=3) @ sub
                if t > 1e-6:
                    checked_pos += 1
                    for p in samples:
                        assert not dominated_in_cloud(p, cloud, eps=1e-9 * scale)
                elif t < -1e-6:
                    checked_neg += 1
                    j = int(f.normal.argmin())
                    centroid = sub.mean(axis=0)
                    inside = False
                    for delta in (1e-4, 1e-6, 1e-8):
                        witness = centroid.copy()
                        witness[j] += delta * scale
                        inside = all(
                            g.normal @ witness <= g.offset + 1e-9 * scale
                            for g in hull.facets
                        )
                        if inside:
                            break
                    assert inside
                    assert dominated_in_cloud(centroid, witness[None, :], eps=0.0)
        assert checked_pos >= 1 and checked_neg >= 1
