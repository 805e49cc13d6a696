import numpy as np
import pytest

from momdp_pareto import (
    ApexNotVertexError,
    DegenerateHullError,
    Dominance,
    FaceDescriptor,
    affine_dimension,
    convex_hull,
    deterministic_jitter,
    dominance,
    gen_random_mdp,
    incident_facets,
    is_pareto_face,
    long_term_return,
    enumerate_deterministic,
    pareto_lp,
    pprune,
    subfaces_at,
)
from momdp_pareto.geometry import passes_sign_screen

from helpers import (
    barycentric_grid,
    convex_cloud,
    dominated_in_cloud,
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
