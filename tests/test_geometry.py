import dataclasses
import functools
import importlib
import itertools
import operator
import sys
import threading
import warnings
from collections import deque

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs

from momdp_pareto import gen_gridworld, gen_random_mdp, geometry, long_term_return, oracle
from momdp_pareto.geometry import (
    ApexNotVertexError,
    DegenerateHullError,
    Dominance,
    DualPool,
    _support_lp,
    affine_dimension,
    close_below,
    convex_hull,
    dominance,
    dominance_masks,
    dominated_by,
    exposed_sets,
    group_coincident,
    incident_facets,
    mask_ids,
    pareto_lp,
    pprune,
    sign_masks,
    subfaces_at,
    support_faces,
)
from momdp_pareto.mdp import enumerate_deterministic, tree_depth, tree_returns
from momdp_pareto.search import return_scale, select_pareto_faces

from helpers import (
    all_pairs_pprune,
    apex_facet_ids,
    apex_masks,
    barycentric_grid,
    benchmark_instances,
    convex_cloud,
    degenerate_instances,
    dominated_in_cloud,
    greedy_plane_merge,
    linprog_pareto_lp,
    linprog_support_lp,
    loop_dominance,
    loop_group_coincident,
    loop_hull_facets,
    pairwise_subfaces_at,
    passes_sign_screen,
    quadratic_pprune,
    supporting_hyperplane_facets,
    svd_subfaces_at,
    sweep_pprune,
    unblocked_hull_facets,
)
from test_golden import INSTANCES as GOLDEN_INSTANCES


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

    # The relation of a row to v by whether it lies below v somewhere and
    # above v somewhere (`dominance_masks`).
    BY_MASKS = {
        (False, False): Dominance.EQUAL,
        (False, True): Dominance.DOMINATES,
        (True, False): Dominance.DOMINATED_BY,
        (True, True): Dominance.INCOMPARABLE,
    }

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.5])
    def test_stack_matches_row_by_row(self, eps):
        """Half-step offsets and sub-eps nudges give every relation. Against
        the origin, rows of -2 eps to 2 eps in steps of eps sit exactly eps
        away in some coordinates, and rows with a NaN anywhere are
        incomparable."""
        rng = np.random.default_rng(7)
        v = rng.integers(0, 3, size=4) * 0.5
        u = v + np.vstack(
            [
                rng.integers(-2, 3, size=(200, 4)) * 0.5,
                rng.integers(-1, 2, size=(50, 4)) * 1e-10,
                np.zeros((1, 4)),
            ]
        )
        at_eps = eps * np.array(list(itertools.product([-2.0, -1.0, 0.0, 1.0, 2.0], repeat=4)))
        with_nan = rng.integers(-2, 3, size=(40, 4)) * 0.5
        with_nan[np.arange(40), rng.integers(0, 4, size=40)] = np.nan
        with_nan[:4, :] = np.nan
        for points, origin in [(u, v), (np.vstack([at_eps, with_nan]), np.zeros(4))]:
            want = [loop_dominance(row, origin, eps) for row in points]
            assert dominance(points, origin, eps) == want
            assert [dominance(row, origin, eps) for row in points] == want
            below, above = dominance_masks(points, origin, eps)
            assert [self.BY_MASKS[b, a] for b, a in zip(below.tolist(), above.tolist())] == want
        assert set(want[: len(at_eps)]) == ({Dominance.EQUAL} if eps == 0.0 else set(Dominance))
        assert set(want[len(at_eps) :]) == {Dominance.INCOMPARABLE}

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


class TestPPruneMargin:
    """`pprune(points, margin)` drops a point only when some point
    dominates it shifted up by the margin, as the quadratic filter does."""

    MARGINS = [0.0, 1e-12, 0.1, 0.5, 1.0]

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_quadratic_filter(self, dim, margin, monkeypatch):
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", 16)
        rng = np.random.default_rng(30 + dim)
        for pts in (
            rng.integers(0, 4, size=(120, dim)).astype(float) * 0.5,
            rng.normal(size=(120, dim)),
            # Pairs 1e-13 apart: inside the smallest positive margin.
            np.repeat(rng.normal(size=(60, dim)), 2, axis=0)
            + np.tile([0.0, 1e-13], 60)[:, None],
        ):
            assert pprune(pts, margin) == quadratic_pprune(pts, margin=margin)

    @pytest.mark.parametrize("margin", MARGINS)
    def test_blocks_do_not_change_the_result(self, margin, monkeypatch):
        pts = np.random.default_rng(5).integers(0, 5, size=(600, 3)).astype(float) * 0.25
        whole = pprune(pts, margin)
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", 7)
        assert pprune(pts, margin) == whole == all_pairs_pprune(pts + margin, cloud=pts)

    def test_keeps_a_superset_of_the_non_dominated_points(self):
        pts = np.random.default_rng(8).normal(size=(500, 3))
        exact = pprune(pts)
        kept = [set(pprune(pts, m)) for m in (0.0, 0.01, 0.1, 1.0)]
        assert kept[0] == set(exact)
        assert all(a <= b for a, b in zip(kept, kept[1:]))
        assert len(kept[-1]) > len(exact)

    def test_needs_the_margin_in_every_objective(self):
        pts = np.array([[1.0, 1.0], [1.5, 1.5], [1.2, 3.0], [1.7, 1.6]])
        # Row 0 is 0.5 below row 1 in both objectives; row 3 beats row 0 by
        # 0.7 and 0.6 but row 1 by only 0.2 and 0.1; row 2 is only 0.2
        # above row 0 in the first objective.
        assert pprune(pts, 0.3) == [1, 2, 3]
        assert pprune(pts, 0.05) == [2, 3]
        assert pprune(pts, 0.7) == [0, 1, 2, 3]

    @pytest.mark.parametrize("margin", [-1e-12, float("nan"), float("inf")])
    def test_rejects_bad_margins(self, margin):
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            pprune(np.eye(2), margin)


class TestPPrunePrePass:
    """Above `_BLOCK_ROWS` rows, `pprune` first drops the rows that the
    coordinate-sum and per-coordinate maxima dominate. The index lists must
    equal the bare sweep's and the all-pairs filter's whichever rows these
    anchors are."""

    MARGINS = [0.0, 1e-12, 0.5]

    @staticmethod
    def filler(seed: int, n: int = 300, dim: int = 3) -> np.ndarray:
        """Tie-heavy rows in [0, 1]^dim, enough to take the pre-pass."""
        return np.random.default_rng(seed).integers(0, 5, size=(n, dim)) / 4.0

    @staticmethod
    def anchor_ids(pts: np.ndarray) -> list[int]:
        return np.unique([pts.sum(axis=1).argmax(), *pts.argmax(axis=0)]).tolist()

    def check(self, pts: np.ndarray, margin: float) -> list[int]:
        assert len(pts) > geometry._BLOCK_ROWS
        kept = pprune(pts, margin)
        assert kept == sweep_pprune(pts, margin)
        assert kept == quadratic_pprune(pts, margin=margin)
        return kept

    @pytest.mark.parametrize("margin", MARGINS)
    def test_anchors_that_are_themselves_dominated(self, margin):
        # For each objective k, row a_k reaches the maximum 10 in k first and
        # row b_k ties it there and beats it by 0.75 elsewhere, so argmax
        # takes the dominated a_k.
        pts = self.filler(1)
        for k in range(3):
            a = np.zeros(3)
            a[k] = 10.0
            pts = np.vstack([pts, a, a + 0.75 * (np.arange(3) != k)])
        n = len(pts)
        assert self.anchor_ids(pts) == [n - 6, n - 5, n - 4, n - 2]
        kept = self.check(pts, margin)
        if margin == 0.0:
            assert not {n - 6, n - 4, n - 2} & set(kept)

    @pytest.mark.parametrize("margin", MARGINS)
    def test_duplicates_of_an_anchor_all_survive(self, margin):
        pts = self.filler(2)
        top = np.array([2.0, 2.0, 2.0])
        ids = [5, 77, 140, 299]
        pts[ids] = top
        assert self.anchor_ids(pts) == [5]
        kept = self.check(pts, margin)
        assert set(ids) <= set(kept)

    @pytest.mark.parametrize("margin", MARGINS)
    def test_chain_through_a_row_an_anchor_drops(self, margin):
        # x < y < a, each step the margin, rounded, plus one ulp in every
        # objective: y dominates x past the margin and a dominates y, so a
        # dominates x by transitivity after rounding.
        pts = self.filler(3)
        x = np.array([3.0, 3.1, 3.2])

        def up(p):
            return np.nextafter(p + margin, np.inf)

        y = up(x)
        a = up(y)
        pts = np.vstack([pts[:100], x, pts[100:200], y, pts[200:], a])
        ix, iy, ia = 100, 201, len(pts) - 1
        # At margin 0 the sums of y and a may round alike, making y an anchor.
        assert ia in self.anchor_ids(pts) and ix not in self.anchor_ids(pts)
        # Only y and a dominate x past the margin.
        assert ix in quadratic_pprune(np.delete(pts, [iy, ia], axis=0), margin=margin)
        kept = self.check(pts, margin)
        assert ix not in kept and iy not in kept and ia in kept

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize(
        "special",
        [
            [[np.nan, 0.5, 0.5]],
            [[np.nan, np.nan, np.nan], [0.5, np.nan, 3.0]],
            [[np.inf, 0.0, 0.0], [np.inf, 0.25, 0.0]],
            [[-np.inf, 5.0, 5.0], [0.5, 0.5, -np.inf]],
            [[np.inf, -np.inf, 0.0], [np.nan, np.inf, 0.5]],
        ],
    )
    def test_nan_and_inf_rows_as_in_the_bare_sweep(self, special, margin):
        pts = self.filler(4)
        pts = np.vstack([pts[:150], special, pts[150:], special])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(pts, margin)

    def test_few_check3_tree_rows_reach_the_sweep(self, monkeypatch):
        """Clock-free: on the 65 536 tree rows of `gen_random_mdp(0, 8, 4, 3)`,
        the pre-pass is the only scan of every row and at most 5 000 rows
        reach the sweep. There a row is scanned only until its first
        dominator is kept, so the sweep's masks hold fewer cells than the
        lexicographic sweep's on the same rows. The bare sweep scans all
        65 536."""
        mdp = gen_random_mdp(0, 8, 4, 3)
        rows = tree_returns(mdp, tree_depth(8, 4)) * return_scale(mdp)
        margin = oracle._tree_margin(mdp)
        assert rows.shape == (65_536, 3)
        calls = []
        scan = geometry.dominated_by

        def counting(points, cloud, tol=0.0, slack=0.0):
            out = scan(points, cloud, tol, slack)
            calls.append((len(points), len(cloud), out))
            return out

        monkeypatch.setattr(geometry, "dominated_by", counting)
        kept = pprune(rows, margin)
        monkeypatch.undo()
        assert kept == sweep_pprune(rows, margin)
        (n, _, dropped), *sweep = calls
        survivors = rows[~dropped]
        assert n == len(rows) and len(survivors) <= 5_000
        assert all(m <= len(survivors) for m, _, _ in sweep)
        lexicographic = []
        sweep_pprune(survivors, margin, cells=lexicographic)
        assert sum(m * c for m, c, _ in sweep) < sum(lexicographic)


class TestPPruneVisitingOrder:
    """`pprune` visits rows by descending coordinate sum, and a dominator's
    sum can round to that of the row it dominates. Here every row has the
    same sum, and each dominator comes after the rows it dominates and in a
    later sweep block, so the rows it dominates are kept when their block is
    visited; the last scan of the kept rows has to drop them."""

    @staticmethod
    def tied_rows(dim: int, margin: float) -> np.ndarray:
        """100 rows, then each of them raised by margin + 1 in every
        objective but the first. The first objective is 2**70 in every row,
        whose spacing of 2**18 absorbs the rest of each sum."""
        low = np.random.default_rng(50 + dim).integers(0, 30, size=(100, dim)).astype(float)
        low[:, 0] = 2.0**70
        return np.vstack([low, low + (margin + 1.0) * (np.arange(dim) > 0)])

    @pytest.mark.parametrize("margin", [0.0, 0.5])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_dominators_after_their_rows_with_tied_sums(self, dim, margin):
        pts = self.tied_rows(dim, margin)
        assert len(np.unique(pts.sum(axis=1))) == 1
        block = geometry._SWEEP_ROWS
        assert block < len(pts) <= geometry._BLOCK_ROWS
        assert all(i // block < (100 + i) // block for i in range(100))
        kept = pprune(pts, margin)
        assert kept == quadratic_pprune(pts, margin=margin)
        # Rows kept among the first 100 alone, which their raised copies drop.
        assert set(pprune(pts[:100], margin)) - set(kept)


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

    @pytest.mark.parametrize("m", [0, 1, 4, 256, 257])
    def test_cell_sized_blocks(self, m, monkeypatch):
        """Blocks hold max(1, _BLOCK_ROWS**2 // m) rows against an m-row
        cloud: with _BLOCK_ROWS 16 that is 256, 256, 64, 1 and 1 rows, so
        the 600 points span several blocks for every m."""
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", 16)
        rng = np.random.default_rng(40 + m)
        points = rng.integers(0, 4, size=(600, 3)) / 4.0
        cloud = rng.integers(0, 4, size=(m, 3)) / 4.0
        assert len(points) > 2 * max(1, 16 * 16 // max(1, m))
        for tol, slack in ((0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (0.1, 1e-12), (0.3, 0.3)):
            got = dominated_by(points, cloud, tol, slack)
            assert got.dtype == bool and got.shape == (600,)
            assert got.tolist() == self.loop(points, cloud, tol, slack)

    def test_cloud_larger_than_a_block_takes_one_row_per_block(self, monkeypatch):
        # 17 cloud rows exceed _BLOCK_ROWS**2 = 16 cells: one row per block.
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(17)
        points = rng.integers(0, 3, size=(40, 2)) / 2.0
        cloud = rng.integers(0, 3, size=(17, 2)) / 2.0
        got = dominated_by(points, cloud)
        assert got.tolist() == self.loop(points, cloud, 0.0, 0.0)
        assert 0 < got.sum() < len(points)

    def test_few_cloud_rows_against_many_points(self):
        """`pprune`'s anchor pass: 4 cloud rows against 70 000 points, in
        blocks of _BLOCK_ROWS**2 // 4 = 16 384 at the default size."""
        rng = np.random.default_rng(70)
        points = rng.integers(0, 4, size=(70_000, 3)) / 4.0
        cloud = rng.integers(0, 4, size=(4, 3)) / 4.0
        assert len(points) > 4 * (geometry._BLOCK_ROWS**2 // 4)
        for tol, slack in ((0.1, 1e-12), (0.25, -0.25)):
            got = dominated_by(points, cloud, tol, slack)
            assert 0 < got.sum() < len(points)
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


class TestExposedSets:
    """The blocked product against one matrix-vector product per row."""

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 256])
    def test_matches_one_product_per_row(self, block_rows, monkeypatch):
        """Small integer weights and points, whose products are exact and
        tie often: blocks of one row, a few rows or all of them give every
        row's tied set as its own product does."""
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        points = rng.integers(0, 3, size=(40, 3)).astype(float)
        weights = rng.integers(-2, 3, size=(25, 3)).astype(float)
        want = []
        for w in weights:
            score = points @ w
            want.append(tuple(np.flatnonzero(score >= score.max() - 0.5).tolist()))
        assert list(exposed_sets(weights, points, 0.5)) == want
        assert any(len(key) > 1 for key in want)

    def test_nan_row_ties_nothing(self):
        weights = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert list(exposed_sets(weights, np.eye(3), 0.0)) == [(0,), (), (1, 2)]

    def test_no_rows(self):
        assert list(exposed_sets(np.zeros((0, 3)), np.eye(3), 0.0)) == []


class TestDropNestedFaces:
    """The by-vertex nesting drop against comparing every pair of faces."""

    @staticmethod
    def face(vids):
        return geometry.FaceRecord(tuple(vids), len(vids) - 1, np.eye(1), np.ones(1), 1.0)

    def test_keeps_maximal_faces_in_order(self):
        faces = [self.face(v) for v in [(0, 1), (1, 2, 3), (0, 1, 4), (2, 3), (5,), (3, 5)]]
        kept = geometry.drop_nested_faces(faces)
        assert [f.vertex_ids for f in kept] == [(1, 2, 3), (0, 1, 4), (3, 5)]
        assert all(any(f is g for g in faces) for f in kept)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        sets = sorted({tuple(sorted(rng.choice(9, rng.integers(1, 6), replace=False).tolist()))
                       for _ in range(40)})
        faces = [self.face(v) for v in sets]
        want = [f for f in faces
                if not any(set(f.vertex_ids) < set(g.vertex_ids) for g in faces)]
        assert geometry.drop_nested_faces(faces) == want

    def test_no_faces(self):
        assert geometry.drop_nested_faces([]) == []


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
            for face in support_faces(pts, apex, 1e-9):
                assert apex in face.vertex_ids
                assert face.normals.shape == (1, 3)
                assert face.alpha.tolist() == [1.0]
                w = face.normals[0]
                assert (w > 0).all()
                assert face.t_star == w.min()
                values = pts @ w
                on_face = values[list(face.vertex_ids)]
                assert on_face.max() - on_face.min() <= 1e-9
                assert values.max() <= on_face.min() + 1e-9

    def test_faces_per_apex(self):
        pts = planar_cloud()
        got = {
            apex: [(f.vertex_ids, f.dim) for f in support_faces(pts, apex, 1e-9)]
            for apex in range(len(pts))
        }
        assert got == {
            0: [((0, 2), 1)],
            1: [((1, 2), 1)],
            2: [((1, 2), 1), ((0, 2), 1)],
            3: [],
            4: [],
        }


def positive_sphere_points(rng, n: int, dim: int) -> np.ndarray:
    """n points on the unit sphere in the positive orthant. None dominates
    another, and each is the one maximizer of its own w = p > 0 over the
    ball, so each is a vertex of any closed set of them."""
    pts = np.abs(rng.normal(size=(n, dim)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def flat_points(rng, n: int, dim: int, k: int) -> np.ndarray:
    """n random points on a random k-flat in dim dimensions."""
    return rng.normal(size=dim) + rng.normal(size=(n, k)) @ rng.normal(size=(k, dim))


class TestCloseBelow:
    def test_appended_rows_come_last_and_lie_below(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 5):
            pts = rng.normal(size=(7, dim))
            closed = close_below(pts)
            assert closed.shape == (7 + dim, dim)
            assert closed[:7].tobytes() == pts.tobytes()
            spread = (pts.max(axis=0) - pts.min(axis=0)).max()
            for j, row in enumerate(closed[7:]):
                assert (row[None, :] <= pts).all()
                assert (row[j] <= pts[:, j] - spread).all()
            # So every strictly positive weight scores them below every point.
            for w in rng.random(size=(20, dim)) + 1e-3:
                assert (closed[7:] @ w).max() < (pts @ w).min()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_flat_sets_of_every_dimension_span_all_dimensions(self, dim):
        rng = np.random.default_rng(dim)
        for k in range(1, dim):
            for n in (2, k + 1, 3 * dim):
                pts = flat_points(rng, max(n, k + 1), dim, k)
                assert affine_dimension(pts) == k
                closed = close_below(pts)
                assert affine_dimension(closed) == dim
                convex_hull(closed)

    def test_two_distinct_points_are_enough(self):
        pts = np.array([[1.0, 2, 3, 4], [1.0, 2, 3, 4], [1.0, 2, 3, 4 + 1e-6]])
        assert affine_dimension(close_below(pts)) == 4
        with pytest.raises(DegenerateHullError):
            convex_hull(close_below(np.ones((3, 4))))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_faces_through_point_0_equal_the_direct_tests(self, dim):
        """On sets of at most D points, all too flat for a hull of their
        own, the descent on the closed hull finds the faces through point 0
        that `support_faces` finds, by vertex set and dimension, each once.
        The direct tests skip every subset of a subset that passed, so they
        record maximal sets only."""
        rng = np.random.default_rng(10 + dim)
        compared = 0
        for n in range(2, dim + 1):
            for trial in range(12):
                if trial % 2 and dim > 2:
                    # A dependent objective: the mean of the first two.
                    pts = positive_sphere_points(rng, n, dim - 1)
                    pts = np.hstack([pts, pts[:, :2].mean(axis=1, keepdims=True)])
                else:
                    pts = positive_sphere_points(rng, n, dim)
                hull = convex_hull(close_below(pts))
                got = {(f.vertex_ids, f.dim) for f in select_pareto_faces(0, hull)[0]}
                direct = [(f.vertex_ids, f.dim) for f in support_faces(pts, 0, 1e-9)]
                assert len(direct) == len(got) and got == set(direct)
                assert all(max(vids) < n for vids, _ in got)
                compared += 1
        assert compared == 12 * (dim - 1)


def unit_simplex_3d():
    return np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]
    )


def assert_same_facets(hull, want):
    """The hull's normals, offsets and facet masks equal a reference's
    (normal, offset, vertex ids) triples bit for bit, in order."""
    assert len(hull.facet_masks) == len(hull.offsets) == len(hull.normals) == len(want)
    for k, (w, c, vids) in enumerate(want):
        assert hull.normals[k].tobytes() == w.tobytes()
        assert hull.offsets[k] == c
        assert mask_ids(hull.facet_masks[k]) == list(vids)


def facet_vertex_sets(hull):
    return {frozenset(mask_ids(m)) for m in hull.facet_masks}


class TestConvexHull:
    def test_simplex_has_four_facets(self):
        hull = convex_hull(unit_simplex_3d())
        assert len(hull.facet_masks) == len(hull.normals) == len(hull.offsets) == 4
        assert hull.vertex_ids == (0, 1, 2, 3)

    def test_square_with_center(self):
        pts = np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert len(hull.facet_masks) == len(hull.normals) == len(hull.offsets) == 4
        assert 4 not in hull.vertex_ids

    def test_cube_merges_coplanar_facets(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        hull = convex_hull(corners)
        assert len(hull.facet_masks) == len(hull.normals) == len(hull.offsets) == 6
        assert all(m.bit_count() == 4 for m in hull.facet_masks)

    @staticmethod
    def lifted_cube():
        """The unit cube with corner (1, 1, 1) lifted by 1e-8 in z: the top
        square folds into two triangles whose planes differ by about 1e-8."""
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        corners[7, 2] += 1e-8
        return corners

    def test_lifted_cube_keeps_the_fold_at_the_default_tolerance(self):
        hull = convex_hull(self.lifted_cube())
        assert len(hull.facet_masks) == 7
        assert len(set(hull.facet_masks)) == 7
        assert sorted(m.bit_count() for m in hull.facet_masks) == [3, 3, 4, 4, 4, 4, 4]
        assert_same_facets(hull, loop_hull_facets(self.lifted_cube()))

    def test_plane_dedupe_uses_the_incidence_tolerance(self):
        """At eps_geom=1e-6 all four top corners lie on both fold planes.
        The dedupe compared planes to a fixed 1e-9, so it kept both and
        listed the top square twice; with eps_geom it keeps one."""
        hull = convex_hull(self.lifted_cube(), eps_geom=1e-6)
        assert len(hull.facet_masks) == len(hull.normals) == len(hull.offsets) == 6
        assert len(set(hull.facet_masks)) == 6
        assert all(m.bit_count() == 4 for m in hull.facet_masks)
        want = loop_hull_facets(self.lifted_cube(), eps_geom=1e-6)
        assert_same_facets(hull, want)
        assert_same_facets(hull, unblocked_hull_facets(self.lifted_cube(), eps_geom=1e-6))

    def test_all_points_inside_every_facet(self):
        pts = np.random.default_rng(3).normal(size=(30, 3))
        hull = convex_hull(pts)
        scale = max(1.0, np.abs(pts).max())
        for w, c in zip(hull.normals, hull.offsets):
            assert (pts @ w - c).max() <= 1e-9 * scale
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    def test_facets_oriented_outward(self):
        pts = np.random.default_rng(4).normal(size=(15, 3))
        hull = convex_hull(pts)
        centroid = pts.mean(axis=0)
        for w, c in zip(hull.normals, hull.offsets):
            assert w @ centroid < c

    def test_matches_hyperplane_enumeration_3d(self):
        pts = np.random.default_rng(12).random((20, 3))
        hull = convex_hull(pts)
        assert facet_vertex_sets(hull) == supporting_hyperplane_facets(pts)

    def test_matches_hyperplane_enumeration_4d(self):
        pts = np.random.default_rng(21).normal(size=(10, 4))
        hull = convex_hull(pts)
        assert facet_vertex_sets(hull) == supporting_hyperplane_facets(pts)

    def test_facet_masks_past_bit_64_match_the_plane_loop(self):
        """Points on a sphere are all hull vertices, so the masks reach past
        bit 64."""
        top_bits = []
        for seed, dim, n in ((3, 3, 80), (21, 4, 70), (0, 5, 40)):
            pts = np.random.default_rng(seed).normal(size=(n, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            hull = convex_hull(pts)
            assert_same_facets(hull, loop_hull_facets(pts))
            top = max(m.bit_length() for m in hull.facet_masks) - 1
            assert top == max(hull.vertex_ids) >= 39
            top_bits.append(top)
        assert max(top_bits) > 64

    def test_flat_cloud_raises(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
        with pytest.raises(DegenerateHullError, match="affine dimension 2 < ambient dimension 3"):
            convex_hull(pts)

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
        """Qhull's own outward normals equal the loop's, which orients each
        plane by the centroid and, where the centroid lies on the plane, by
        the apex. The one-mask reference, which compares every copy of a
        plane too, keeps the same facets."""
        pts = self.CLOUDS[name]()
        hull = convex_hull(pts)
        assert_same_facets(hull, loop_hull_facets(pts, apex_id=apex_id))
        assert_same_facets(hull, unblocked_hull_facets(pts, apex_id=apex_id))

    @pytest.mark.parametrize("name", ["cube-centres", "grid-2x3", "lattice-D3", "lattice-D4"])
    def test_close_plane_pass_sees_each_equation_once(self, name, monkeypatch):
        """Clock-free: Qhull's exact equation copies are dropped before the
        tolerance pass, so its closeness mask covers only the distinct rows,
        first occurrences in Qhull's order."""
        from scipy.spatial import ConvexHull

        pts = self.CLOUDS[name]()
        eqs = ConvexHull(pts).equations
        firsts = np.sort(np.unique(eqs, axis=0, return_index=True)[1])
        assert len(firsts) < len(eqs)
        seen = []
        merge = geometry._merge_close_planes

        def recording(normals, offsets, tol, eps_geom):
            seen.append((normals, offsets))
            return merge(normals, offsets, tol, eps_geom)

        monkeypatch.setattr(geometry, "_merge_close_planes", recording)
        convex_hull(pts)
        ((normals, offsets),) = seen
        assert len(offsets) == len(firsts)
        np.testing.assert_allclose(normals, eqs[firsts, :-1], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(offsets, -eqs[firsts, -1], rtol=0.0, atol=1e-12)

    def test_flat_apex_cloud_base_facet_points_down(self):
        """The centroid lies within 1e-9 of the base plane, so it cannot
        tell the base normal's side; Qhull's own normal points away from
        the apex."""
        pts = flat_apex_cloud()
        hull = convex_hull(pts)
        base = [
            k for k, (w, c) in enumerate(zip(hull.normals, hull.offsets))
            if abs(w @ pts.mean(axis=0) - c) <= 1e-9
        ]
        assert len(base) == 1
        np.testing.assert_allclose(hull.normals[base[0]], [0.0, 0.0, -1.0], atol=1e-12)
        assert hull.normals[base[0]] @ pts[0] < hull.offsets[base[0]]
        assert mask_ids(hull.facet_masks[base[0]]) == [1, 5, 16, 20]

    @pytest.mark.parametrize("name", ["cube-centres", "grid-2x3", "lattice-D3", "lattice-D4"])
    def test_clouds_have_triangulated_facets(self, name):
        """Qhull reports more planes than there are facets, so the dedupe
        has work to do on these clouds."""
        from scipy.spatial import ConvexHull

        pts = self.CLOUDS[name]()
        assert len(ConvexHull(pts).equations) > len(convex_hull(pts).facet_masks)


class TestBlockedPlaneDedupe:
    """`convex_hull`'s plane merge on a cloud with many triangulated
    facets against the one-mask reference."""

    @staticmethod
    def cloud():
        """81 lattice points in D=5: 538 Qhull planes, 51 facets."""
        pts = np.random.default_rng(0).integers(0, 3, size=(100, 5)).astype(float)
        return np.unique(pts, axis=0)

    @pytest.mark.parametrize("scale", [1, 7, 64, 256])
    def test_facets_equal_the_unblocked_mask(self, scale):
        """The merge's tolerance on offsets is eps_geom times the cloud's
        largest coordinate; at each scale of the lattice the facets are
        the reference's."""
        from scipy.spatial import ConvexHull

        pts = self.cloud() * scale
        planes = len(ConvexHull(pts).equations)
        assert planes > 256
        want = unblocked_hull_facets(pts, apex_id=0)
        assert len(want) < planes
        assert_same_facets(convex_hull(pts), want)

    def test_unblocked_reference_equals_the_plane_loop(self):
        pts = self.cloud()
        for f, g in zip(unblocked_hull_facets(pts), loop_hull_facets(pts), strict=True):
            assert f[0].tobytes() == g[0].tobytes()
            assert f[1:] == g[1:]


def planted_planes(seed: int, tol: float, eps_geom: float):
    """1 to 199 random planes in D = 2 to 6 and up to as many planted ones,
    in random order. The random planes have unit normals and offsets spread
    over [-1, 1] or within 3 tol of 0. The planted ones are exact copies;
    near copies off by up to 1.5 eps_geom per normal coordinate and 1.5 tol
    in offset, so some are close and some not; chains a, b, c with steps of
    0.75 of both, a close to b and b to c but a not to c; and planes given
    another plane's offset exactly."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, 200))
    normals = rng.normal(size=(n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(-1.0, 1.0, n) if seed % 2 else rng.uniform(-3.0, 3.0, n) * tol
    rows, offs = list(normals), list(offsets)
    step = np.full(d, 0.75 * eps_geom)
    for _ in range(int(rng.integers(0, n + 1))):
        i = int(rng.integers(n))
        kind = rng.integers(4)
        if kind == 0:
            rows.append(normals[i])
            offs.append(offsets[i])
        elif kind == 1:
            rows.append(normals[i] + rng.uniform(-1.5, 1.5, d) * eps_geom)
            offs.append(offsets[i] + rng.uniform(-1.5, 1.5) * tol)
        elif kind == 2:
            rows += [normals[i] + step, normals[i] + 2 * step]
            offs += [offsets[i] + 0.75 * tol, offsets[i] + 1.5 * tol]
        else:
            rows.append(rng.normal(size=d))
            offs.append(offsets[i])
    order = rng.permutation(len(offs))
    return np.array(rows)[order], np.array(offs)[order]


class TestPlaneMerge:
    """`_merge_close_planes`, which tests only the pairs whose offsets a
    sort brings within 2 tol, against the one-mask greedy merge."""

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    @pytest.mark.parametrize("eps_geom", [0.0, 1e-9, 1e-6])
    def test_random_sets_equal_the_full_mask(self, eps_geom, scale):
        tol = eps_geom * scale
        merged = 0
        for seed in range(120):
            normals, offsets = planted_planes(seed, tol, eps_geom)
            want = greedy_plane_merge(normals, offsets, tol, eps_geom)
            assert geometry._merge_close_planes(normals, offsets, tol, eps_geom) == want
            merged += len(offsets) - len(want)
        assert merged > 1000

    CHAIN = (
        np.array([[0.6, 0.8], [0.6 + 7.5e-10, 0.8 + 7.5e-10], [0.6 + 1.5e-9, 0.8 + 1.5e-9]]),
        np.array([0.0, 7.5e-10, 1.5e-9]),
    )

    @pytest.mark.parametrize("order,kept", [([0, 1, 2], [0, 2]), ([1, 0, 2], [0]), ([2, 1, 0], [0, 2])])
    def test_chain_keeps_by_order(self, order, kept):
        """a is close to b and b to c, but a is not close to c: a first
        keeps c, b first takes both."""
        normals, offsets = (x[order] for x in self.CHAIN)
        assert geometry._merge_close_planes(normals, offsets, 1e-9, 1e-9) == kept
        assert greedy_plane_merge(normals, offsets, 1e-9, 1e-9) == kept

    def test_offsets_straddling_zero_merge(self):
        normals = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        offsets = np.array([4e-10, -4e-10, 0.0])
        assert geometry._merge_close_planes(normals, offsets, 1e-9, 1e-9) == [0, 2]

    def test_tied_offsets_keep_distinct_normals(self):
        normals = np.array([[1.0, 0.0], [1.0, 2e-9], [1.0, 5e-10], [0.0, 1.0]])
        offsets = np.full(4, 0.5)
        assert geometry._merge_close_planes(normals, offsets, 1e-9, 1e-9) == [0, 1, 3]

    def test_no_planes(self):
        assert geometry._merge_close_planes(np.zeros((0, 3)), np.zeros(0), 1e-9, 1e-9) == []


def apex_rows(hull, apex_id):
    """The hull's facets whose masks hold the apex, as (normal, offset,
    vertex ids) triples in order."""
    return [
        (hull.normals[k], float(hull.offsets[k]), mask_ids(m))
        for k, m in enumerate(hull.facet_masks)
        if m >> apex_id & 1
    ]


def roof_cloud():
    """A box whose roof folds by 1.5e-9 along a line through the origin.
    The roof's first plane, z = 0, holds points 0, 1 and 2; its second,
    tilted by 7.5e-10 per coordinate toward point 3, holds points 1, 2 and
    3 and passes 1.5e-9 above point 0. Within tol = 1e-9 the two planes
    merge, and Qhull lists z = 0 first, so the full build keeps no roof
    facet through point 3; point 3's height over z = 0, and point 0's over
    the tilted plane, lie in (tol, (2 + D) tol]."""
    return np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0],
            [-1.0, -1.0, -1.5e-9],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, -1.0],
        ]
    )


class TestApexHull:
    """`convex_hull(pts, apex=k)` against the full build: exactly the
    facets whose masks hold k, bit for bit and in order."""

    CLOUDS = {
        **TestFacetDedupe.CLOUDS,
        **{
            f"closed-flat-D{d}-k{k}": (
                lambda d=d, k=k: close_below(flat_points(np.random.default_rng(d + k), 4 * d, d, k))
            )
            for d in (3, 4, 5)
            for k in range(1, d)
        },
        "closed-dependent-D4": lambda: close_below(
            (lambda p: np.hstack([p, p[:, :2].mean(axis=1, keepdims=True)]))(lattice_cloud(4, 3))
        ),
        "roof": roof_cloud,
    }

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_apex_facets_are_the_full_builds_rows(self, name):
        """Every hull vertex as the apex, and the first few points that are
        not hull vertices, which get no facets."""
        pts = self.CLOUDS[name]()
        full = convex_hull(pts)
        inner = [i for i in range(len(pts)) if i not in full.vertex_ids]
        for apex_id in [*full.vertex_ids, *inner[:3]]:
            want = apex_rows(full, apex_id)
            hull = convex_hull(pts, apex=apex_id)
            assert_same_facets(hull, want)
            assert hull.vertex_ids == full.vertex_ids
            assert (want == []) == (apex_id in inner)

    def test_near_miss_plane_runs_the_full_merge(self):
        """On the roof, point 3's one roof plane merges into the plane kept
        before it, which passes more than tol from point 3; the planes
        through point 3 merged on their own would keep it. Every plane is
        merged, so point 3 gets no roof facet, as in the full build."""
        pts = roof_cloud()
        hull = convex_hull(pts, apex=3)
        assert [mask_ids(m) for m in hull.facet_masks] == [[2, 3, 6, 7], [1, 3, 5, 7]]
        assert_same_facets(hull, apex_rows(convex_hull(pts), 3))


def assert_outward_unit_normals(hull):
    """Every normal of the hull is a unit vector, and every point lies at
    height at most the incidence tolerance over every facet plane."""
    tol = 1e-9 * max(1.0, float(np.abs(hull.points).max()))
    norms = np.sqrt(np.einsum("ij,ij->i", hull.normals, hull.normals))
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert (hull.points @ hull.normals.T - hull.offsets).max() <= tol


class TestQhullOrientation:
    """`convex_hull` takes Qhull's normals as given, with no orientation
    vote. These are the sets where the vote could have mattered: flat sets
    closed off below, whose appended rows sit far from the rest, and a
    cloud whose centroid lies within rounding of a facet plane."""

    def test_flat_apex_cloud(self):
        assert_outward_unit_normals(convex_hull(flat_apex_cloud()))

    def test_degenerate_benchmark_hulls(self, monkeypatch):
        """Every point set search and the oracle hand to `convex_hull` on
        the benchmark's dupact and depobj instances. Each one that raises is
        flat, and the set handed over next is that set closed off below,
        whose hull builds with outward unit normals. The oracle's returns
        are planar on three dupact instances; on depobj they and every
        local set of search span only three of four dimensions."""
        inputs = []

        def recording(points, **kwargs):
            inputs.append((name, points))
            return convex_hull(points, **kwargs)

        for module in ("search", "oracle"):
            monkeypatch.setattr(
                importlib.import_module(f"momdp_pareto.{module}"), "convex_hull", recording
            )
        for inst in benchmark_instances():
            name = inst.name
            if name.startswith(("dupact", "depobj")):
                importlib.import_module("momdp_pareto.search").search(inst.build())
                oracle.brute_force_front(inst.build())
        closed = []
        for (name, pts), (next_name, following) in zip(inputs, inputs[1:] + [(None, None)]):
            try:
                hull = convex_hull(pts)
            except DegenerateHullError:
                assert affine_dimension(pts, 1e-6) < pts.shape[1]
                assert next_name == name
                assert following.tobytes() == close_below(pts).tobytes()
                closed.append(name)
                continue
            assert_outward_unit_normals(hull)
        assert sorted(set(closed)) == [
            "depobj-S5-A3-D4-s1",
            *(f"dupact-S4-A3-D3-s{s}" for s in range(3)),
        ]
        assert closed.count("depobj-S5-A3-D4-s1") > 10


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
        """A D=5 descent scans the hull's facet masks once, for its apex's
        facets, and hands their masks to every subface step, so
        `subfaces_at` never reads the hull's masks. Nothing is kept on the
        hull: each `incident_facets` call is one scan of its own."""

        class CountingMasks(tuple):
            scans = 0
            # Reads of the masks made while `subfaces_at` runs.
            read_by_subfaces = 0
            in_subfaces = False

            def __iter__(self):
                CountingMasks.scans += 1
                CountingMasks.read_by_subfaces += CountingMasks.in_subfaces
                return super().__iter__()

            def __getitem__(self, key):
                CountingMasks.read_by_subfaces += CountingMasks.in_subfaces
                return super().__getitem__(key)

        search_module = importlib.import_module("momdp_pareto.search")
        handed = []

        def counted_subfaces_at(face, dim, masks):
            handed.append(list(masks))
            CountingMasks.in_subfaces = True
            try:
                return subfaces_at(face, dim, masks)
            finally:
                CountingMasks.in_subfaces = False

        monkeypatch.setattr(search_module, "subfaces_at", counted_subfaces_at)
        built = convex_hull(np.random.default_rng(0).normal(size=(30, 5)))
        hull = dataclasses.replace(built, facet_masks=CountingMasks(built.facet_masks))
        # The facets through vertex 6 miss an objective, so its descent ends
        # after the scan; 7, 8 and 9 descend.
        apexes = hull.vertex_ids[5:9]
        normals = [built.normals[apex_facet_ids(built, a)] for a in apexes]
        assert [passes_sign_screen(w, 1e-9) for w in normals] == [False, True, True, True]
        calls = 0
        for k, apex in enumerate(apexes):
            search_module.select_pareto_faces(apex, hull)
            assert CountingMasks.scans == k + 1
            assert handed[calls:] == [apex_masks(built, apex)] * (len(handed) - calls)
            assert (len(handed) > calls) == (k > 0)
            calls = len(handed)
        assert calls > 3 * len(apexes)
        assert CountingMasks.read_by_subfaces == 0
        assert [incident_facets(hull, a) for a in apexes] == [
            tuple(apex_facet_ids(built, a)) for a in apexes
        ]
        assert CountingMasks.scans == 2 * len(apexes)


class TestSubfaces:
    def test_tetrahedron_facet_yields_two_edges(self):
        hull = convex_hull(unit_simplex_3d())
        apex = 0
        fid = incident_facets(hull, apex)[0]
        subs = subfaces_at(hull.facet_masks[fid], 2, apex_masks(hull, apex))
        assert len(subs) == 2
        for sub in subs:
            ids = mask_ids(sub)
            assert apex in ids
            assert len(ids) == 2
            # The apex facets holding every vertex of the edge.
            defining = [
                fi for fi in incident_facets(hull, apex) if sub & hull.facet_masks[fi] == sub
            ]
            assert fid in defining and len(defining) >= 2

    def test_edge_has_no_subfaces(self):
        hull = convex_hull(unit_simplex_3d())
        assert subfaces_at(0b11, 1, apex_masks(hull, 0)) == []

    def test_cube_square_facet_yields_two_edges(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        hull = convex_hull(corners)
        apex = 0
        fid = incident_facets(hull, apex)[0]
        subs = subfaces_at(hull.facet_masks[fid], 2, apex_masks(hull, apex))
        assert len(subs) == 2
        for sub in subs:
            assert len(mask_ids(sub)) == 2

    def test_pyramid_apex_drops_the_corner_nested_in_both_edges(self):
        """Four triangles meet at a square pyramid's apex. One of them meets
        its two neighbours in edges and the opposite triangle in the apex
        alone, which lies inside both edges, so only the edges are kept."""
        pts = np.array(
            [[1.0, 1, 0], [1.0, -1, 0], [-1.0, -1, 0], [-1.0, 1, 0], [0.0, 0, 1]]
        )
        hull = convex_hull(pts)
        apex = 4
        face, *others = apex_masks(hull, apex)
        assert [face & m for m in others].count(1 << apex) == 1
        subs = subfaces_at(face, 2, [face, *others])
        assert len(subs) == 2
        assert all(s.bit_count() == 2 and s >> apex & 1 for s in subs)
        assert subs == svd_subfaces_at(face, hull, apex)

    def test_lattice_cloud_takes_both_rules(self):
        """The 81 lattice points of `TestBlockedPlaneDedupe` have many faces
        that are not simplices. Walking the face lattice down from several
        hull vertices, every face gets the subfaces of the pairwise filter
        and of the SVD rule, in order, whether its vertex count makes it a
        simplex or sends it through the pairwise filter."""
        hull = convex_hull(TestBlockedPlaneDedupe.cloud())
        faces = {True: 0, False: 0}
        for apex in hull.vertex_ids[::10]:
            masks = apex_masks(hull, apex)
            dims = dict.fromkeys(masks, hull.ambient_dim - 1)
            queue = deque(dims)
            while queue:
                mask = queue.popleft()
                dim = dims[mask]
                subs = subfaces_at(mask, dim, masks)
                assert subs == pairwise_subfaces_at(mask, dim, hull, apex)
                assert subs == svd_subfaces_at(mask, hull, apex)
                if dim > 1:
                    faces[mask.bit_count() == dim + 1] += 1
                for sub in subs:
                    if sub not in dims:
                        dims[sub] = dim - 1
                        queue.append(sub)
        assert faces[True] > 10 and faces[False] > 10

    def test_rejects_faces_of_dimension_zero(self):
        hull = convex_hull(unit_simplex_3d())
        with pytest.raises(ValueError, match="face dimension must be >= 1, got 0"):
            subfaces_at(0b1, 0, apex_masks(hull, 0))


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


def assert_ridge_matches_linprog(W, eps_pos: float = 1e-9):
    """`pareto_lp` over two normals against linprog: alpha and t_star
    within 1e-12, and the same verdict at eps_pos. Returns the certificate."""
    cert = pareto_lp(W)
    alpha, t_star = linprog_pareto_lp(W)
    assert np.abs(cert.alpha - alpha).max() <= 1e-12
    assert abs(cert.t_star - t_star) <= 1e-12
    assert (cert.t_star > eps_pos) == (t_star > eps_pos)
    return cert


def ridge_instances():
    """MDP builders by name: the golden instances, and duplicated actions,
    dependent objectives, 2x2 gridworlds and gamma 0 at D = 3 to 5."""
    return {
        **{f"golden-{name}": build for name, build in GOLDEN_INSTANCES.items()},
        **degenerate_instances(),
    }


RIDGE_INSTANCES = ridge_instances()


class TestRidgeLp:
    """Two normals are solved in closed form (`geometry._ridge_lp`), not by
    HiGHS; the certificate must agree with linprog's to rounding."""

    def test_random_stacks(self):
        rng = np.random.default_rng(41)
        verdicts = set()
        for d in range(2, 7):
            for _ in range(60):
                W = rng.normal(size=(2, d)) + rng.uniform(-0.5, 1.0)
                verdicts.add(assert_ridge_matches_linprog(W).t_star > 1e-9)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", sorted(RIDGE_INSTANCES))
    def test_stacks_from_search_and_the_oracle(self, name, monkeypatch):
        """Every two-normal stack that `search` and `brute_force_front` pass
        to `pareto_lp` on the instance."""
        search_module = importlib.import_module("momdp_pareto.search")
        solve, ridges = search_module.pareto_lp, []

        def keeping(normals):
            if len(normals) == 2:
                ridges.append(normals)
            return solve(normals)

        monkeypatch.setattr(search_module, "pareto_lp", keeping)
        mdp = RIDGE_INSTANCES[name]()
        search_module.search(mdp)
        if mdp.num_actions**mdp.num_states <= 100_000:
            oracle.brute_force_front(mdp)
        for W in ridges:
            assert_ridge_matches_linprog(W)

    def test_takes_no_highs_call(self, monkeypatch):
        def refused(*args):
            raise AssertionError("HiGHS called")

        monkeypatch.setattr(geometry, "_highs_lp", refused)
        cert = pareto_lp(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert cert.alpha.tolist() == [0.5, 0.5] and cert.t_star == 0.25

    def test_endpoint_optimum(self):
        """Every coordinate rises from v to u, so a = 1 is optimal."""
        W = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        cert = assert_ridge_matches_linprog(W)
        assert cert.alpha.tolist() == [1.0, 0.0]
        assert cert.t_star == 1.0
        assert cert.dual.tolist() == [1.0, 0.0, 0.0]

    def test_flat_top(self):
        """Coordinate 1 is 0.5 for every weight and the minimum for a in
        [0.25, 0.75], so the optimum is not unique: the first optimal
        candidate, the crossing of coordinates 0 and 1 at a = 0.25, is
        taken every time, with linprog's t_star."""
        W = np.array([[2.0, 0.5, 0.0], [0.0, 0.5, 2.0]])
        t_star = linprog_pareto_lp(W)[1]
        for _ in range(3):
            cert = pareto_lp(W)
            assert cert.alpha.tolist() == [0.25, 0.75]
            assert cert.t_star == t_star == 0.5
            assert cert.dual.tolist() == [0.0, 1.0, 0.0]

    def test_zero_column(self):
        for W in (
            np.array([[1.0, 0.0, -1.0], [-0.5, 0.0, 2.0]]),
            np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]]),
        ):
            t_star = linprog_pareto_lp(W)[1]
            cert = pareto_lp(W)
            assert cert.t_star == t_star == 0.0
            assert pareto_lp(W).alpha.tobytes() == cert.alpha.tobytes()
            assert cert.dual.tolist() == [0.0, 1.0, 0.0]

    def test_identical_rows(self):
        """Every weight is optimal; a = 0, the first candidate, is taken
        (linprog's HiGHS takes a = 1), with linprog's t_star."""
        W = np.array([[0.3, -0.2, 0.9]] * 2)
        cert = pareto_lp(W)
        assert cert.t_star == linprog_pareto_lp(W)[1]
        assert cert.alpha.tolist() == [0.0, 1.0]
        assert cert.t_star == -0.2
        assert cert.dual.tolist() == [0.0, 1.0, 0.0]

    def test_dual_lies_on_the_simplex_and_attains_t_star(self):
        """The dual is some e_j or a mix of two objectives."""
        rng = np.random.default_rng(42)
        mixes = 0
        for d in range(2, 7):
            for _ in range(100):
                W = rng.normal(size=(2, d)) + rng.uniform(-0.5, 1.0)
                W /= np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]
                cert = pareto_lp(W)
                assert cert.dual.min() >= 0.0
                assert abs(cert.dual.sum() - 1.0) <= 1e-15
                assert abs((W @ cert.dual).max() - cert.t_star) <= 1e-15
                assert np.count_nonzero(cert.dual) in (1, 2)
                mixes += np.count_nonzero(cert.dual) == 2
        assert mixes > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_entries_that_are_not_finite_rejected(self, bad):
        W = np.array([[1.0, 0.5, 0.2], [0.1, 0.4, 0.9]])
        W[1, 2] = bad
        message = r"^normals of shape \(2, 3\) have entries that are not finite$"
        with pytest.raises(ValueError, match=message):
            pareto_lp(W)


class TestLpsMatchLinprog:
    """Both LPs hand HiGHS the model and options of `scipy.optimize.linprog`
    and accept its solution on linprog's terms, so certificates match a
    linprog reference bit for bit. These tests fail when a scipy release
    changes the HiGHS bindings under that contract. Two normals are solved
    in closed form instead, and matched to 1e-12 (`TestRidgeLp`)."""

    @staticmethod
    def assert_same_certificate(W):
        if len(W) == 2:
            assert_ridge_matches_linprog(W)
            return
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


def screen_verdict(W: np.ndarray, eps_pos: float) -> bool:
    """The sign screen as the descent reads it: the rows' sign masks OR to
    all D bits."""
    return functools.reduce(operator.or_, sign_masks(W, eps_pos), 0) == (1 << W.shape[1]) - 1


class TestSignScreen:
    def test_masks_hold_the_entries_above_eps_pos(self):
        W = np.array([[2e-9, -1.0, 1e-9, 0.5], [0.0, 3.0, np.nan, -2.0]])
        assert sign_masks(W, 1e-9) == [0b1001, 0b0010]
        assert all(type(m) is int for m in sign_masks(W, 1e-9))
        assert sign_masks(np.zeros((0, 3)), 1e-9) == []

    def test_verdict_equals_the_column_rule(self):
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(300):
            n, d = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            W = rng.normal(size=(n, d)) + rng.uniform(-1.5, 0.5)
            W[rng.random(W.shape) < 0.1] = 1e-9
            verdicts.add(screen_verdict(W, 1e-9))
            assert screen_verdict(W, 1e-9) == passes_sign_screen(W, 1e-9)
        assert verdicts == {True, False}

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
            assert not screen_verdict(W, eps_pos)
            assert pareto_lp(W).t_star <= eps_pos

    def test_positive_entry_in_every_column_passes(self):
        W = np.array([[1.0, -1.0, 2e-9], [-1.0, 1.0, -3.0]])
        assert passes_sign_screen(W, 1e-9)
        assert screen_verdict(W, 1e-9)
        # Passing the screen leaves the verdict to the LP.
        assert not pareto_lp(W).t_star > 1e-9


def unit_normal_stacks(seed: int, count: int):
    """Random stacks of 2-12 unit normals in 3-6 objectives, shifted so that
    both passing and failing positivity LPs occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, n = int(rng.integers(3, 7)), int(rng.integers(2, 13))
        W = rng.normal(size=(n, d)) + rng.uniform(-0.5, 1.0)
        yield rng, W / np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]


def screen_value(pool: DualPool, W: np.ndarray) -> float:
    """The smallest max_i (W y)_i over the pool, computed as the screen does."""
    return float((W @ pool.ys.T).max(axis=0).min())


class TestDualScreen:
    def test_dual_lies_on_the_simplex_and_attains_the_optimum(self):
        for _, W in unit_normal_stacks(1, 200):
            cert = pareto_lp(W)
            assert cert.dual.min() >= -1e-12
            assert abs(cert.dual.sum() - 1.0) <= 1e-12
            assert abs((W @ cert.dual).max() - cert.t_star) <= 1e-12

    def test_single_normal_has_no_dual(self):
        assert pareto_lp(np.array([[0.6, -0.8, 0.0]])).dual is None

    def test_rules_out_only_what_the_lp_fails(self):
        """For each stack, pool its LP's dual (as given, scaled and mixed
        with random weights) and move eps_pos in single ulps across the
        screen's cut at max_i (W y)_i + _DUAL_SLACK. Whenever the screen
        rules the face out, the LP must fail it; the screen must rule out
        exactly when its value is at most eps_pos - _DUAL_SLACK, and the cut
        must be met exactly at least once."""
        ruled = kept = exact = passing = 0
        for rng, W in unit_normal_stacks(2, 150):
            cert = pareto_lp(W)
            passing += cert.t_star > 0
            mixed = 0.8 * cert.dual + 0.2 * rng.dirichlet(np.ones(W.shape[1]))
            for y in (cert.dual, 0.5 * cert.dual, 3.0 * cert.dual, mixed):
                pool = DualPool()
                pool.add(y)
                value = screen_value(pool, W)
                eps = value + geometry._DUAL_SLACK
                for _ in range(4):
                    eps = np.nextafter(eps, -np.inf)
                outs = []
                for _ in range(9):
                    outs.append(pool.rules_out(W, eps))
                    assert outs[-1] == (value <= eps - geometry._DUAL_SLACK)
                    exact += value == eps - geometry._DUAL_SLACK
                    if outs[-1]:
                        assert not cert.t_star > eps
                    eps = np.nextafter(eps, np.inf)
                assert pool.ruled_out == sum(outs)
                ruled += sum(outs)
                kept += len(outs) - sum(outs)
        assert ruled > 0 and kept > 0 and exact > 0 and passing > 0

    def test_duals_straddling_the_cut_at_the_default_threshold(self):
        """At eps_pos = 1e-9, weights y bisected between a failing LP's dual
        and a simplex point far above the cut land on either side of
        eps_pos - _DUAL_SLACK, as close as the products resolve; the screen
        follows its value, and every face it rules out fails its LP."""
        eps_pos = 1e-9
        cut = eps_pos - geometry._DUAL_SLACK
        straddled = 0
        for rng, W in unit_normal_stacks(3, 300):
            cert = pareto_lp(W)
            far = np.eye(W.shape[1])[int(np.argmax(W.max(axis=0)))]
            lo, hi = cert.dual, far
            pool_lo, pool_hi = DualPool(), DualPool()
            pool_lo.add(lo)
            pool_hi.add(hi)
            if not screen_value(pool_lo, W) <= cut < screen_value(pool_hi, W):
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                pool = DualPool()
                pool.add(mid)
                if screen_value(pool, W) <= cut:
                    lo = mid
                else:
                    hi = mid
            for y in (lo, hi):
                pool = DualPool()
                pool.add(y)
                value = screen_value(pool, W)
                assert abs(value - cut) <= 1e-15
                assert pool.rules_out(W, eps_pos) == (value <= cut)
                if pool.rules_out(W, eps_pos):
                    assert not cert.t_star > eps_pos
            straddled += 1
        assert straddled >= 20

    def test_add_normalizes_and_skips_weights_with_no_positive_entry(self):
        pool = DualPool()
        pool.add(np.zeros(3))
        pool.add(np.array([-1.0, 0.0, -2.0]))
        assert pool.ys is None
        assert not pool.rules_out(-np.eye(3), 1e-9)
        pool.add(np.array([2.0, -1.0, 6.0]))
        assert pool.ys.tolist() == [[0.25, 0.0, 0.75]]
        # max_i (W y)_i is 0.75 - 0.25 = 0.5 for W = [[-1, 0, 1], ...].
        W = np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        assert pool.rules_out(W, 0.5 + geometry._DUAL_SLACK)
        assert not pool.rules_out(W, 0.5)
        assert pool.ruled_out == 1

    def test_each_hull_keeps_its_own_pool(self):
        search_module = importlib.import_module("momdp_pareto.search")
        rng = np.random.default_rng(0)
        first = convex_hull(rng.normal(size=(30, 5)))
        second = convex_hull(rng.normal(size=(30, 5)))
        assert first.duals is not second.duals
        assert first.duals.ys is None and second.duals.ys is None
        for apex in first.vertex_ids:
            search_module.select_pareto_faces(apex, first)
        assert first.duals.ys is not None and first.duals.ruled_out > 0
        assert second.duals.ys is None and second.duals.ruled_out == 0


def passes_positivity(normals, eps_pos: float = 1e-9) -> bool:
    """The descent's verdict on a face with these defining normals: the sign
    screen, then the positivity LP above eps_pos."""
    W = np.asarray(normals, dtype=float)
    return screen_verdict(W, eps_pos) and pareto_lp(W).t_star > eps_pos


class TestIsParetoFace:
    def test_positive_normal(self):
        assert passes_positivity(np.array([[1.0, 1.0, 1.0]]))

    def test_opposing_pair(self):
        W = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
        assert not screen_verdict(W, 1e-9)
        assert not passes_positivity(W)

    def test_axis_pair_combines_positive(self):
        assert passes_positivity(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_malformed_normals_rejected(self):
        for bad in (np.zeros((0, 2)), np.ones(3)):
            with pytest.raises(ValueError, match="need a nonempty 2-d array of normals"):
                pareto_lp(bad)


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
            for w, m in zip(hull.normals, hull.facet_masks):
                t = float(w.min())
                sub = pts[mask_ids(m)]
                samples = barycentric_grid(sub.shape[0], steps=3) @ sub
                if t > 1e-6:
                    checked_pos += 1
                    for p in samples:
                        assert not dominated_in_cloud(p, cloud, eps=1e-9 * scale)
                elif t < -1e-6:
                    checked_neg += 1
                    j = int(w.argmin())
                    centroid = sub.mean(axis=0)
                    inside = False
                    for delta in (1e-4, 1e-6, 1e-8):
                        witness = centroid.copy()
                        witness[j] += delta * scale
                        inside = all(
                            g @ witness <= c + 1e-9 * scale
                            for g, c in zip(hull.normals, hull.offsets)
                        )
                        if inside:
                            break
                    assert inside
                    assert dominated_in_cloud(centroid, witness[None, :], eps=0.0)
        assert checked_pos >= 1 and checked_neg >= 1
