import dataclasses

import numpy as np
import pytest

from momdp_pareto import (
    EnumerationCapError,
    ParetoFront,
    SearchConfig,
    bench_suite,
    brute_force_front,
    compare_fronts,
    gen_gridworld,
    gen_random_mdp,
    search,
    verify_front,
)
from momdp_pareto.oracle import _all_policies, _face_weights

from helpers import make_bandit, product_grid_weights


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
        with pytest.raises(EnumerationCapError) as err:
            brute_force_front(m, cap=100)
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


def test_all_policies_lexicographic():
    pols = _all_policies(3, 2)
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

    def test_single_vertex_front_vacuous(self):
        m = gen_random_mdp(1, 4, 3, 1)
        report = verify_front(m, brute_force_front(m))
        assert report.passed
        assert report.face_checks == []


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
