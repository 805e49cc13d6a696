"""End-to-end acceptance sweep.

One test per acceptance property; each prints its measured numbers. The
corpus fixture drives the actual command-line entry points so the files,
exit codes and reports are exactly what a user would see.
"""

import dataclasses
import importlib
import json
import time

import numpy as np
import pytest

from momdp_pareto import (
    Mdp,
    ParetoFront,
    gen_gridworld,
    gen_random_mdp,
    long_term_return,
    search,
    verify_front,
    SearchConfig,
)
from momdp_pareto.geometry import convex_hull, incident_facets, mask_ids
from momdp_pareto.mdp import (
    enumerate_deterministic,
    hamming_distance,
    mix_policies,
    neighbors_one,
)
from momdp_pareto.oracle import bench_suite
from momdp_pareto.search import select_pareto_faces
from momdp_pareto.cli import main
from momdp_pareto.serialize import front_from_dict, mdp_from_dict, mdp_to_dict, write_json

from helpers import (
    convex_cloud,
    dependent_objective,
    dominated_in_cloud,
    duplicate_action,
    ridge_points,
    segment_residual,
)


@dataclasses.dataclass
class Instance:
    seed: int
    states: int
    actions: int
    objectives: int
    mdp: Mdp
    front: ParetoFront
    oracle: ParetoFront
    mdp_path: str
    compare_exit: int


def _build_instance(workdir, seed, S, A, D) -> Instance:
    mdp_path = workdir / f"mdp_{seed}_{S}_{A}_{D}.json"
    front_path = workdir / f"front_{seed}_{S}_{A}_{D}.json"
    oracle_path = workdir / f"oracle_{seed}_{S}_{A}_{D}.json"
    assert main([
        "gen", "random", "--states", str(S), "--actions", str(A),
        "--objectives", str(D), "--seed", str(seed), "-o", str(mdp_path),
    ]) == 0
    assert main(["solve", str(mdp_path), "-o", str(front_path)]) == 0
    assert main(["oracle", str(mdp_path), "-o", str(oracle_path)]) == 0
    code = main(["compare", str(front_path), str(oracle_path), "--tol", "1e-8"])
    return Instance(
        seed=seed,
        states=S,
        actions=A,
        objectives=D,
        mdp=mdp_from_dict(json.loads(mdp_path.read_text())),
        front=front_from_dict(json.loads(front_path.read_text())),
        oracle=front_from_dict(json.loads(oracle_path.read_text())),
        mdp_path=str(mdp_path),
        compare_exit=code,
    )


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("corpus")
    combos = [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4)]
    t0 = time.perf_counter()
    instances = []
    for seed in range(50):
        S, A = combos[seed % len(combos)]
        instances.append(_build_instance(workdir, seed, S, A, 3))
    for k in range(20):
        S = 3 if k % 2 == 0 else 4
        instances.append(_build_instance(workdir, 100 + k, S, 3, 4))
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def test_c01_solve_matches_oracle_on_all_instances(corpus):
    instances, elapsed = corpus
    failures = [i.seed for i in instances if i.compare_exit != 0]
    print(f"\nmeasured: {len(instances)} instances, build+compare {elapsed:.1f}s, "
          f"mismatches {failures}")
    assert len(instances) == 70
    assert failures == []
    assert elapsed < 120.0


def test_c02_edges_join_policies_one_action_apart(corpus):
    instances, _ = corpus
    n_edges = 0
    for inst in instances:
        for f in inst.front.faces:
            if f.dim != 1:
                continue
            n_edges += 1
            u, v = (inst.front.vertices[i] for i in f.vertex_ids)
            assert hamming_distance(u.policy, v.policy) == 1
    print(f"\nmeasured: {n_edges} 1-faces checked, all at Hamming distance 1")


def test_c03_mixtures_are_linear_exactly_for_one_action_changes(corpus):
    instances, _ = corpus
    rng = np.random.default_rng(0)
    betas = np.linspace(0.0, 1.0, 11)

    close_pairs = []
    far_pairs = []
    for inst in instances:
        verts = inst.front.vertices
        on_face = set()
        for f in inst.front.faces:
            for a in range(len(f.vertex_ids)):
                for b in range(a + 1, len(f.vertex_ids)):
                    on_face.add((f.vertex_ids[a], f.vertex_ids[b]))
        for i, j in on_face:
            if hamming_distance(verts[i].policy, verts[j].policy) == 1:
                close_pairs.append((inst, i, j))
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if hamming_distance(verts[i].policy, verts[j].policy) >= 2:
                    far_pairs.append((inst, i, j))

    def max_residual(inst, i, j):
        u, v = inst.front.vertices[i], inst.front.vertices[j]
        scale = inst.front.return_scale
        worst = 0.0
        for b in betas:
            mixed = mix_policies([u.policy, v.policy], [1 - b, b],
                                 inst.mdp.num_actions)
            ret = long_term_return(inst.mdp, mixed)
            worst = max(worst, segment_residual(ret * scale, u.ret * scale,
                                                v.ret * scale))
        return worst

    take = rng.choice(len(close_pairs), size=min(200, len(close_pairs)),
                      replace=False)
    close_worst = max(max_residual(*close_pairs[k]) for k in take)

    take = rng.choice(len(far_pairs), size=min(200, len(far_pairs)),
                      replace=False)
    far_devs = [max_residual(*far_pairs[k]) for k in take]
    frac_curved = float(np.mean([d > 1e-6 for d in far_devs]))

    print(f"\nmeasured: {min(200, len(close_pairs))} distance-1 pairs, "
          f"max on-segment residual {close_worst:.2e}; "
          f"{len(far_devs)} distance>=2 pairs, {frac_curved:.0%} deviate > 1e-6")
    assert close_worst <= 1e-8
    assert frac_curved >= 0.90


def test_c04_every_vertex_sits_on_a_face(corpus):
    instances, _ = corpus
    checked = 0
    for inst in instances:
        if len(inst.front.vertices) < 2:
            continue
        covered = set()
        for f in inst.front.faces:
            covered.update(f.vertex_ids)
        assert covered == {v.id for v in inst.front.vertices}
        checked += 1
    print(f"\nmeasured: vertex coverage holds on {checked} multi-vertex fronts")


def _hull_neighbor_keys(points, keys, apex_idx, min_shared=2):
    """Keys of the vertices adjacent to the apex in the hull of `points`.

    Adjacency means sharing at least `min_shared` (deduplicated) facets with
    the apex, which pins down an edge for 3-dimensional clouds.
    """
    hull = convex_hull(np.asarray(points))
    inc = set(incident_facets(hull, apex_idx))
    out = set()
    for v in hull.vertex_ids:
        if v == apex_idx:
            continue
        shared = sum(1 for fi in inc if hull.facet_masks[fi] >> v & 1)
        if shared >= min_shared:
            out.add(keys[v])
    return out


def test_c05_local_hull_neighbors_equal_global_hull_neighbors():
    vertices_checked = 0
    for seed in range(200, 220):
        mdp = gen_random_mdp(seed, 3, 3, 3)
        all_pols = list(enumerate_deterministic(3, 3))
        all_keys = [tuple(p.tolist()) for p in all_pols]
        all_returns = np.array([long_term_return(mdp, p) for p in all_pols])
        front = search(mdp, SearchConfig(seed=0))
        for v in front.vertices:
            apex_key = tuple(v.policy.tolist())
            nbr_pols = neighbors_one(v.policy, 3)
            local_pts = [v.ret] + [long_term_return(mdp, p) for p in nbr_pols]
            local_keys = [apex_key] + [tuple(p.tolist()) for p in nbr_pols]
            local = _hull_neighbor_keys(local_pts, local_keys, 0)
            global_ = _hull_neighbor_keys(
                all_returns, all_keys, all_keys.index(apex_key)
            )
            assert local == global_
            vertices_checked += 1
    print(f"\nmeasured: neighbor sets equal for {vertices_checked} vertices "
          "across 20 instances")


def test_c06_sampled_face_points_check_out(corpus):
    instances, _ = corpus
    n_faces = 0
    for inst in instances:
        report = verify_front(inst.mdp, inst.front, samples_per_face=25)
        assert report.passed, f"seed {inst.seed} failed verification"
        n_faces += len(report.face_checks)
    print(f"\nmeasured: {n_faces} faces sampled at 25 points each, all on their "
          "affine hulls and undominated")


def test_c07_one_planner_call_one_iteration_per_vertex(corpus):
    instances, _ = corpus
    for inst in instances:
        stats = inst.front.stats
        assert stats.planner_calls == 1
        assert stats.iterations == len(inst.front.vertices)
    print(f"\nmeasured: planner_calls=1 and iterations=|vertices| on "
          f"{len(instances)} runs")


def test_c08_oracle_cost_blows_up_with_actions_while_search_stays_flat(monkeypatch):
    bench_suite([3], [3], 3, [0])  # warm-up so first-call costs stay out of row 1
    # The stats of every run in the timed suite, for the timing-free check.
    oracle_module = importlib.import_module("momdp_pareto.oracle")
    runs = []

    def recorded(solver, name):
        def run(mdp, *args, **kwargs):
            front = solver(mdp, *args, **kwargs)
            runs.append((name, mdp.num_states, mdp.num_actions, front.stats))
            return front

        return run

    monkeypatch.setattr(oracle_module, "search", recorded(oracle_module.search, "solve"))
    monkeypatch.setattr(
        oracle_module, "brute_force_front", recorded(oracle_module.brute_force_front, "oracle")
    )
    # Three repeats; each cell is timed as its fastest, so a host slowdown
    # during one run of a cell does not reorder the action counts.
    rows = [row for _ in range(3) for row in bench_suite([5], [5, 6, 7], 3, [0, 1, 2])]
    monkeypatch.undo()
    # The same shape without a clock: the oracle sweeps all A**S policies,
    # while search evaluates at most the S * (A - 1) one-change neighbors
    # of each vertex it explores, plus its start policy.
    assert sorted((name, A) for name, _, A, _ in runs) == sorted(
        (r.solver, r.actions) for r in rows
    )
    for name, S, A, stats in runs:
        if name == "oracle":
            assert stats.policies_evaluated == A**S
        else:
            assert stats.policies_evaluated <= 1 + stats.iterations * S * (A - 1)
    fastest = {}
    for r in rows:
        key = (r.solver, r.actions, r.seed)
        fastest[key] = min(fastest.get(key, np.inf), r.seconds)
    oracle_t = {
        A: np.mean([t for (solver, a, _), t in fastest.items() if solver == "oracle" and a == A])
        for A in (5, 6, 7)
    }
    solve_t = {
        A: np.mean([t for (solver, a, _), t in fastest.items() if solver == "solve" and a == A])
        for A in (5, 6, 7)
    }
    assert oracle_t[5] < oracle_t[6] < oracle_t[7]
    # Growth across the range beats linear: a shape check, not a timing one.
    assert oracle_t[7] / oracle_t[5] > 7 / 5
    spread = max(solve_t.values()) / min(solve_t.values())

    rows_s = bench_suite([5, 8], [5], 3, [0, 1, 2])
    mean_v = {
        S: np.mean([r.vertices for r in rows_s if r.solver == "solve" and r.states == S])
        for S in (5, 8)
    }
    print(f"\nmeasured: oracle seconds {oracle_t}, solve max/min {spread:.2f}, "
          f"mean vertices {mean_v}")
    assert spread < 3.0
    assert mean_v[8] > mean_v[5]


def test_c09_ridge_fixture_yields_exactly_the_edge():
    pts = ridge_points()
    hull = convex_hull(pts)
    passing, on_front = select_pareto_faces(0, hull)
    assert [f.vertex_ids for f in passing] == [(0, 1)]
    assert all(f.dim == 1 for f in passing)
    assert on_front == [0, 1]
    # The edge is defined by the apex facets holding both of its vertices,
    # and its record carries their normals with the certificate.
    (edge,) = passing
    defining = [fi for fi in incident_facets(hull, 0) if hull.facet_masks[fi] & 0b11 == 0b11]
    assert edge.normals.tobytes() == hull.normals[defining].tobytes()
    assert edge.t_star == float((edge.alpha @ edge.normals).min()) > 1e-9

    # Cross-check by raw dominance: points of the surviving edge are
    # undominated within the achievable set, while every 2-face at the apex
    # contains a dominated point.
    ab = np.array([pts[0] * (1 - t) + pts[1] * t for t in np.linspace(0, 1, 21)])
    cloud = np.vstack([convex_cloud(pts, n_random=3000, seed=0), ab])
    for p in ab:
        assert not dominated_in_cloud(p, cloud, eps=1e-9)
    n_rejected = 0
    for fi in incident_facets(hull, 0):
        facet = mask_ids(hull.facet_masks[fi])
        if len(facet) < 3:
            continue
        centroid = pts[facet].mean(axis=0)
        assert dominated_in_cloud(centroid, cloud, eps=1e-9)
        n_rejected += 1
    assert n_rejected >= 2
    print(f"\nmeasured: edge kept, {n_rejected} apex facets rejected and "
          "each holds a dominated point")


def test_c10_reruns_are_byte_identical_per_thread_count(corpus, tmp_path):
    instances, _ = corpus
    picks = [instances[0], instances[50]]
    for inst in picks:
        payloads = {}
        for threads in (1, 4):
            blobs = {}
            for cmd in ("solve", "oracle"):
                out = tmp_path / f"{cmd}_{inst.seed}_t{threads}.json"
                args = [cmd, inst.mdp_path, "-o", str(out),
                        "--threads", str(threads)]
                assert main(args) == 0
                first = out.read_bytes()
                assert main(args) == 0
                assert out.read_bytes() == first
                blobs[cmd] = first
            payloads[threads] = blobs
        # Across thread counts only the recorded config may differ.
        for cmd in ("solve", "oracle"):
            a = json.loads(payloads[1][cmd])
            b = json.loads(payloads[4][cmd])
            a["meta"].pop("config")
            b["meta"].pop("config")
            assert a == b
    print("\nmeasured: byte-identical reruns for thread counts 1 and 4 on "
          f"seeds {[p.seed for p in picks]}")


DEGENERATE_FAMILIES = {
    "dupact": lambda seed, D, gamma: duplicate_action(gen_random_mdp(seed, 4, 3, D, gamma)),
    "depobj": lambda seed, D, gamma: dependent_objective(gen_random_mdp(seed, 5, 3, D, gamma)),
    "grid": lambda seed, D, gamma: gen_gridworld(seed, 2, 2, D, gamma),
}


def test_c11_degenerate_families_match_the_oracle(tmp_path):
    """Duplicated actions, dependent objectives and 2x2 gridworlds at D = 3
    to 5 and gamma 0, 0.9 and 0.99, through the command line, with seeds 0
    and 1 below D = 5 and seed 0 at D = 5: `compare --tol 1e-8` exits 0,
    the oracle warns nothing, and no local hull of search falls back to the
    direct tests. Before flat sets were closed off below, 24 of these 45
    failed: the oracle raised on 9, disagreed with search on 2 and warned
    of jitter or direct tests on the rest."""
    t0 = time.perf_counter()
    failures = []
    count = 0
    for family, build in DEGENERATE_FAMILIES.items():
        for D in (3, 4, 5):
            for gamma in (0.0, 0.9, 0.99):
                for seed in (0, 1) if D < 5 else (0,):
                    name = f"{family}-D{D}-g{gamma}-s{seed}"
                    paths = {k: tmp_path / f"{k}-{name}.json" for k in ("mdp", "solve", "oracle")}
                    write_json(str(paths["mdp"]), mdp_to_dict(build(seed, D, gamma)))
                    for cmd in ("solve", "oracle"):
                        assert main([cmd, str(paths["mdp"]), "-o", str(paths[cmd])]) == 0, name
                    code = main(["compare", str(paths["solve"]), str(paths["oracle"]),
                                 "--tol", "1e-8"])
                    solve_warnings = json.loads(paths["solve"].read_text())["warnings"]
                    oracle_warnings = json.loads(paths["oracle"].read_text())["warnings"]
                    degenerate = [w for w in solve_warnings if "hull construction" in w]
                    if code != 0 or oracle_warnings or degenerate:
                        failures.append(name)
                    count += 1
    elapsed = time.perf_counter() - t0
    print(f"\nmeasured: {count} degenerate instances in {elapsed:.1f}s, failures {failures}")
    assert count == 45
    assert failures == []
