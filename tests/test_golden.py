"""Search and oracle fronts pinned against stored JSON fixtures.

`tests/data/golden_fronts.json` holds, for each instance below, the front that
`search` and `brute_force_front` returned (or the repr of the exception they
raised) before the face layer skipped nested faces and screened consolidation
pairs; `dense-S12-A5-D3-s0`, the first instance with over 100 vertices, was
added before per-vertex bookkeeping moved into array operations. Those
changes are exact, so the fronts must not move: the same vertex
policies and co-policies, the same face vertex-id tuples in the same order,
and returns, normals, `alpha` and `t_star` within 1e-12. The
`dupact-S4-A3-D3-s1` oracle entry was written again when flat point sets
came to be closed off below instead of jittered, which moved one face's
normal and `t_star` by 9.1e-7, the size of the jitter.

Regenerate the fixtures only for a change that says why fronts move:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from momdp_pareto import Mdp, brute_force_front, gen_gridworld, gen_random_mdp, search

FIXTURES = Path(__file__).parent / "data" / "golden_fronts.json"
FLOAT_TOL = 1e-12


def _dupact(seed: int, S: int, A: int, D: int) -> Mdp:
    mdp = gen_random_mdp(seed, S, A, D)
    P, r = mdp.P.copy(), mdp.r.copy()
    P[:, 2], r[:, 2] = P[:, 1], r[:, 1]
    return Mdp(P=P, r=r, gamma=mdp.gamma, mu=mdp.mu)


INSTANCES = {
    "dense-S4-A3-D3-s0": lambda: gen_random_mdp(0, 4, 3, 3),
    "dense-S5-A3-D3-s3": lambda: gen_random_mdp(3, 5, 3, 3),
    "dense-S4-A3-D4-s0": lambda: gen_random_mdp(0, 4, 3, 4),
    "dense-S4-A3-D4-s2": lambda: gen_random_mdp(2, 4, 3, 4),
    "dense-S3-A3-D5-s0": lambda: gen_random_mdp(0, 3, 3, 5),
    "dense-S4-A3-D5-s1": lambda: gen_random_mdp(1, 4, 3, 5),
    "dense-S12-A5-D3-s0": lambda: gen_random_mdp(0, 12, 5, 3),
    "dupact-S4-A3-D3-s1": lambda: _dupact(1, 4, 3, 3),
    "dupact-S4-A3-D3-s3": lambda: _dupact(3, 4, 3, 3),
    "gamma0-S4-A3-D3-s0": lambda: gen_random_mdp(0, 4, 3, 3, gamma=0.0),
    "gamma0-S4-A3-D4-s1": lambda: gen_random_mdp(1, 4, 3, 4, gamma=0.0),
    "grid-2x3-D3-s1": lambda: gen_gridworld(1, 2, 3, 3),
    "grid-2x2-D4-s2": lambda: gen_gridworld(2, 2, 2, 4),
}
SOLVERS = {"search": search, "oracle": brute_force_front}


def front_summary(solver, mdp: Mdp) -> dict:
    """The front's vertices and faces as plain JSON, or the raised exception."""
    try:
        front = solver(mdp)
    except Exception as exc:  # the pinned outcome may be an exception
        return {"raised": repr(exc)}
    return {
        "vertices": [
            {
                "actions": v.policy.tolist(),
                "co_policies": [p.tolist() for p in v.co_policies],
                "return": v.ret.tolist(),
            }
            for v in front.vertices
        ],
        "faces": [
            {
                "vertex_ids": list(f.vertex_ids),
                "dim": f.dim,
                "normals": np.asarray(f.normals).tolist(),
                "alpha": np.asarray(f.alpha).tolist(),
                "t_star": f.t_star,
            }
            for f in front.faces
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURES.read_text())


def test_fixtures_cover_every_instance(golden):
    assert sorted(golden) == sorted(INSTANCES)
    assert all(sorted(golden[name]) == sorted(SOLVERS) for name in golden)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_front_matches_fixture(golden, name, solver):
    want = golden[name][solver]
    got = front_summary(SOLVERS[solver], INSTANCES[name]())
    if "raised" in want or "raised" in got:
        assert got == want
        return
    assert [(v["actions"], v["co_policies"]) for v in got["vertices"]] == [
        (v["actions"], v["co_policies"]) for v in want["vertices"]
    ]
    for gv, wv in zip(got["vertices"], want["vertices"]):
        np.testing.assert_allclose(gv["return"], wv["return"], rtol=0, atol=FLOAT_TOL)
    assert [(f["vertex_ids"], f["dim"]) for f in got["faces"]] == [
        (f["vertex_ids"], f["dim"]) for f in want["faces"]
    ]
    for gf, wf in zip(got["faces"], want["faces"]):
        for key in ("normals", "alpha", "t_star"):
            assert np.shape(gf[key]) == np.shape(wf[key])
            np.testing.assert_allclose(gf[key], wf[key], rtol=0, atol=FLOAT_TOL)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_dual_screen_fires_on_a_pinned_instance(solver):
    """The pooled LP duals rule faces out on this instance, so the fixture
    comparison above covers fronts reached through the screen."""
    stats = SOLVERS[solver](INSTANCES["dense-S4-A3-D5-s1"]()).stats
    assert stats.lps_screened > 0
    assert stats.lps_solved > 0


if __name__ == "__main__":
    FIXTURES.parent.mkdir(exist_ok=True)
    fixtures = {
        name: {solver: front_summary(fn, build()) for solver, fn in SOLVERS.items()}
        for name, build in INSTANCES.items()
    }
    FIXTURES.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} instances to {FIXTURES}")
