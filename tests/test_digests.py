"""Front JSON pinned byte for byte by its SHA-256 digest.

`tests/data/front_digests.json` holds, for each solver and instance below,
the SHA-256 of the front file `solve` or `oracle` writes (`dump_json` of
`front_to_dict`, no meta) and the face-work counts that stay out of it:
`lps_solved`, `lps_screened` and `vertex_scans`. A change that claims to
keep fronts byte-identical is checked by this test instead of by hand.

The instances are the benchmark's twelve (`perfbench/workloads.py`),
`gen_random_mdp(0, 8, 4, 5)`, `gen_random_mdp(0, 6, 4, 6)` and
`gen_gridworld(6, 2, 3, 5)`; the oracle is left out where A**S exceeds its
default cap.

Regenerate the digests only for a change that says why fronts move:

    PYTHONPATH=src python tests/test_digests.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from momdp_pareto import brute_force_front, gen_gridworld, gen_random_mdp, search
from momdp_pareto.serialize import dump_json, front_to_dict, sha256_hex

from helpers import benchmark_instances

DIGESTS = Path(__file__).parent / "data" / "front_digests.json"
ORACLE_CAP = 1_000_000

INSTANCES = {inst.name: inst.build for inst in benchmark_instances()}
INSTANCES["dense-S8-A4-D5-s0"] = lambda: gen_random_mdp(0, 8, 4, 5)
INSTANCES["dense-S6-A4-D6-s0"] = lambda: gen_random_mdp(0, 6, 4, 6)
INSTANCES["grid-6x2x3-D5-s6"] = lambda: gen_gridworld(6, 2, 3, 5)
SOLVERS = {"search": search, "oracle": brute_force_front}


def cases() -> list[tuple[str, str]]:
    """(solver, instance) pairs: search on every instance, the oracle on
    every instance within its cap."""
    out = []
    for name, build in INSTANCES.items():
        mdp = build()
        out.append(("search", name))
        if mdp.num_actions**mdp.num_states <= ORACLE_CAP:
            out.append(("oracle", name))
    return out


def digest(solver: str, name: str) -> dict:
    """The front file's SHA-256 and the run's face-work counts."""
    front = SOLVERS[solver](INSTANCES[name]())
    return {
        "sha256": sha256_hex(dump_json(front_to_dict(front)).encode()),
        "lps_solved": front.stats.lps_solved,
        "lps_screened": front.stats.lps_screened,
        "vertex_scans": front.stats.vertex_scans,
    }


CASES = cases()


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(f"{s}/{n}" for s, n in CASES)


@pytest.mark.parametrize("solver,name", CASES, ids=[f"{s}/{n}" for s, n in CASES])
def test_front_bytes_unchanged(solver, name):
    assert digest(solver, name) == json.loads(DIGESTS.read_text())[f"{solver}/{name}"]


if __name__ == "__main__":
    pinned = {f"{s}/{n}": digest(s, n) for s, n in CASES}
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {len(pinned)} digests to {DIGESTS}")
