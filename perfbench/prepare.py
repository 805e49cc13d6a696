"""Set-up of one benchmark run: import the solver, build the instances, load
the reference fronts.

`setup_s` is the time this takes, timed by `speed.section`. Run as a script,
`python3 perfbench/prepare.py WORKLOAD` performs one set-up in a fresh process
and prints its scaled and its wall seconds, so `run.py` can take a median over
several fresh set-ups.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"


@dataclass
class Prepared:
    instances: list
    mdps: dict
    refs: dict  # instance name -> (reference JSON text, reference ParetoFront)


def import_solver():
    """Import `momdp_pareto` from this checkout's `src/`, and nowhere else."""
    if not (SRC / "momdp_pareto" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no solver source at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import momdp_pareto

    if not Path(momdp_pareto.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported momdp_pareto from {momdp_pareto.__file__}, "
                         f"not from {SRC}")
    return momdp_pareto


def prepare(workload: str) -> tuple[speed.Timing, Prepared]:
    """Do the whole set-up and return (its timing, prepared state)."""
    with speed.section() as timing:
        import_solver()
        from momdp_pareto.serialize import front_from_dict
        from workloads import WORKLOADS

        instances = WORKLOADS[workload]
        mdps = {inst.name: inst.build() for inst in instances}
        refs = {}
        for inst in instances:
            text = (REFS / f"{inst.name}.json").read_text(encoding="utf-8")
            refs[inst.name] = (text, front_from_dict(json.loads(text)))
    return timing, Prepared(instances, mdps, refs)


if __name__ == "__main__":
    timing, _ = prepare(sys.argv[1])
    print(repr(timing.seconds), repr(timing.wall))
