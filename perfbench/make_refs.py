"""Write the reference fronts the benchmark checks against.

    python3 perfbench/make_refs.py

Each reference is the front JSON that `search` gives for one instance, as
`serialize.dump_json(front_to_dict(front))` writes it. Before writing, the
front is checked with the independent paths wherever they can run: it must
match `brute_force_front` where the workload runs the oracle (except on
instances with a known oracle defect), and pass `verify_front` wherever A^S
can be enumerated. The large wide3 instances are beyond enumeration and are
stored as `search` computed them.
"""

from __future__ import annotations

import sys

import prepare
from workloads import WORKLOADS


def main() -> int:
    prepare.import_solver()
    from momdp_pareto import SearchConfig, brute_force_front, compare_fronts, search, verify_front
    from momdp_pareto.serialize import dump_json, front_to_dict

    prepare.REFS.mkdir(exist_ok=True)
    bad = 0
    for workload, instances in WORKLOADS.items():
        for inst in instances:
            mdp = inst.build()
            front = search(mdp, SearchConfig(thread_count=1))
            notes = []
            if "oracle" in inst.ops:
                try:
                    match = compare_fronts(front, brute_force_front(mdp), 1e-8).match
                    notes.append("oracle agrees" if match else "oracle DISAGREES")
                except RuntimeError as exc:
                    match = False
                    notes.append(f"oracle raised: {exc}")
                if not match and inst.known_oracle_defect is None:
                    bad += 1
                    continue
            if mdp.num_actions**mdp.num_states <= 1_000_000:
                if not verify_front(mdp, front).passed:
                    notes.append("verify FAILED")
                    bad += 1
                    continue
                notes.append("verify passed")
            (prepare.REFS / f"{inst.name}.json").write_text(
                dump_json(front_to_dict(front)), encoding="utf-8")
            print(f"{workload} {inst.name}: {len(front.vertices)} vertices, "
                  f"{len(front.faces)} faces; {'; '.join(notes) or 'stored unchecked'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
