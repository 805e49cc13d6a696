"""The benchmark's workloads: fixed instance sets and the operations run on each.

Instance sets are fixed so that a run's summed times compare across runs and
commits; single instances are too noisy on a shared two-core machine. The
`--seed` of a run orders the instances inside every pass and seeds the sample
weights of `verify_front`.

Sizes are chosen so that one pass over a set takes a few seconds, which gives
several passes, and so a median, inside one run.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_OPS = ("solve", "oracle", "verify")


@dataclass(frozen=True)
class Instance:
    """One MDP of a workload.

    `family` is "dense" (`gen_random_mdp`), "dupact" (action 2 copied from
    action 1), "depobj" (the last objective is the mean of the first two) or
    "grid" (`gen_gridworld`, with `states` x `actions` read as rows x cols).
    `known_oracle_defect`, when set, is the exact symptom with which
    `brute_force_front` is known to answer wrongly on this instance; see
    `run.Checker.oracle_front`.
    """

    family: str
    states: int
    actions: int
    objectives: int
    seed: int
    ops: tuple[str, ...] = ALL_OPS
    known_oracle_defect: str | None = None

    @property
    def name(self) -> str:
        size = (f"{self.states}x{self.actions}" if self.family == "grid"
                else f"S{self.states}-A{self.actions}")
        return f"{self.family}-{size}-D{self.objectives}-s{self.seed}"

    def build(self):
        from momdp_pareto import Mdp, gen_gridworld, gen_random_mdp

        if self.family == "grid":
            return gen_gridworld(self.seed, self.states, self.actions, self.objectives)
        mdp = gen_random_mdp(self.seed, self.states, self.actions, self.objectives)
        if self.family == "depobj":
            r = mdp.r.copy()
            r[:, :, -1] = r[:, :, :2].mean(axis=2)
            return Mdp(P=mdp.P, r=r, gamma=mdp.gamma, mu=mdp.mu)
        if self.family == "dupact":
            P, r = mdp.P.copy(), mdp.r.copy()
            P[:, 2], r[:, 2] = P[:, 1], r[:, 1]
            return Mdp(P=P, r=r, gamma=mdp.gamma, mu=mdp.mu)
        return mdp


# Known oracle defects, each written exactly as `run.oracle_symptom` words
# it, so the oracle answering wrongly in any other way is a failure.
# On duplicated actions the oracle's non-dominated set is planar and gets
# jittered before the hull is built; it keeps 2 of the 3 vertices and 1 of
# the 2 faces.
MISSED_VERTEX = ("2 vertices and 1 faces where the reference has 3 and 2: "
                 "0 extra and 1 missing vertices, 0 extra and 1 missing faces")
# `_oracle_degenerate_faces` refuses non-dominated sets of more than 16 points.
TOO_MANY_POINTS = ("raised RuntimeError('degenerate-face fallback would enumerate "
                   "subsets of 26 points; the non-dominated set is too large for "
                   "direct testing')")

WORKLOADS: dict[str, list[Instance]] = {
    # Many vertices with cheap faces: evaluation, lookup, hull, pruning and
    # LPs share the solve time. A^S of the S=12 instances is far beyond
    # enumeration, so they are checked against stored references only; the
    # oracle and verify run on the small instance of the same family, sized
    # so that each of them still takes most of a second.
    "wide3": [
        Instance("dense", 12, 5, 3, 0, ops=("solve",)),
        Instance("dense", 12, 5, 3, 1, ops=("solve",)),
        Instance("dense", 6, 5, 3, 0),
    ],
    # Few vertices, large face descent: LPs, SVDs, subfaces, consolidation.
    # The oracle's own face descent at D=5 takes minutes, so it runs on the
    # D=4 instance only.
    "deep45": [
        Instance("dense", 4, 4, 5, 1, ops=("solve",)),
        Instance("dense", 5, 2, 4, 0),
    ],
    # The reference path a user runs to trust a front: one oracle `pprune`
    # over A^S = 65536 returns, one global hull, then verify's dominance
    # scans. It calls the same geometry as search at very different input
    # sizes, so a change tuned for search shows its cost here.
    "check3": [
        Instance("dense", 8, 4, 3, 0),
    ],
    # The ROADMAP's degenerate families: duplicated actions and affinely
    # dependent objectives, where the fallbacks fire, and a gridworld, which
    # gives the oracle and verify enough work to time steadily.
    "degen": [
        Instance("dupact", 4, 3, 3, 0, known_oracle_defect=MISSED_VERTEX),
        Instance("dupact", 4, 3, 3, 1),
        Instance("dupact", 4, 3, 3, 2, known_oracle_defect=MISSED_VERTEX),
        Instance("dupact", 4, 3, 3, 3),
        Instance("depobj", 5, 3, 4, 1, known_oracle_defect=TOO_MANY_POINTS),
        Instance("grid", 2, 3, 3, 1),
    ],
}
