"""Finite discounted multi-objective MDPs: representation, evaluation, planning."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Conventions used throughout the package:
#   - a deterministic policy is an int array of shape (S,), one action per state
#   - a stochastic policy is a row-stochastic float array of shape (S, A)
#   - value functions have shape (S, D), long-term returns shape (D,)

# Policies per batched evaluation.
_EVAL_BLOCK = 4096
# Sweeps of at most this many policies skip the policy tree; either path
# gives the same rows bit for bit. 512 sits near the crossover, which moves
# with A and D (2-vCPU VM, best of 7 x 20 screens, LU against tree): 243
# policies took 0.45-0.48 against 0.52-0.59 ms at D = 3 and 4, and 256 at
# (S, A, D) = (4, 4, 3) and (4, 4, 5) 0.38 against 0.44 ms and 0.64 against
# 1.03 ms, but at (8, 2, 3) 0.60 against 0.59 ms; 512 took 1.11 against
# 0.70 ms at D = 3, while at D = 5 the two paths were within noise of each
# other (1.9-2.6 ms each); 729 took 1.08 against 0.60 ms.
_TREE_MIN_POLICIES = 512
# Two Q-values within this of a row's maximum tie in `solve_scalarized`.
_TIE_TOL = 1e-10


class InvalidMdpError(ValueError):
    """Raised when an Mdp is built from values that fail validation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid MDP: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Mdp:
    """A finite discounted multi-objective MDP, valid by construction.

    The constructor stores read-only float copies of P, r and mu, so the
    caller's arrays stay writeable and no later write can make a built MDP
    invalid. Wrong array ranks or sizes, and no state, action or objective,
    raise a ValueError naming the array and its shape. Values outside
    the model raise InvalidMdpError, which lists every violation and names
    the field and index: non-finite P or r, a negative P entry, a P row or
    mu summing to other than 1 within 1e-12, a mu entry not > 0, and gamma
    outside [0, 1).

    Attributes:
        P: transition tensor of shape (S, A, S); P[s, a, t] is the probability
            of moving to state t when playing action a in state s.
        r: reward tensor of shape (S, A, D) with one reward per objective.
        gamma: discount factor in [0, 1).
        mu: initial state distribution of shape (S,); every entry is
            positive so that all states contribute to the long-term return.
    """

    P: np.ndarray
    r: np.ndarray
    gamma: float
    mu: np.ndarray

    def __post_init__(self):
        P, r, mu = (np.array(x, dtype=float) for x in (self.P, self.r, self.mu))
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise ValueError(f"P must have shape (S, A, S), got {P.shape}")
        if 0 in P.shape:
            raise ValueError(f"P must have S >= 1 states and A >= 1 actions, got shape {P.shape}")
        if r.ndim != 3 or r.shape[:2] != P.shape[:2]:
            raise ValueError(
                f"r must have shape (S, A, D) matching P, got {r.shape} vs {P.shape}"
            )
        if r.shape[2] == 0:
            raise ValueError(f"r must have D >= 1 objectives, got shape {r.shape}")
        if mu.shape != (P.shape[0],):
            raise ValueError(f"mu must have shape ({P.shape[0]},), got {mu.shape}")
        gamma = float(self.gamma)
        violations = _violations(P, r, gamma, mu)
        if violations:
            raise InvalidMdpError(violations)
        for name, value in (("P", P), ("r", r), ("mu", mu)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gamma", gamma)

    @property
    def num_states(self) -> int:
        return self.P.shape[0]

    @property
    def num_actions(self) -> int:
        return self.P.shape[1]

    @property
    def num_objectives(self) -> int:
        return self.r.shape[2]


def _violations(P: np.ndarray, r: np.ndarray, gamma: float, mu: np.ndarray) -> list[str]:
    """Every violated value constraint of an MDP, naming the field and index."""
    violations: list[str] = []
    if not np.isfinite(P).all():
        for s, a in zip(*np.nonzero(~np.isfinite(P).all(axis=2))):
            violations.append(f"P[{s}][{a}] contains non-finite entries")
    if not np.isfinite(r).all():
        for s, a in zip(*np.nonzero(~np.isfinite(r).all(axis=2))):
            violations.append(f"r[{s}][{a}] contains non-finite entries")
    if violations:
        return violations

    for s, a, t in zip(*np.nonzero(P < 0.0)):
        violations.append(f"P[{s}][{a}][{t}] is negative ({P[s, a, t]:.3g})")
    row_sums = P.sum(axis=2)
    for s, a in zip(*np.nonzero(np.abs(row_sums - 1.0) > 1e-12)):
        violations.append(
            f"P[{s}][{a}] row sums to {row_sums[s, a]:.17g}, off by "
            f"{abs(row_sums[s, a] - 1.0):.3g}"
        )
    for s in np.nonzero(~(mu > 0.0))[0]:
        violations.append(f"mu[{s}] not > 0 (value {mu[s]:.17g})")
    if abs(mu.sum() - 1.0) > 1e-12:
        violations.append(f"mu sums to {mu.sum():.17g}, off by {abs(mu.sum() - 1.0):.3g}")
    if not (0.0 <= gamma < 1.0):
        violations.append(f"gamma {gamma:.17g} outside [0, 1)")
    return violations


def check_count(name: str, value: int, minimum: int) -> None:
    """Raise a ValueError naming `name` unless value is an int >= minimum.
    A bool is not a count, so True and False are refused too."""
    if not (
        isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum
    ):
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_one_thread(value: int) -> None:
    """Raise a ValueError naming thread_count unless value is the int 1.
    Every sweep runs on the calling thread; `SearchConfig`,
    `brute_force_front` and `verify_front` keep the keyword only so that
    callers passing thread_count=1 still run."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value == 1):
        raise ValueError(f"thread_count must be 1, got {value!r}")


def long_term_return(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Return the (D,) expected discounted return from the initial distribution.

    An (S,) policy of action indices is evaluated by `deterministic_returns`,
    an (S, A) row-stochastic matrix by `stochastic_returns`.

    Raises:
        ValueError: when the policy has neither shape, a stochastic row is
            not a distribution, or an action is not an integer in [0, A);
            the message names that state and action.
    """
    pol = np.asarray(policy)
    S, A = mdp.num_states, mdp.num_actions
    if pol.ndim != 1:
        if pol.shape != (S, A):
            raise ValueError(f"stochastic policy must have shape ({S}, {A}), got {pol.shape}")
        return stochastic_returns(mdp, pol[None])[0]
    return deterministic_returns(mdp, check_actions(pol, S, A)[None])[0]


def check_actions(policy: np.ndarray, S: int, A: int) -> np.ndarray:
    """A deterministic policy over S states and A actions as an (S,) int64
    array of action indices.

    Raises:
        ValueError: when the policy is not of shape (S,), or some action is
            not an integer in [0, A); the message names the first such state
            and its action.
    """
    pol = np.asarray(policy)
    if pol.shape != (S,):
        raise ValueError(f"deterministic policy must have shape ({S},), got {pol.shape}")
    bad = np.flatnonzero(~((pol >= 0) & (pol < A) & (pol == np.floor(pol))))
    if len(bad):
        s = bad[0]
        raise ValueError(f"action {pol.tolist()[s]!r} at state {s} is not an integer in [0, {A})")
    return pol.astype(np.int64)


def _greedy(q: np.ndarray) -> np.ndarray:
    """Row-wise argmax picking the lowest action index among near-ties."""
    return (q >= q.max(axis=1, keepdims=True) - _TIE_TOL).argmax(axis=1)


def solve_scalarized(mdp: Mdp, w: np.ndarray) -> np.ndarray:
    """Find a deterministic policy maximizing the w-weighted scalar return.

    Runs exact policy iteration on the scalarized reward r @ w. Ties in the
    greedy step (Q-values within 1e-10 of the row maximum) are broken
    toward the lowest action index so the result is deterministic.

    Args:
        mdp: a valid MDP.
        w: finite, strictly positive weight vector of shape (D,); any
            other raises a ValueError naming `w`.

    Returns:
        Int array of shape (S,) with the optimal action per state.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (mdp.num_objectives,):
        raise ValueError(f"w must have shape ({mdp.num_objectives},), got {w.shape}")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise ValueError(f"w must be finite and > 0 in every objective, got {w.tolist()}")
    S = mdp.num_states
    r_w = mdp.r @ w  # (S, A)
    policy = _greedy(r_w)
    seen = {tuple(policy.tolist())}
    while True:
        p_pi = mdp.P[np.arange(S), policy]
        lhs = np.eye(S) - mdp.gamma * p_pi
        v = np.linalg.solve(lhs, r_w[np.arange(S), policy])
        q = r_w + mdp.gamma * (mdp.P @ v)
        improved = _greedy(q)
        if np.array_equal(improved, policy):
            break
        key = tuple(improved.tolist())
        policy = improved
        if key in seen:
            # A revisit can only happen by cycling through tie-equivalent
            # policies, so the current one is already optimal.
            break
        seen.add(key)
    return policy.astype(np.int64)


def neighbors_one(policy: np.ndarray, num_actions: int) -> np.ndarray:
    """All policies differing from `policy` in exactly one state, as the
    rows of an (S * (A - 1), S) int64 array.

    The rows are ordered state-major with actions ascending.
    """
    pol = np.asarray(policy, dtype=np.int64)
    states, actions = np.nonzero(np.arange(num_actions) != pol[:, None])
    out = np.repeat(pol[None], len(states), axis=0)
    out[np.arange(len(states)), states] = actions
    return out


def mix_policies(
    policies: Sequence[np.ndarray], weights: Sequence[float], num_actions: int
) -> np.ndarray:
    """Form the stochastic policy that plays policy i with probability weights[i].

    Args:
        policies: deterministic policies of a common shape (S,).
        weights: nonnegative mixture weights summing to 1 within 1e-12.
        num_actions: number of actions A of the underlying MDP.

    Returns:
        Row-stochastic array of shape (S, A). A policy that is not S integer
        actions in [0, A) raises a ValueError naming it (`check_actions`).
    """
    w = np.asarray(weights, dtype=float)
    if len(policies) == 0 or w.shape != (len(policies),):
        raise ValueError(
            f"need one weight per policy: {len(policies)} policies, weights of shape {w.shape}"
        )
    # Written so that NaN fails each test.
    if not w.min() >= -1e-12:
        raise ValueError(f"mixture weights must be nonnegative, got min {w.min():.3g}")
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {w.sum():.17g}")
    shape = np.shape(policies[0])
    if len(shape) != 1:
        raise ValueError(f"policy 0: deterministic policy must have shape (S,), got {shape}")
    S = shape[0]
    mat = np.zeros((S, num_actions))
    for i, (pol, wi) in enumerate(zip(policies, w)):
        try:
            pol = check_actions(pol, S, num_actions)
        except ValueError as exc:
            raise ValueError(f"policy {i}: {exc}") from None
        mat[np.arange(S), pol] += wi
    return mat


class GridAction(enum.IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3


_GRID_MOVES = {
    GridAction.UP: (-1, 0),
    GridAction.DOWN: (1, 0),
    GridAction.LEFT: (0, -1),
    GridAction.RIGHT: (0, 1),
}


def gen_random_mdp(
    seed: int, num_states: int, num_actions: int, num_objectives: int, gamma: float = 0.9
) -> Mdp:
    """Sample a dense random MDP.

    Transition rows are drawn from a flat Dirichlet, rewards uniformly from
    [0, 1], and the initial distribution is uniform, so only a gamma
    outside [0, 1) fails the Mdp's checks.

    Args:
        seed: int >= 0 for numpy's default_rng; equal seeds give equal MDPs.
        num_states: S >= 1.
        num_actions: A >= 1.
        num_objectives: D >= 1.
        gamma: discount factor in [0, 1); InvalidMdpError names any other.
    """
    check_count("seed", seed, 0)
    for name, size in (
        ("num_states", num_states), ("num_actions", num_actions), ("num_objectives", num_objectives)
    ):
        check_count(name, size, 1)
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    r = rng.uniform(size=(num_states, num_actions, num_objectives))
    mu = np.full(num_states, 1.0 / num_states)
    return Mdp(P=P, r=r, gamma=gamma, mu=mu)


def gen_gridworld(
    seed: int, rows: int, cols: int, num_objectives: int, gamma: float = 0.9
) -> Mdp:
    """Build a deterministic gridworld with random multi-objective rewards.

    States are cells in row-major order and the four actions move up, down,
    left and right, staying in place when the move would leave the grid.
    Rewards are uniform [0, 1] per state-action-objective and the initial
    distribution is uniform over cells. A seed or size that is not an int
    >= 0 or >= 1 raises a ValueError naming it, and a gamma outside [0, 1)
    an InvalidMdpError.
    """
    check_count("seed", seed, 0)
    for name, size in (("rows", rows), ("cols", cols), ("num_objectives", num_objectives)):
        check_count(name, size, 1)
    rng = np.random.default_rng(seed)
    S = rows * cols
    A = len(GridAction)
    P = np.zeros((S, A, S))
    for s in range(S):
        i, j = divmod(s, cols)
        for action in GridAction:
            di, dj = _GRID_MOVES[action]
            ni = min(max(i + di, 0), rows - 1)
            nj = min(max(j + dj, 0), cols - 1)
            P[s, action, ni * cols + nj] = 1.0
    r = rng.uniform(size=(S, A, num_objectives))
    mu = np.full(S, 1.0 / S)
    return Mdp(P=P, r=r, gamma=gamma, mu=mu)


def enumerate_deterministic(
    num_states: int, num_actions: int, indices: Sequence[int] | np.ndarray | None = None
) -> np.ndarray:
    """Deterministic policies as an (n, S) int array, rows lexicographic.

    Policy i has the base-A digits of i as its actions, state 0 the most
    significant. Without `indices` every one of the A**S policies is
    materialized, so callers should check num_actions ** num_states against
    a bound first; with `indices` only those rows are decoded, in the given
    order.
    """
    check_count("num_states", num_states, 1)
    check_count("num_actions", num_actions, 1)
    if indices is None:
        indices = np.arange(num_actions**num_states)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
    # Python ints, so that a place value beyond int64 raises OverflowError.
    places = np.array([num_actions**p for p in range(num_states - 1, -1, -1)], dtype=np.int64)
    return idx // places % num_actions


def deterministic_returns(mdp: Mdp, policies: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Long-term returns of deterministic policies, one (D,) row per policy.

    Gathers each block of 4096 policies' transition and reward rows, solves
    the stacked Bellman systems in one call and contracts with mu, so every
    row equals `long_term_return` of its policy bit for bit.

    Args:
        mdp: the MDP.
        policies: deterministic policies, as an (n, S) array of action
            indices or a sequence of (S,) arrays; n may be 0.
    """
    pols = np.asarray(policies, dtype=np.int64).reshape(-1, mdp.num_states)
    n, S = pols.shape
    out = np.empty((n, mdp.num_objectives))
    rows = np.arange(S)
    for start in range(0, n, _EVAL_BLOCK):
        block = pols[start : start + _EVAL_BLOCK]
        lhs = np.eye(S) - mdp.gamma * mdp.P[rows, block]
        values = np.linalg.solve(lhs, mdp.r[rows, block])
        out[start : start + len(block)] = mdp.mu @ values
    return out


def stochastic_returns(mdp: Mdp, policies: np.ndarray) -> np.ndarray:
    """Long-term returns of stochastic policies, one (D,) row per policy.

    Forms P_pi and r_pi of a block of at most 4096 policies by one einsum
    each, solves the stacked Bellman systems in one call and contracts with
    mu, so every row equals `long_term_return` of its policy bit for bit,
    whatever the block.

    Args:
        mdp: the MDP.
        policies: an (n, S, A) stack of row-stochastic matrices; n may be 0.

    Raises:
        ValueError: when the stack has the wrong shape or a row is not a
            distribution over actions.
    """
    S, A = mdp.num_states, mdp.num_actions
    mats = np.asarray(policies, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (S, A):
        raise ValueError(f"stochastic policies must have shape (n, {S}, {A}), got {mats.shape}")
    out = np.empty((len(mats), mdp.num_objectives))
    if not len(mats):
        return out
    # Written so that NaN fails the test.
    if not (mats.min() >= -1e-12 and np.abs(mats.sum(axis=2) - 1.0).max() <= 1e-9):
        raise ValueError("stochastic policy rows must be distributions over actions")
    eye = np.eye(S)
    for start in range(0, len(mats), _EVAL_BLOCK):
        block = mats[start : start + _EVAL_BLOCK]
        p_pi = np.einsum("nsa,sat->nst", block, mdp.P)
        r_pi = np.einsum("nsa,sad->nsd", block, mdp.r)
        out[start : start + len(block)] = mdp.mu @ np.linalg.solve(eye - mdp.gamma * p_pi, r_pi)
    return out


def tree_depth(num_states: int, num_actions: int) -> int:
    """Tail depth for `tree_returns` over all A**S policies: 0 for sweeps of
    at most 512 policies, which `deterministic_returns` evaluates directly,
    else the largest k <= S with A**k policies in one evaluation block."""
    if num_actions**num_states <= _TREE_MIN_POLICIES:
        return 0
    depth = 0
    while depth < num_states and num_actions ** (depth + 1) <= _EVAL_BLOCK:
        depth += 1
    return depth


def tree_returns(mdp: Mdp, depth: int) -> np.ndarray:
    """Returns of all A**S deterministic policies, rows lexicographic, from
    a rank-one policy tree. Rounding differs from `deterministic_returns`,
    so these rows serve as a screen only.

    The last `depth` states (capped at S) are the tail and the others the
    head. For each head, the policy with every tail action 0 is solved once,
    with right-hand sides [r_pi | e_t for each tail state t], which gives V
    and the tail columns of M = (I - gamma P_pi)^-1. The tail is then
    expanded one state s at a time, in order: changing the action at s from
    0 to a moves row s of P_pi by dp = P[s, a] - P[s, 0] and of r_pi by
    dr = r[s, a] - r[s, 0], and Sherman-Morrison gives, with c = M e_s and
    q = 1 - gamma dp.c (which is M_ss / M'_ss, in [1 - gamma, 1 / (1 - gamma)]),
        V' = V + c (dr + gamma dp.V) / q,
        M' e_t = M e_t + c gamma (dp.M e_t) / q for the later tail states t,
    and likewise for J = mu V and u_t = mu M e_t, in O(S (D + depth)) per
    child. Heads are taken in blocks of about 4096 policies.

    A block holds its columns as x[c, s, i] and their contractions as
    y[c, i], with the policy i innermost, so each tail state takes one
    (A - 1, S) @ (S, n) product per column for q and the coefficients, and
    expands the children as (columns, S, A, n). That puts the newest action
    in the most significant place of the policy index; one permutation at
    the end of the block makes the rows lexicographic.
    """
    S, A, D = mdp.num_states, mdp.num_actions, mdp.num_objectives
    depth = max(0, min(depth, S))
    tail = range(S - depth, S)
    width = A**depth
    heads = A ** (S - depth)
    out = np.empty((heads * width, D))
    rows = np.arange(S)
    gamma = mdp.gamma
    # Per tail state, dp and dr of actions 1.. against action 0.
    dps = [mdp.P[s, 1:] - mdp.P[s, 0] for s in tail]
    drs = [mdp.r[s, 1:] - mdp.r[s, 0] for s in tail]
    unit = np.eye(S)[:, list(tail)]
    step = max(1, _EVAL_BLOCK // width)

    for start in range(0, heads, step):
        head = enumerate_deterministic(S, A, np.arange(start, min(start + step, heads)) * width)
        lhs = np.eye(S) - gamma * mdp.P[rows, head]
        rhs = np.concatenate(
            [np.broadcast_to(unit, (len(head), S, depth)), mdp.r[rows, head]], axis=2
        )
        # x[c, s, i] and y[c, i], policy i innermost. Columns c: the tail
        # columns of M still to expand, then V; y holds their contractions
        # with mu, [u | J].
        x = np.ascontiguousarray(np.linalg.solve(lhs, rhs).transpose(2, 1, 0))
        y = mdp.mu @ x
        for dp, dr in zip(dps, drs):
            cols, n = y.shape
            q = 1.0 - gamma * (dp @ x[0])
            coef = gamma * (dp @ x[1:]) / q
            coef[cols - 1 - D :] += dr.T[:, :, None] / q
            # A child's index is a * n + its parent's, so the action just
            # expanded is the most significant digit.
            ys = np.empty((cols - 1, A, n))
            ys[:, 0] = y[1:]
            ys[:, 1:] = y[1:, None] + y[0] * coef
            if cols - 1 > D:
                xs = np.empty((cols - 1, S, A, n))
                xs[:, :, 0] = x[1:]
                xs[:, :, 1:] = x[1:, :, None] + x[0][:, None] * coef[:, None]
                x = xs.reshape(cols - 1, S, A * n)
            y = ys.reshape(cols - 1, A * n)
        # The digits run (objective, last tail state, ..., first, head);
        # reversing the axes makes the rows lexicographic.
        digits = (len(head),) + (A,) * depth
        block = out[start * width : (start + len(head)) * width]
        block.reshape(digits + (D,))[...] = y.reshape((D,) + digits[::-1]).T
    return out
