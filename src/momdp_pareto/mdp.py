"""Finite discounted multi-objective MDPs: representation, evaluation, planning."""

from __future__ import annotations

import enum
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Conventions used throughout the package:
#   - a deterministic policy is an int array of shape (S,), one action per state
#   - a stochastic policy is a row-stochastic float array of shape (S, A)
#   - value functions have shape (S, D), long-term returns shape (D,)

# Policies per batched evaluation, and per thread of a multi-threaded sweep.
_EVAL_BLOCK = 4096
# Sweeps of at most this many policies skip the policy tree: below it the
# tree's per-level overhead costs about what the LU solves it saves (on a
# 2-vCPU VM, 243 policies took 1.5 ms by LU and 1.6-1.7 ms by the tree, 512
# took 2.1 ms both ways, and 625 took 2.3 ms by LU and 1.8-1.9 ms by the
# tree).
_TREE_MIN_POLICIES = 512


class InvalidMdpError(ValueError):
    """Raised when an operation is handed an MDP that fails validation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid MDP: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Mdp:
    """A tabular multi-objective MDP.

    Attributes:
        P: transition tensor of shape (S, A, S); P[s, a, t] is the probability
            of moving to state t when playing action a in state s.
        r: reward tensor of shape (S, A, D) with one reward per objective.
        gamma: discount factor in [0, 1).
        mu: initial state distribution of shape (S,); every entry must be
            positive so that all states contribute to the long-term return.
    """

    P: np.ndarray
    r: np.ndarray
    gamma: float
    mu: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        r = np.asarray(self.r, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise ValueError(f"P must have shape (S, A, S), got {P.shape}")
        if r.ndim != 3 or r.shape[:2] != P.shape[:2]:
            raise ValueError(
                f"r must have shape (S, A, D) matching P, got {r.shape} vs {P.shape}"
            )
        if mu.shape != (P.shape[0],):
            raise ValueError(f"mu must have shape ({P.shape[0]},), got {mu.shape}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "mu", mu)

    @property
    def num_states(self) -> int:
        return self.P.shape[0]

    @property
    def num_actions(self) -> int:
        return self.P.shape[1]

    @property
    def num_objectives(self) -> int:
        return self.r.shape[2]


def validate_mdp(mdp: Mdp, atol: float = 1e-12) -> list[str]:
    """Check the numerical invariants of an MDP.

    Structural problems (wrong array ranks) are rejected by the Mdp
    constructor; this checks the value-level constraints and reports every
    violation it finds, naming the offending field and index.

    Args:
        mdp: the MDP to check.
        atol: tolerance for the row-sum and mu normalization checks.

    Returns:
        A list of human-readable violation strings, empty when the MDP is valid.
    """
    violations: list[str] = []
    if not np.isfinite(mdp.P).all():
        for s, a in zip(*np.nonzero(~np.isfinite(mdp.P).all(axis=2))):
            violations.append(f"P[{s}][{a}] contains non-finite entries")
    if not np.isfinite(mdp.r).all():
        for s, a in zip(*np.nonzero(~np.isfinite(mdp.r).all(axis=2))):
            violations.append(f"r[{s}][{a}] contains non-finite entries")
    if violations:
        return violations

    neg = np.nonzero(mdp.P < 0.0)
    for s, a, t in zip(*neg):
        violations.append(f"P[{s}][{a}][{t}] is negative ({mdp.P[s, a, t]:.3g})")
    row_sums = mdp.P.sum(axis=2)
    bad_rows = np.nonzero(np.abs(row_sums - 1.0) > atol)
    for s, a in zip(*bad_rows):
        violations.append(
            f"P[{s}][{a}] row sums to {row_sums[s, a]:.17g}, off by "
            f"{abs(row_sums[s, a] - 1.0):.3g}"
        )
    for s in np.nonzero(~(mdp.mu > 0.0))[0]:
        violations.append(f"mu[{s}] not > 0 (value {mdp.mu[s]:.17g})")
    if abs(mdp.mu.sum() - 1.0) > atol:
        violations.append(f"mu sums to {mdp.mu.sum():.17g}, off by {abs(mdp.mu.sum() - 1.0):.3g}")
    if not (0.0 <= mdp.gamma < 1.0):
        violations.append(f"gamma {mdp.gamma:.17g} outside [0, 1)")
    return violations


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


def _greedy(q: np.ndarray, tie_tol: float) -> np.ndarray:
    """Row-wise argmax picking the lowest action index among near-ties."""
    return (q >= q.max(axis=1, keepdims=True) - tie_tol).argmax(axis=1)


def solve_scalarized(mdp: Mdp, w: np.ndarray, tie_tol: float = 1e-10) -> np.ndarray:
    """Find a deterministic policy maximizing the w-weighted scalar return.

    Runs exact policy iteration on the scalarized reward r @ w. Ties in the
    greedy step are broken toward the lowest action index so the result is
    deterministic.

    Args:
        mdp: a valid MDP.
        w: strictly positive weight vector of shape (D,).
        tie_tol: two Q-values within this of the row maximum count as tied.

    Returns:
        Int array of shape (S,) with the optimal action per state.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (mdp.num_objectives,):
        raise ValueError(f"w must have shape ({mdp.num_objectives},), got {w.shape}")
    if not np.all(w > 0.0):
        raise ValueError("scalarization weights must be strictly positive")
    S = mdp.num_states
    r_w = mdp.r @ w  # (S, A)
    policy = _greedy(r_w, tie_tol)
    seen = {tuple(policy.tolist())}
    while True:
        p_pi = mdp.P[np.arange(S), policy]
        lhs = np.eye(S) - mdp.gamma * p_pi
        v = np.linalg.solve(lhs, r_w[np.arange(S), policy])
        q = r_w + mdp.gamma * (mdp.P @ v)
        improved = _greedy(q, tie_tol)
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


def hamming_distance(p1: np.ndarray, p2: np.ndarray) -> int:
    """Number of states where two deterministic policies disagree."""
    a1 = np.asarray(p1)
    a2 = np.asarray(p2)
    if a1.shape != a2.shape:
        raise ValueError(f"policies have different shapes: {a1.shape} vs {a2.shape}")
    return int(np.count_nonzero(a1 != a2))


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
        raise ValueError("need one weight per policy")
    if w.min() < -1e-12:
        raise ValueError(f"mixture weights must be nonnegative, got min {w.min():.3g}")
    if abs(w.sum() - 1.0) > 1e-12:
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


def check_seed(seed: int) -> None:
    """Raise a ValueError naming seed unless it is an int >= 0."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")


def _check_sizes(**sizes: int) -> None:
    """Raise a ValueError naming the first size below 1."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def gen_random_mdp(
    seed: int, num_states: int, num_actions: int, num_objectives: int, gamma: float = 0.9
) -> Mdp:
    """Sample a dense random MDP.

    Transition rows are drawn from a flat Dirichlet, rewards uniformly from
    [0, 1], and the initial distribution is uniform, so the result always
    passes validation.

    Args:
        seed: int >= 0 for numpy's default_rng; equal seeds give equal MDPs.
        num_states: S >= 1.
        num_actions: A >= 1.
        num_objectives: D >= 1.
        gamma: discount factor in [0, 1).
    """
    check_seed(seed)
    _check_sizes(num_states=num_states, num_actions=num_actions, num_objectives=num_objectives)
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
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
    distribution is uniform over cells.
    """
    check_seed(seed)
    _check_sizes(rows=rows, cols=cols, num_objectives=num_objectives)
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
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
    if num_states < 1 or num_actions < 1:
        raise ValueError("num_states and num_actions must be >= 1")
    if indices is None:
        indices = np.arange(num_actions**num_states)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
    # Python ints, so that a place value beyond int64 raises OverflowError.
    places = np.array([num_actions**p for p in range(num_states - 1, -1, -1)], dtype=np.int64)
    return idx // places % num_actions


def deterministic_returns(
    mdp: Mdp, policies: Sequence[np.ndarray] | np.ndarray, thread_count: int = 1
) -> np.ndarray:
    """Long-term returns of deterministic policies, one (D,) row per policy.

    Gathers each policy's transition and reward rows, solves the stacked
    Bellman systems in one call and contracts with mu, so every row equals
    `long_term_return` of its policy bit for bit. Blocks of 4096 policies
    are spread over `thread_count` threads; the result does not depend on
    the thread count.

    Args:
        mdp: the MDP.
        policies: deterministic policies, as an (n, S) array of action
            indices or a sequence of (S,) arrays; n may be 0.
        thread_count: worker threads; 1 evaluates in the calling thread.
    """
    pols = np.asarray(policies, dtype=np.int64).reshape(-1, mdp.num_states)
    n, S = pols.shape
    out = np.empty((n, mdp.num_objectives))
    rows = np.arange(S)

    def run(start: int) -> None:
        block = pols[start : start + _EVAL_BLOCK]
        lhs = np.eye(S) - mdp.gamma * mdp.P[rows, block]
        values = np.linalg.solve(lhs, mdp.r[rows, block])
        out[start : start + len(block)] = mdp.mu @ values

    _run_blocks(run, range(0, n, _EVAL_BLOCK), thread_count)
    return out


def _run_blocks(run: Callable[[int], None], starts: range, thread_count: int) -> None:
    """Call run(start) for every block start, over thread_count threads when
    there is more than one block, else in the calling thread."""
    if thread_count > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=thread_count) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)


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
    if mats.min() < -1e-12 or np.abs(mats.sum(axis=2) - 1.0).max() > 1e-9:
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


def tree_returns(mdp: Mdp, depth: int, thread_count: int = 1) -> np.ndarray:
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
    child. Heads are taken in blocks of about 4096 policies, spread over
    `thread_count` threads; the result does not depend on the thread count.
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

    def run(start: int) -> None:
        head = enumerate_deterministic(S, A, np.arange(start, min(start + step, heads)) * width)
        lhs = np.eye(S) - gamma * mdp.P[rows, head]
        rhs = np.concatenate(
            [np.broadcast_to(unit, (len(head), S, depth)), mdp.r[rows, head]], axis=2
        )
        # Columns: the tail columns of M still to expand, then V; y holds
        # their contractions with mu, [u | J].
        x = np.linalg.solve(lhs, rhs)
        y = mdp.mu @ x
        for dp, dr in zip(dps, drs):
            n, cols = len(y), y.shape[1]
            q = 1.0 - gamma * (x[:, :, 0] @ dp.T)
            coef = gamma * (dp @ x[:, :, 1:]) / q[:, :, None]
            coef[:, :, cols - 1 - D :] += dr / q[:, :, None]
            ys = np.empty((n, A, cols - 1))
            ys[:, 0] = y[:, 1:]
            ys[:, 1:] = y[:, None, 1:] + y[:, None, :1] * coef
            if cols - 1 > D:
                xs = np.empty((n, A, S, cols - 1))
                xs[:, 0] = x[:, :, 1:]
                xs[:, 1:] = x[:, None, :, 1:] + x[:, None, :, :1] * coef[:, :, None, :]
                x = xs.reshape(n * A, S, cols - 1)
            y = ys.reshape(n * A, cols - 1)
        out[start * width : start * width + len(y)] = y

    _run_blocks(run, range(0, heads, step), thread_count)
    return out
