import itertools
import re

import numpy as np
import pytest

import momdp_pareto.mdp as mdp_module

from momdp_pareto import (
    InvalidMdpError,
    Mdp,
    gen_gridworld,
    gen_random_mdp,
    long_term_return,
)
from momdp_pareto.mdp import (
    GridAction,
    check_actions,
    deterministic_returns,
    enumerate_deterministic,
    mix_policies,
    neighbors_one,
    solve_scalarized,
    stochastic_returns,
    tree_depth,
    tree_returns,
)
from momdp_pareto.oracle import _tree_margin
from momdp_pareto.search import return_scale

from helpers import (
    dependent_objective,
    duplicate_action,
    einsum_return,
    hamming_distance,
    iterative_eval,
    make_bandit,
    mc_return,
    naive_induced,
    one_hot_policy,
)


def two_state_mdp():
    P = np.zeros((2, 2, 2))
    P[0, 0] = [1.0, 0.0]
    P[0, 1] = [0.0, 1.0]
    P[1, 0] = [0.5, 0.5]
    P[1, 1] = [0.0, 1.0]
    r = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
    return Mdp(P=P, r=r, gamma=0.5, mu=np.array([0.5, 0.5]))


def violations(**changes):
    """The violations InvalidMdpError lists when `two_state_mdp` is built
    again with `changes`."""
    m = two_state_mdp()
    with pytest.raises(InvalidMdpError) as err:
        Mdp(**{"P": m.P, "r": m.r, "gamma": m.gamma, "mu": m.mu, **changes})
    assert str(err.value) == "invalid MDP: " + "; ".join(err.value.violations)
    return err.value.violations


class TestValidate:
    """An Mdp checks its values when it is built."""

    def test_well_formed(self):
        assert two_state_mdp().num_states == 2

    def test_random_instances_pass(self):
        for seed in range(5):
            assert gen_random_mdp(seed, 4, 3, 3).num_states == 4

    def test_zero_mu_entry_flagged(self):
        assert violations(mu=np.array([1.0, 0.0])) == ["mu[1] not > 0 (value 0)"]

    def test_mu_sum_flagged(self):
        assert violations(mu=np.array([0.5, 0.6])) == ["mu sums to 1.1000000000000001, off by 0.1"]

    def test_bad_row_sum_names_state_action(self):
        P = two_state_mdp().P.copy()
        P[1, 0] = [0.4, 0.5]
        msgs = violations(P=P)
        assert any("P[1][0]" in v and "0.9" in v for v in msgs)

    def test_row_sum_tolerance_is_1e_12(self):
        P = two_state_mdp().P.copy()
        P[1, 0] = [0.5, 0.5 + 2e-13]
        assert Mdp(P=P, r=two_state_mdp().r, gamma=0.5, mu=[0.5, 0.5]).num_states == 2
        P[1, 0] = [0.5, 0.5 + 2e-12]
        assert [v[:22] for v in violations(P=P)] == ["P[1][0] row sums to 1."]

    @pytest.mark.parametrize("gamma", [1.0, -0.5, float("nan"), float("inf")])
    def test_gamma_out_of_range_flagged(self, gamma):
        assert violations(gamma=gamma) == [f"gamma {gamma:.17g} outside [0, 1)"]

    def test_negative_transition_flagged(self):
        P = two_state_mdp().P.copy()
        P[0, 0] = [1.2, -0.2]
        assert "P[0][0][1] is negative (-0.2)" in violations(P=P)

    def test_non_finite_entries_named(self):
        m = two_state_mdp()
        P, r = m.P.copy(), m.r.copy()
        P[0, 1, 0] = np.nan
        r[1, 1, 0] = np.inf
        assert violations(P=P, r=r) == [
            "P[0][1] contains non-finite entries",
            "r[1][1] contains non-finite entries",
        ]

    def test_every_violation_listed(self):
        P = two_state_mdp().P.copy()
        P[0, 0] = [1.2, -0.2]
        P[1, 1] = [0.0, 0.5]
        assert violations(P=P, mu=np.array([1.0, 0.0]), gamma=1.0) == [
            "P[0][0][1] is negative (-0.2)",
            "P[1][1] row sums to 0.5, off by 0.5",
            "mu[1] not > 0 (value 0)",
            "gamma 1 outside [0, 1)",
        ]

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(ValueError):
            Mdp(P=np.ones((2, 2, 3)), r=np.ones((2, 2, 1)), gamma=0.5, mu=np.ones(2) / 2)

    @pytest.mark.parametrize(
        "S,A,D,message",
        [
            (2, 0, 2, r"P must have S >= 1 states and A >= 1 actions, got shape (2, 0, 2)"),
            (0, 2, 2, r"P must have S >= 1 states and A >= 1 actions, got shape (0, 2, 0)"),
            (2, 2, 0, r"r must have D >= 1 objectives, got shape (2, 2, 0)"),
        ],
        ids=["no-action", "no-state", "no-objective"],
    )
    def test_empty_spaces_raise_at_construction(self, S, A, D, message):
        """Zero actions or objectives used to build an Mdp, on which `search`
        and the oracle then failed in a numpy reduction that named no input."""
        with pytest.raises(ValueError) as err:
            Mdp(P=np.full((S, A, S), 0.5), r=np.zeros((S, A, D)), gamma=0.5, mu=np.full(S, 0.5))
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_arrays_are_read_only_copies(self):
        m = two_state_mdp()
        P, r, mu = m.P.copy(), m.r.copy(), m.mu.copy()
        built = Mdp(P=P, r=r, gamma=0.5, mu=mu)
        for name, given in (("P", P), ("r", r), ("mu", mu)):
            stored = getattr(built, name)
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0
            assert given.flags.writeable
            given[0] = 0.0
            assert not np.shares_memory(stored, given)
        assert built.P[0, 0].tolist() == [1.0, 0.0] and built.mu.tolist() == [0.5, 0.5]


def value_function(m, policy):
    """The (S, D) value function V of a policy, read from `long_term_return`
    by one direct solve. Row s of M puts half the initial mass on state s
    and spreads the rest evenly, so each row is a valid mu, M = (I + 1/S) / 2
    is invertible, and the returns under the rows of M are M V."""
    S = m.num_states
    M = (np.eye(S) + 1.0 / S) / 2
    returns = [long_term_return(Mdp(P=m.P, r=m.r, gamma=m.gamma, mu=mu), policy) for mu in M]
    return np.linalg.solve(M, returns)


class TestInduced:
    """The policy's transition and reward rows, seen through the returns."""

    def test_single_action_selects_rows(self):
        m = gen_random_mdp(3, 4, 1, 2)
        pol = np.zeros(4, dtype=np.int64)
        V = value_function(m, pol)
        assert np.allclose(V, m.r[:, 0, :] + m.gamma * (m.P[:, 0, :] @ V), atol=1e-12)

    def test_uniform_policy_averages_rows(self):
        m = two_state_mdp()
        averaged = Mdp(
            P=m.P.mean(axis=1, keepdims=True), r=m.r.mean(axis=1, keepdims=True),
            gamma=m.gamma, mu=m.mu,
        )
        got = long_term_return(m, np.full((2, 2), 0.5))
        assert np.allclose(got, long_term_return(averaged, np.zeros(2, dtype=np.int64)))

    def test_mixed_policy_matches_naive_summation(self):
        m = gen_random_mdp(11, 3, 2, 2)
        pol = np.array([[0.3, 0.7], [1.0, 0.0], [0.5, 0.5]])
        P, r = naive_induced(m, pol)
        want = np.linalg.solve(np.eye(3) - m.gamma * P, r)
        assert np.allclose(value_function(m, pol), want, atol=1e-13)

    def test_rows_sum_to_one(self):
        # With every reward 1, each state's value is 1 / (1 - gamma) exactly
        # when every mixed transition row sums to one.
        m = gen_random_mdp(5, 5, 3, 2)
        ones = Mdp(P=m.P, r=np.ones_like(m.r), gamma=m.gamma, mu=m.mu)
        pol = np.random.default_rng(2).dirichlet(np.ones(3), size=5)
        V = value_function(ones, pol)
        assert np.abs(V * (1 - m.gamma) - 1.0).max() <= 1e-12


class TestEvaluate:
    def test_single_state_geometric_series(self):
        m = make_bandit(np.array([[2.0, -1.0, 0.5]]), gamma=0.9)
        V = value_function(m, np.zeros(1, dtype=np.int64))
        assert np.allclose(V[0], np.array([2.0, -1.0, 0.5]) / 0.1)

    def test_gamma_zero_returns_immediate_reward(self):
        m = gen_random_mdp(4, 3, 3, 2)
        m0 = Mdp(P=m.P, r=m.r, gamma=0.0, mu=m.mu)
        pol = np.array([1, 0, 2], dtype=np.int64)
        assert np.allclose(value_function(m0, pol), m0.r[np.arange(3), pol])

    def test_two_state_cycle_closed_form(self):
        # Deterministic 0 -> 1 -> 0 loop: V(0) = (r0 + g*r1) / (1 - g^2).
        g = 0.7
        P = np.zeros((2, 1, 2))
        P[0, 0] = [0.0, 1.0]
        P[1, 0] = [1.0, 0.0]
        r = np.array([[[1.0, 3.0]], [[2.0, -1.0]]])
        m = Mdp(P=P, r=r, gamma=g, mu=np.array([0.5, 0.5]))
        V = value_function(m, np.zeros(2, dtype=np.int64))
        assert np.allclose(V[0], (r[0, 0] + g * r[1, 0]) / (1 - g**2))
        assert np.allclose(V[1], (r[1, 0] + g * r[0, 0]) / (1 - g**2))

    def test_matches_value_iteration(self):
        for seed in (0, 1, 2):
            m = gen_random_mdp(seed, 5, 3, 3)
            pol = np.random.default_rng(seed).integers(0, 3, size=5)
            direct = value_function(m, pol)
            iterated = iterative_eval(m, one_hot_policy(pol, 3), tol=1e-12)
            assert np.abs(direct - iterated).max() <= 1e-9

    def test_linear_system_residual(self):
        m = gen_random_mdp(9, 6, 4, 3)
        pol = np.random.default_rng(9).dirichlet(np.ones(4), size=6)
        V = value_function(m, pol)
        Pp, rp = naive_induced(m, pol)
        residual = np.abs(V - m.gamma * (Pp @ V) - rp).max()
        assert residual <= 1e-10 * max(1.0, np.abs(rp).max())


class TestLongTermReturn:
    def test_single_state_equals_value(self):
        m = make_bandit(np.array([[1.0, 2.0]]), gamma=0.3)
        pol = np.zeros(1, dtype=np.int64)
        assert np.allclose(long_term_return(m, pol), np.array([1.0, 2.0]) / 0.7)
        assert long_term_return(m, pol).tobytes() == einsum_return(m, pol).tobytes()

    def test_identical_objectives_give_equal_components(self):
        m = gen_random_mdp(4, 4, 3, 1)
        r = np.repeat(m.r, 3, axis=2)
        m3 = Mdp(P=m.P, r=r, gamma=m.gamma, mu=m.mu)
        j = long_term_return(m3, np.array([0, 2, 1, 0], dtype=np.int64))
        assert np.abs(j - j[0]).max() <= 1e-12

    def test_matches_monte_carlo_within_three_standard_errors(self):
        m = gen_random_mdp(0, 4, 3, 2)
        pol = np.array([2, 0, 1, 1], dtype=np.int64)
        exact = long_term_return(m, pol)
        est, se = mc_return(m, one_hot_policy(pol, 3), horizon=200, n_paths=100_000)
        # Truncation at horizon 200 with gamma=0.9 is below 1e-8, far inside SE.
        assert np.all(np.abs(est - exact) <= 3 * se + 1e-6)

    def test_integral_float_actions_accepted(self, mdp433):
        pol = np.array([0, 2, 1, 0])
        want = long_term_return(mdp433, pol)
        assert long_term_return(mdp433, pol.astype(float)).tobytes() == want.tobytes()
        assert long_term_return(mdp433, pol.tolist()).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "pol,message",
        [
            ([0.5, 1, 0, 0], "action 0.5 at state 0 is not an integer in [0, 3)"),
            ([0, 1, 3, 0], "action 3 at state 2 is not an integer in [0, 3)"),
            ([0, 1, 2, -1], "action -1 at state 3 is not an integer in [0, 3)"),
            ([0, float("nan"), 2, 1], "action nan at state 1 is not an integer in [0, 3)"),
        ],
    )
    def test_bad_action_names_state(self, mdp433, pol, message):
        with pytest.raises(ValueError) as err:
            long_term_return(mdp433, np.array(pol))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            check_actions(pol, 4, 3)
        assert str(err.value) == message

    def test_check_actions_returns_int_actions(self, mdp433):
        for pol in ([0, 2, 1, 0], [0.0, 2.0, 1.0, 0.0], np.array([0, 2, 1, 0], dtype=np.int32)):
            got = check_actions(pol, 4, 3)
            assert got.dtype == np.int64 and got.tolist() == [0, 2, 1, 0]
        with pytest.raises(ValueError, match=r"deterministic policy must have shape \(4,\), got \(3,\)"):
            check_actions([0, 1, 2], 4, 3)

    def test_bad_shapes_name_the_policy_kind(self, mdp433):
        with pytest.raises(ValueError, match=r"deterministic policy must have shape \(4,\), got \(3,\)"):
            long_term_return(mdp433, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match=r"stochastic policy must have shape \(4, 3\), got \(4, 2\)"):
            long_term_return(mdp433, np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match=r"stochastic policy must have shape \(4, 3\), got \(1, 4, 3\)"):
            long_term_return(mdp433, np.full((1, 4, 3), 1 / 3))
        bad = np.full((4, 3), 1 / 3)
        bad[2] = [0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="distributions"):
            long_term_return(mdp433, bad)


class TestSolveScalarized:
    def test_myopic_when_gamma_zero(self):
        m = gen_random_mdp(5, 4, 3, 3)
        m0 = Mdp(P=m.P, r=m.r, gamma=0.0, mu=m.mu)
        got = solve_scalarized(m0, np.ones(3))
        want = m0.r.sum(axis=2).argmax(axis=1)
        assert np.array_equal(got, want)

    def test_beats_every_enumerated_policy(self):
        for seed in (0, 3):
            m = gen_random_mdp(seed, 3, 3, 3)
            w = np.array([0.5, 1.5, 1.0])
            best = solve_scalarized(m, w)
            val = w @ long_term_return(m, best)
            for pol in enumerate_deterministic(3, 3):
                assert val >= w @ long_term_return(m, pol) - 1e-9

    def test_single_objective_optimal(self):
        m = gen_random_mdp(2, 3, 3, 1)
        best = solve_scalarized(m, np.ones(1))
        val = long_term_return(m, best)[0]
        returns = [long_term_return(m, p)[0] for p in enumerate_deterministic(3, 3)]
        assert val >= max(returns) - 1e-9

    def test_scaling_weights_keeps_policy(self):
        m = gen_random_mdp(8, 4, 3, 3)
        w = np.array([1.0, 2.0, 0.5])
        assert np.array_equal(solve_scalarized(m, w), solve_scalarized(m, 2 * w))

    def test_rejects_nonpositive_weights(self):
        m = gen_random_mdp(1, 3, 2, 2)
        with pytest.raises(ValueError):
            solve_scalarized(m, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_scalarized(m, np.array([1.0, -1.0]))


class TestNeighbors:
    def test_counts(self):
        assert len(neighbors_one(np.zeros(2, dtype=np.int64), 2)) == 2
        assert neighbors_one(np.zeros(3, dtype=np.int64), 1).shape == (0, 3)
        assert neighbors_one(np.zeros(5, dtype=np.int64), 5).shape == (20, 5)

    def test_all_at_distance_one_no_duplicates(self):
        base = np.array([1, 0, 2], dtype=np.int64)
        nbrs = neighbors_one(base, 3)
        keys = {tuple(p.tolist()) for p in nbrs}
        assert len(keys) == len(nbrs) == 6
        assert all(hamming_distance(base, p) == 1 for p in nbrs)

    def test_enumeration_order(self):
        # State-major, action ascending, skipping the current action.
        base = np.array([1, 0], dtype=np.int64)
        nbrs = neighbors_one(base, 3)
        assert nbrs.dtype == np.int64
        assert [tuple(p.tolist()) for p in nbrs] == [(0, 0), (2, 0), (1, 1), (1, 2)]


class TestHamming:
    """The helper that the neighbor and acceptance tests count changed
    states with."""

    def test_identity(self):
        p = np.array([0, 1, 2], dtype=np.int64)
        assert hamming_distance(p, p) == 0

    def test_single_difference(self):
        assert hamming_distance(np.array([0, 1]), np.array([0, 2])) == 1

    def test_complement(self):
        a = np.zeros(4, dtype=np.int64)
        assert hamming_distance(a, 1 - a) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64))


class TestMixPolicies:
    def test_indicator_weight(self):
        p1 = np.array([0, 1], dtype=np.int64)
        p2 = np.array([1, 1], dtype=np.int64)
        mixed = mix_policies([p1, p2], [1.0, 0.0], num_actions=2)
        assert np.allclose(mixed, one_hot_policy(p1, 2))

    def test_identical_policies_idempotent(self):
        p = np.array([2, 0], dtype=np.int64)
        mixed = mix_policies([p, p], [0.5, 0.5], num_actions=3)
        assert np.allclose(mixed, one_hot_policy(p, 3))

    def test_half_half_on_distance_one_pair(self):
        p1 = np.array([0, 1], dtype=np.int64)
        p2 = np.array([0, 2], dtype=np.int64)
        mixed = mix_policies([p1, p2], [0.5, 0.5], num_actions=3)
        assert np.allclose(mixed[0], [1.0, 0.0, 0.0])
        assert np.allclose(mixed[1], [0.0, 0.5, 0.5])

    def test_rejects_bad_weights(self):
        p = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            mix_policies([p, p], [0.6, 0.6], num_actions=2)
        with pytest.raises(ValueError):
            mix_policies([], [], num_actions=2)
        # NaN weights used to give a policy of NaN rows.
        for weights in ([np.nan, np.nan], [1.0, np.nan]):
            with pytest.raises(ValueError, match="mixture weights must be nonnegative"):
                mix_policies([p, p], weights, num_actions=2)

    @pytest.mark.parametrize("action", [-1, 1.5, 7])
    def test_rejects_bad_actions(self, action):
        """-1 used to be mixed in as action A - 1, 1.5 truncated to 1, and
        7 raised a bare IndexError; the message names the policy, the state
        and the action, by `check_actions`."""
        p = np.array([0, 1, 2])
        with pytest.raises(ValueError) as err:
            mix_policies([p, np.array([0, action, 2])], [0.5, 0.5], num_actions=3)
        assert str(err.value) == f"policy 1: action {action!r} at state 1 is not an integer in [0, 3)"

    @pytest.mark.parametrize("first", [1, [[0, 1]]])
    def test_rejects_a_first_policy_of_the_wrong_rank(self, first):
        """The state count is read off the first policy, so a 0-d one used
        to raise a bare IndexError; the message names policy 0 and its
        shape."""
        shape = np.shape(first)
        with pytest.raises(ValueError) as err:
            mix_policies([first], [1.0], num_actions=3)
        assert str(err.value) == f"policy 0: deterministic policy must have shape (S,), got {shape}"


class TestGenerators:
    def test_random_mdp_deterministic(self):
        a = gen_random_mdp(42, 4, 3, 3)
        b = gen_random_mdp(42, 4, 3, 3)
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.mu, b.mu)

    def test_random_mdp_different_seeds_differ(self):
        a = gen_random_mdp(0, 3, 2, 2)
        b = gen_random_mdp(1, 3, 2, 2)
        assert not np.array_equal(a.P, b.P)

    def test_gridworld_1x1_self_loops(self):
        m = gen_gridworld(0, 1, 1, 2, gamma=0.5)
        assert m.num_states == 1 and m.num_actions == 4
        assert np.allclose(m.P[0, :, 0], 1.0)
        pol = np.zeros(1, dtype=np.int64)
        assert np.allclose(long_term_return(m, pol), m.r[0, 0] / (1 - 0.5))

    def test_gridworld_clamps_at_walls(self):
        m = gen_gridworld(3, 2, 2, 2)
        # Row-major states; moving left in column 0 stays put.
        for row in range(2):
            s = row * 2
            assert m.P[s, int(GridAction.LEFT), s] == 1.0
        # Moving right from column 0 lands in column 1.
        assert m.P[0, int(GridAction.RIGHT), 1] == 1.0

    def test_gridworld_valid(self):
        assert gen_gridworld(1, 3, 3, 3).num_states == 9

    @pytest.mark.parametrize("size", [0, 2.5, "3"])
    def test_bad_size_named(self, size):
        """2.5 used to raise numpy's TypeError "... got '2.5'", which names
        no argument."""
        message = rf"^num_states must be an int >= 1, got {re.escape(repr(size))}$"
        with pytest.raises(ValueError, match=message):
            gen_random_mdp(0, size, 3, 3)
        with pytest.raises(ValueError, match=message.replace("num_states", "cols")):
            gen_gridworld(0, 2, size, 3)

    @pytest.mark.parametrize("gamma", [1.0, -0.1])
    def test_bad_gamma_named_by_the_mdp(self, gamma):
        for build in (gen_random_mdp, gen_gridworld):
            with pytest.raises(InvalidMdpError) as err:
                build(0, 2, 2, 2, gamma)
            assert err.value.violations == [f"gamma {gamma:.17g} outside [0, 1)"]

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_bad_seed_named(self, seed):
        """A negative seed used to raise numpy's "expected non-negative
        integer", which names no input."""
        message = rf"^seed must be an int >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            gen_random_mdp(seed, 3, 2, 2)
        with pytest.raises(ValueError, match=message):
            gen_gridworld(seed, 2, 2, 2)

    def test_numpy_int_seed_accepted(self):
        a = gen_random_mdp(np.int64(3), 3, 2, 2)
        assert np.array_equal(a.P, gen_random_mdp(3, 3, 2, 2).P)


class TestEnumerate:
    def test_small_counts(self):
        assert len(list(enumerate_deterministic(1, 3))) == 3
        assert sum(1 for _ in enumerate_deterministic(5, 5)) == 5**5

    def test_lexicographic_order(self):
        got = [tuple(p.tolist()) for p in enumerate_deterministic(3, 2)]
        want = list(itertools.product(range(2), repeat=3))
        assert got == want

    def test_array_shape(self):
        pols = enumerate_deterministic(4, 3)
        assert pols.shape == (3**4, 4)
        assert pols.dtype == np.int64

    def test_rejects_empty_spaces(self):
        with pytest.raises(ValueError, match=r"^num_states must be an int >= 1, got 0$"):
            enumerate_deterministic(0, 2)
        with pytest.raises(ValueError, match=r"^num_actions must be an int >= 1, got 0$"):
            enumerate_deterministic(2, 0)

    def test_decodes_indices(self):
        pols = enumerate_deterministic(4, 3)
        idx = [80, 0, 7, 7, 41]
        got = enumerate_deterministic(4, 3, idx)
        assert got.tobytes() == pols[idx].tobytes()
        assert enumerate_deterministic(4, 3, []).shape == (0, 4)
        assert enumerate_deterministic(3, 1, [0]).tolist() == [[0, 0, 0]]
        with pytest.raises(OverflowError):
            enumerate_deterministic(65, 2, [1])


class TestDeterministicReturns:
    # dense, duplicated-action, gamma=0, gamma=0.99 and gridworld; the
    # first has 4**7 = 16384 policies, so four evaluation blocks.
    CASES = {
        "dense": lambda: gen_random_mdp(3, 7, 4, 3),
        "dupact": lambda: duplicate_action(gen_random_mdp(0, 6, 3, 3)),
        "gamma0": lambda: gen_random_mdp(1, 5, 3, 4, gamma=0.0),
        "gamma99": lambda: gen_random_mdp(8, 6, 3, 4, gamma=0.99),
        "grid": lambda: gen_gridworld(2, 2, 3, 3),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_bit_identical_to_long_term_return(self, kind):
        m = self.CASES[kind]()
        pols = enumerate_deterministic(m.num_states, m.num_actions)
        got = deterministic_returns(m, pols)
        assert got.shape == (len(pols), m.num_objectives)
        for row, pol in zip(got, pols):
            assert row.tobytes() == einsum_return(m, pol).tobytes()
            assert row.tobytes() == long_term_return(m, pol).tobytes()

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_blocks_do_not_change_results(self, kind, monkeypatch):
        m = self.CASES[kind]()
        pols = enumerate_deterministic(m.num_states, m.num_actions)
        whole = deterministic_returns(m, pols)
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", 7)
        assert deterministic_returns(m, pols).tobytes() == whole.tobytes()

    def test_list_of_policies(self, mdp433):
        pols = list(neighbors_one(np.zeros(4, dtype=np.int64), 3))
        got = deterministic_returns(mdp433, pols)
        assert got.tobytes() == np.array([long_term_return(mdp433, p) for p in pols]).tobytes()


class TestTreeReturns:
    """The rank-one policy tree against `deterministic_returns`, in scaled
    space, within a hundredth of the screen's margin."""

    FAMILIES = {
        "dense": lambda g: gen_random_mdp(0, 5, 3, 3, g),
        "dupact": lambda g: duplicate_action(gen_random_mdp(1, 5, 3, 3, g)),
        "depobj": lambda g: dependent_objective(gen_random_mdp(2, 5, 3, 4, g)),
        "grid": lambda g: gen_gridworld(3, 2, 3, 3, g),
    }

    @staticmethod
    def assert_close_to_lu(m, depth):
        pols = enumerate_deterministic(m.num_states, m.num_actions)
        want = deterministic_returns(m, pols)
        got = tree_returns(m, depth)
        assert got.shape == want.shape
        err = np.abs(got - want).max() * return_scale(m)
        assert err <= _tree_margin(m) / 100, (depth, err)
        return got

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99, 0.9999])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_within_a_hundredth_of_the_margin(self, family, gamma):
        m = self.FAMILIES[family](gamma)
        for depth in range(1, m.num_states + 1):
            self.assert_close_to_lu(m, depth)

    def test_one_state(self):
        m = gen_random_mdp(4, 1, 5, 3)
        self.assert_close_to_lu(m, 1)

    def test_one_action(self):
        m = gen_random_mdp(5, 4, 1, 3)
        got = self.assert_close_to_lu(m, 2)
        assert got.shape == (1, 3)

    def test_depth_beyond_the_states_expands_them_all(self):
        m = gen_random_mdp(6, 4, 3, 3)
        deep = self.assert_close_to_lu(m, 9)
        assert deep.tobytes() == tree_returns(m, 4).tobytes()

    def test_depth_zero_is_the_base_solve(self):
        m = gen_random_mdp(7, 3, 3, 2)
        self.assert_close_to_lu(m, 0)

    # 729 policies in blocks of 27 (one head each) or of 54 (two heads).
    @pytest.mark.parametrize("block", [27, 60])
    def test_blocks_of_whole_heads(self, block, monkeypatch):
        m = gen_random_mdp(3, 6, 3, 3)
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", block)
        self.assert_close_to_lu(m, 3)

    def test_default_blocks_of_four_four_and_two_heads(self):
        """10 000 policies at depth 3: 1 000 per head, so blocks of the
        default _EVAL_BLOCK hold 4, 4 and then 2 heads."""
        m = gen_random_mdp(0, 4, 10, 3)
        assert tree_depth(4, 10) == 3
        self.assert_close_to_lu(m, 3)

    def test_two_actions_at_depth_twelve(self):
        m = gen_random_mdp(0, 13, 2, 3)
        assert tree_depth(13, 2) == 12
        self.assert_close_to_lu(m, 12)

    def test_depth_for_a_full_sweep(self, monkeypatch):
        assert tree_depth(5, 2) == 0
        assert tree_depth(9, 2) == 0
        assert tree_depth(10, 2) == 10
        assert tree_depth(5, 3) == 0
        assert tree_depth(6, 4) == 6
        assert tree_depth(7, 4) == 6
        assert tree_depth(8, 4) == 6
        assert tree_depth(6, 5) == 5
        assert tree_depth(1, 4097) == 0
        assert tree_depth(2, 4097) == 0
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", 9)
        monkeypatch.setattr(mdp_module, "_TREE_MIN_POLICIES", 8)
        assert tree_depth(1, 8) == 0
        assert tree_depth(2, 3) == 2
        assert tree_depth(3, 3) == 2
        assert tree_depth(5, 2) == 3


class TestStochasticReturns:
    CASES = TestDeterministicReturns.CASES

    @staticmethod
    def policies(m, n, seed):
        """n stochastic policies: Dirichlet rows, one-hot rows, and mixtures
        of three deterministic policies built by `mix_policies`."""
        rng = np.random.default_rng(seed)
        S, A = m.num_states, m.num_actions
        dirichlet = rng.dirichlet(np.ones(A), size=(n, S))
        one_hot = np.array([one_hot_policy(p, A) for p in rng.integers(0, A, size=(n, S))])
        corners = list(rng.integers(0, A, size=(3, S)))
        mixed = np.array([mix_policies(corners, w, A) for w in rng.dirichlet(np.ones(3), n)])
        return np.concatenate([dirichlet, one_hot, mixed])

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_bit_identical_to_long_term_return(self, kind):
        m = self.CASES[kind]()
        mats = self.policies(m, 40, seed=len(kind))
        got = stochastic_returns(m, mats)
        assert got.shape == (len(mats), m.num_objectives)
        for row, mat in zip(got, mats):
            assert row.tobytes() == einsum_return(m, mat).tobytes()
            assert row.tobytes() == long_term_return(m, mat).tobytes()

    def test_blocks_do_not_change_results(self, mdp433, monkeypatch):
        mats = self.policies(mdp433, 11, seed=5)
        whole = stochastic_returns(mdp433, mats)
        monkeypatch.setattr(mdp_module, "_EVAL_BLOCK", 4)
        assert stochastic_returns(mdp433, mats).tobytes() == whole.tobytes()

    def test_empty_stack(self, mdp433):
        assert stochastic_returns(mdp433, np.zeros((0, 4, 3))).shape == (0, 3)

    def test_rejects_bad_policies(self, mdp433):
        with pytest.raises(ValueError, match=r"shape \(n, 4, 3\)"):
            stochastic_returns(mdp433, np.full((4, 3), 1 / 3))
        bad = np.full((2, 4, 3), 1 / 3)
        bad[1, 2] = [0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="distributions"):
            stochastic_returns(mdp433, bad)
        # NaN entries used to give a return of NaNs.
        bad[1, 2] = [np.nan, 0.5, 0.5]
        with pytest.raises(ValueError, match="distributions"):
            stochastic_returns(mdp433, bad)
        with pytest.raises(ValueError, match="distributions"):
            long_term_return(mdp433, np.full((4, 3), np.nan))


def test_grid_action_members():
    assert {a.name for a in GridAction} == {"UP", "DOWN", "LEFT", "RIGHT"}
    assert len({int(a) for a in GridAction}) == 4
