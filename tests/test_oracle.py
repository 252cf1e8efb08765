"""Tests for the exact solvers: fixed point, best response, NashConv."""

import numpy as np
import pytest

from fm3q import games, oracle


def test_gamma_zero_fixed_point_is_the_reward_in_one_iteration():
    g = games.random_tabular_game(seed=3, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.0)
    sol = oracle.solve_superb_q(g)
    assert sol.iterations == 1
    assert np.array_equal(sol.q_star, g.R)


def test_constant_reward_value_is_geometric_series():
    gamma = 0.9
    g = games.random_tabular_game(seed=5, n_states=4, n=1, m=2, actions_per_agent=2, gamma=gamma)
    const = games.TabularGame(g.P, np.full_like(g.R, 0.3), g.pro_action_counts,
                              g.ant_action_counts, gamma)
    sol = oracle.solve_superb_q(const, tol=1e-10)
    assert np.allclose(sol.v_star, 0.3 / (1 - gamma), atol=1e-8)


@pytest.mark.parametrize("make", [games.random_deterministic_game, games.random_tabular_game])
def test_nan_reward_written_after_construction_never_converges(make):
    g = make(seed=4, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.7)
    g.R[0, 0, 0] = np.nan
    with pytest.raises(oracle.OracleConvergenceError):
        oracle.solve_superb_q(g)


def test_residuals_decrease_geometrically():
    g = games.random_tabular_game(seed=7, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.9)
    sol = oracle.solve_superb_q(g, tol=1e-10)
    res = np.array(sol.residual_history)
    assert np.all(np.diff(res) <= 1e-12)  # non-increasing
    # Banach bound: residual_k <= gamma^(k-1) * residual_1
    bound = res[0] * g.gamma ** np.arange(res.size)
    assert np.all(res <= bound + 1e-12)


def test_residual_bounded_by_distance_from_start():
    g = games.random_tabular_game(seed=9, n_states=3, n=1, m=1, actions_per_agent=3, gamma=0.8)
    sol = oracle.solve_superb_q(g, tol=1e-11)
    d0 = np.max(np.abs(sol.q_star))  # distance of Q = 0 from the fixed point
    for k, res in enumerate(sol.residual_history[:30], start=1):
        assert res <= 2.0 * d0 * g.gamma ** (k - 1) + 1e-12


def test_nonconvergence_error_reports_residual():
    g = games.random_tabular_game(seed=1, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.95)
    with pytest.raises(oracle.OracleConvergenceError) as err:
        oracle.solve_superb_q(g, tol=1e-12, max_iters=3)
    assert err.value.residual > 0


def test_best_response_to_fixed_column_enumerates_the_column():
    payoff = [[2.0, -1.0], [0.5, 3.0]]
    g = games.matrix_team_game(payoff, 1, 1)
    for col in (0, 1):
        br = oracle.best_response(g, np.array([col]), "pro")
        assert br.values[0] == pytest.approx(max(payoff[0][col], payoff[1][col]))
        assert br.policy[0] == int(np.argmax([payoff[0][col], payoff[1][col]]))


def test_best_response_gamma_zero_picks_best_immediate_row():
    g = games.random_tabular_game(seed=17, n_states=3, n=1, m=1, actions_per_agent=3, gamma=0.0)
    ant = np.array([0, 2, 1])
    br = oracle.best_response(g, ant, "pro")
    s_idx = np.arange(3)
    assert np.allclose(br.values, g.R[s_idx, :, ant].max(axis=1))


def test_best_response_against_oracle_minimax_recovers_the_value():
    g = games.random_saddle_game(seed=2, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    tol = 1e-10
    sol = oracle.solve_superb_q(g, tol=tol)
    assert sol.has_pure_saddle(1e-9)
    br = oracle.best_response(g, sol.ant_policy, "pro", tol)
    assert np.max(np.abs(br.values - sol.v_star)) <= 2 * tol * 10 / (1 - g.gamma)


def test_best_response_beats_any_fixed_policy_of_same_team():
    g = games.random_tabular_game(seed=31, n_states=3, n=1, m=1, actions_per_agent=3, gamma=0.7)
    rng = np.random.default_rng(0)
    ant = rng.integers(3, size=3)
    br = oracle.best_response(g, ant, "pro", tol=1e-10)
    for _ in range(5):
        pro = rng.integers(3, size=3)
        values = oracle.policy_value(g, pro, ant)
        assert np.all(br.values >= values - 1e-8)


def test_best_response_satisfies_bellman_optimality():
    g = games.random_tabular_game(seed=12, n_states=4, n=2, m=1, actions_per_agent=2, gamma=0.85)
    ant = np.zeros(4, dtype=np.int64)
    br = oracle.best_response(g, ant, "pro", tol=1e-10)
    s_idx = np.arange(4)
    q = g.R[s_idx, :, ant] + g.gamma * np.einsum(
        "sat,t->sa", g.P[s_idx, :, ant, :], br.values
    )
    assert np.max(np.abs(q.max(axis=1) - br.values)) <= 1e-8


def test_best_response_requires_total_policy():
    g = games.random_tabular_game(seed=12, n_states=4, n=2, m=1, actions_per_agent=2, gamma=0.85)
    with pytest.raises(ValueError, match="policy"):
        oracle.best_response(g, np.zeros(3, dtype=np.int64), "pro")
    with pytest.raises(ValueError, match="out-of-range"):
        oracle.best_response(g, np.full(4, 9), "pro")


def test_nashconv_zero_for_oracle_pair_on_saddle_game():
    g = games.random_saddle_game(seed=1, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    tol = 1e-9
    sol = oracle.solve_superb_q(g, tol=tol)
    assert sol.has_pure_saddle(1e-9)
    value = oracle.nashconv(g, sol.pro_policy, sol.ant_policy, tol)
    assert -4 * tol <= value <= 4 * tol * 10 / (1 - g.gamma)


def test_nashconv_detects_dominated_action():
    # Pro playing row 1 forgoes a uniform gap of 1.0
    g = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    value = oracle.nashconv(g, np.array([1]), np.array([1]))
    assert value >= 1.0 - 1e-12


def test_nashconv_constant_payoff_is_zero_for_any_policies():
    g = games.matrix_team_game(np.full((2, 2), 0.7), 1, 1)
    for a in (0, 1):
        for b in (0, 1):
            assert oracle.nashconv(g, np.array([a]), np.array([b])) == pytest.approx(0.0, abs=1e-12)


def test_nashconv_nonnegative_for_random_policies():
    g = games.random_tabular_game(seed=19, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        pro = rng.integers(g.pro_joint_count, size=4)
        ant = rng.integers(g.ant_joint_count, size=4)
        assert oracle.nashconv(g, pro, ant, tol=1e-9) >= -4e-9


def test_minmax_is_at_least_maxmin():
    for seed in range(6):
        g = games.random_tabular_game(seed=seed, n_states=3, n=2, m=2, actions_per_agent=2, gamma=0.6)
        sol = oracle.solve_superb_q(g, tol=1e-9)
        assert np.all(sol.saddle_gap >= -1e-12)


def test_default_max_iters_covers_the_contraction_budget():
    assert oracle.default_max_iters(0.0, 1e-8, 1.0) == 1
    iters = oracle.default_max_iters(0.9, 1e-8, 1.0)
    assert 0.9**(iters - 10) <= 1e-8 * (1 - 0.9)


def test_solver_refuses_non_tabular_games():
    g = games.GridKeepawayGame(games.GridConfig(side=3))
    with pytest.raises(ValueError, match="tabular"):
        oracle.solve_superb_q(g)


def test_oracle_policy_pair_round_trips_joint_encoding():
    g = games.random_tabular_game(seed=23, n_states=3, n=2, m=2, actions_per_agent=2, gamma=0.5)
    sol = oracle.solve_superb_q(g, tol=1e-9)
    pair = sol.policy_pair(g)
    pro, ant = oracle.joint_policies_from_pair(g, pair)
    assert np.array_equal(pro, sol.pro_policy)
    assert np.array_equal(ant, sol.ant_policy)
