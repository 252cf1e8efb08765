"""Tests for game construction, dynamics, and episode mechanics."""

import json

import numpy as np
import pytest

from fm3q import games
from fm3q.games import GridConfig, GridKeepawayGame, JointAction


def test_random_game_single_state_degenerates_to_matrix_game():
    g = games.random_tabular_game(seed=0, n_states=1, n=1, m=1, actions_per_agent=2, gamma=0.0)
    assert g.n_states == 1
    assert g.R.shape == (1, 2, 2)
    assert g.horizon == 1
    assert np.allclose(g.P.sum(axis=3), 1.0)


def test_random_game_transition_rows_sum_to_one():
    g = games.random_tabular_game(seed=7, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.9)
    sums = g.P.sum(axis=3)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9
    assert np.max(np.abs(g.R)) <= g.r_max


def test_random_game_identical_seeds_are_bitwise_identical():
    a = games.random_tabular_game(seed=13, n_states=3, n=1, m=2, actions_per_agent=3, gamma=0.5)
    b = games.random_tabular_game(seed=13, n_states=3, n=1, m=2, actions_per_agent=3, gamma=0.5)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.R, b.R)
    assert json.dumps(a.to_document()) == json.dumps(b.to_document())


def test_random_game_rejects_joint_action_blowup():
    with pytest.raises(ValueError, match="guard"):
        games.random_tabular_game(seed=0, n_states=1, n=4, m=4, actions_per_agent=10, gamma=0.5)


def test_random_games_property_sweep():
    for seed in range(10):
        g = games.random_tabular_game(seed=seed, n_states=3, n=2, m=1, actions_per_agent=2, gamma=0.7)
        assert np.max(np.abs(g.P.sum(axis=3) - 1.0)) <= 1e-9
        assert np.all(g.P >= 0.0)


def test_deterministic_game_rows_are_one_hot():
    g = games.random_deterministic_game(seed=3, n_states=5, n=1, m=1, actions_per_agent=2, gamma=0.6)
    flat = g.P.reshape(-1, g.n_states)
    assert np.all(flat.max(axis=1) == 1.0)
    assert np.all(flat.sum(axis=1) == 1.0)


@pytest.mark.parametrize("tensor", ["P", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_game_tensors_are_refused(tensor, bad):
    g = games.random_tabular_game(seed=2, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.5)
    P, R = g.P.copy(), g.R.copy()
    (P if tensor == "P" else R)[0, 0, 0, ...] = bad
    with pytest.raises(ValueError, match="finite"):
        games.TabularGame(P, R, g.pro_action_counts, g.ant_action_counts, g.gamma)


def test_matrix_game_minimax_values_no_saddle():
    g = games.matrix_team_game([[1.0, -1.0], [-1.0, 1.0]], 1, 1)
    m = g.R[0]
    assert float(m.max(axis=0).min()) == 1.0  # min over b of max over a
    assert float(m.min(axis=1).max()) == -1.0  # max over a of min over b


def test_matrix_game_pure_saddle():
    g = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    m = g.R[0]
    assert float(m.max(axis=0).min()) == 1.0
    assert float(m.min(axis=1).max()) == 1.0
    assert int(np.argmin(m.max(axis=0))) == 1  # b = 1
    assert int(np.argmax(m.min(axis=1))) == 0  # a = 0


def test_matrix_game_constant_tensor():
    g = games.matrix_team_game(np.full((2, 2, 2), 0.25), 2, 1)
    assert np.all(g.R == 0.25)
    assert g.gamma == 0.0 and g.horizon == 1


def test_matrix_game_dimension_mismatch():
    with pytest.raises(ValueError, match="axes"):
        games.matrix_team_game([[1.0, 2.0]], 2, 1)


def test_saddle_game_backs_out_a_pure_saddle_fixed_point():
    from fm3q import oracle

    g = games.random_saddle_game(seed=4, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    sol = oracle.solve_superb_q(g, tol=1e-10)
    assert sol.has_pure_saddle(1e-9)
    assert np.max(np.abs(g.R)) <= 1.0


def test_grid_reward_pro_on_target():
    g = GridKeepawayGame(GridConfig(side=3))
    # Pro agent 0 sits on the target and stays; everyone else stays put
    s = ((1, 1), (0, 2), (2, 0), (2, 2))
    assert g.reward(s, (0, 0), (0, 0)) == 1.0


def test_grid_reward_all_off_target():
    g = GridKeepawayGame(GridConfig(side=3))
    s = ((0, 0), (0, 2), (2, 0), (2, 2))
    assert g.reward(s, (0, 0), (0, 0)) == 0.0


def test_grid_reward_ant_on_target():
    g = GridKeepawayGame(GridConfig(side=3))
    s = ((0, 0), (0, 2), (1, 1), (2, 2))
    assert g.reward(s, (0, 0), (0, 0)) == -1.0


def test_grid_contested_cell_goes_to_lower_index():
    g = GridKeepawayGame(GridConfig(side=3))
    # Pro 0 at (0,0) moves right, Pro 1 at (0,2) moves left: both want (0,1)
    s = ((0, 0), (0, 2), (2, 0), (2, 2))
    (nxt,), _ = g.transition_dist(s, (4, 3), (0, 0))
    assert nxt[0] == (0, 1)  # lower index wins
    assert nxt[1] == (0, 2)  # loser stays


def test_grid_swap_through_is_forbidden():
    g = GridKeepawayGame(GridConfig(side=3))
    s = ((0, 0), (0, 1), (2, 0), (2, 2))
    (nxt,), _ = g.transition_dist(s, (4, 3), (0, 0))  # 0 moves right, 1 moves left
    assert nxt[0] == (0, 0) and nxt[1] == (0, 1)  # both bounce


def test_grid_sitter_keeps_cell_against_lower_index_mover():
    g = GridKeepawayGame(GridConfig(side=3))
    # Ant 0 (global index 2) stays at (1,1); Pro 0 tries to move into it
    s = ((1, 0), (0, 2), (1, 1), (2, 2))
    (nxt,), _ = g.transition_dist(s, (4, 0), (0, 0))
    assert nxt[0] == (1, 0)
    assert nxt[2] == (1, 1)


def test_grid_positions_stay_inside_and_unique():
    g = GridKeepawayGame(GridConfig(side=4, horizon=20))
    rng = np.random.default_rng(0)
    s = g.start_state()
    for _ in range(200):
        pro = tuple(rng.integers(5, size=2))
        ant = tuple(rng.integers(5, size=2))
        (s,), _ = g.transition_dist(s, pro, ant)
        for pos in s:
            assert 0 <= pos[0] < 4 and 0 <= pos[1] < 4
        assert len(set(s)) == 4


def test_grid_config_bounds():
    with pytest.raises(ValueError):
        GridKeepawayGame(GridConfig(side=8))
    with pytest.raises(ValueError):
        GridKeepawayGame(GridConfig(side=5, horizon=60))


def test_grid_observation_is_deterministic_and_masked():
    g = GridKeepawayGame(GridConfig(side=5, view_radius=1))
    s = g.start_state()
    obs1 = g.observe_pro(s, 0)
    obs2 = g.observe_pro(s, 0)
    assert obs1 == obs2
    # all other agents start far from (0, 0), so their slots are masked
    assert obs1[2] == -1.0 and obs1[4] == -1.0


def test_step_deterministic_game_lands_on_support_point():
    g = games.random_deterministic_game(seed=5, n_states=4, n=1, m=1, actions_per_agent=2, gamma=0.5)
    aug = games.initial_augmented(g, 2)
    out = games.step(g, aug, JointAction((1,), (0,)), rng=np.random.default_rng(0), t=0)
    expected = int(np.argmax(g.P[2, 1, 0]))
    assert out.next_state.state == expected


def test_step_matrix_game_done_after_one_step():
    g = games.matrix_team_game([[1.0, 0.0], [0.0, 1.0]], 1, 1)
    aug = games.initial_augmented(g, 0)
    out = games.step(g, aug, JointAction((0,), (1,)), rng=np.random.default_rng(1), t=0)
    assert out.done
    assert out.reward == 0.0


def test_step_fixed_seed_reproduces_episode_exactly():
    g = games.random_tabular_game(seed=2, n_states=5, n=1, m=1, actions_per_agent=2, gamma=0.9, horizon=6)

    def rollout():
        rng = np.random.default_rng(42)
        aug = games.initial_augmented(g, 0)
        trace = []
        for t in range(g.horizon):
            action = JointAction((int(rng.integers(2)),), (int(rng.integers(2)),))
            out = games.step(g, aug, action, rng=rng, t=t)
            trace.append((out.state.state, out.action, out.reward, out.next_state.state, out.done))
            aug = out.next_state
        return trace

    assert rollout() == rollout()


def test_step_rejects_invalid_action_index():
    g = games.random_tabular_game(seed=2, n_states=2, n=1, m=1, actions_per_agent=2, gamma=0.5)
    aug = games.initial_augmented(g, 0)
    with pytest.raises(ValueError):
        games.step(g, aug, JointAction((2,), (0,)), rng=np.random.default_rng(0), t=0)


def test_history_window_rolls_forward():
    g = games.random_deterministic_game(seed=1, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.5)
    aug = games.initial_augmented(g, 1, window=2)
    assert len(aug.pro_histories[0]) == 2
    assert aug.pro_histories[0][-1] == (1, -1)
    out = games.step(g, aug, JointAction((1,), (0,)), rng=np.random.default_rng(0), t=0)
    hist = out.next_state.pro_histories[0]
    assert len(hist) == 2
    assert hist[0] == (1, -1)  # oldest entry slides down
    assert hist[1][1] == 1  # newest entry carries the taken action


def test_tabular_game_document_round_trip():
    g = games.random_tabular_game(seed=21, n_states=3, n=2, m=1, actions_per_agent=2, gamma=0.85)
    doc = json.loads(json.dumps(g.to_document()))
    g2 = games.TabularGame.from_document(doc)
    assert np.array_equal(g.P, g2.P)
    assert np.array_equal(g.R, g2.R)
    assert g2.gamma == g.gamma and g2.horizon == g.horizon


def test_joint_action_encoding_round_trip():
    counts = (2, 3, 2)
    for idx in range(12):
        assert games.encode_joint(games.decode_joint(idx, counts), counts) == idx


def test_grid_bot_prefers_larger_gap_axis_and_horizontal_ties():
    g = GridKeepawayGame(GridConfig(side=5))  # target (2, 2)
    bot = games.GridBotPair(g)
    assert bot._move_toward((2, 0)) == 4  # pure horizontal gap: move right
    assert bot._move_toward((0, 2)) == 2  # pure vertical gap: move down
    assert bot._move_toward((0, 0)) == 4  # tie: horizontal first
    assert bot._move_toward((2, 2)) == 0  # on target: stay


def test_myopic_bot_picks_best_mean_immediate_reward():
    g = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    bot = games.myopic_bot_pair(g)
    aug = games.initial_augmented(g, 0)
    assert bot.pro_actions(aug) == (0,)  # row 0 mean 1.5 beats row 1 mean 0.5
    assert bot.ant_actions(aug) == (1,)  # col 1 mean 0.5 beats col 0 mean 1.5
