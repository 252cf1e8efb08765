"""Tests for matches, tournaments, NashConv curves, and the ablation."""

import numpy as np
import pytest

from fm3q import evaluation, games, numerics as nm, oracle
from fm3q.evaluation import Checkpoint, ablate_buffer, optimization_trend, play_match, round_robin
from fm3q.games import TablePolicyPair
from fm3q.learner import GreedyPolicyPair, TrainConfig, build_neural_fq, train


def const_pair(pro_actions, ant_actions, n_states=1):
    pro = np.tile(np.array(pro_actions)[:, None], (1, n_states))
    ant = np.tile(np.array(ant_actions)[:, None], (1, n_states))
    return TablePolicyPair(pro, ant)


def test_match_policy_against_itself_on_antisymmetric_game_is_zero():
    g = games.matrix_team_game([[0.0, -1.0], [1.0, 0.0]], 1, 1)
    pair = const_pair([0], [0])
    result = play_match(g, pair, pair, episodes=3, rng=np.random.default_rng(0))
    assert result.mean_return == 0.0
    assert np.array_equal(result.pro_returns + result.ant_returns, np.zeros(3))


def test_match_oracle_pair_recovers_the_exact_value():
    # gamma and horizon chosen so the rollout tail is below 1e-9
    g = games.random_saddle_game(seed=2, n_states=4, n=2, m=2, actions_per_agent=2,
                                 gamma=0.5, horizon=40, initial_state=1)
    sol = oracle.solve_superb_q(g, tol=1e-12)
    assert sol.has_pure_saddle(1e-10)
    pair = sol.policy_pair(g)
    result = play_match(g, pair, pair, episodes=1, rng=np.random.default_rng(0))
    assert result.mean_return == pytest.approx(float(sol.v_star[1]), abs=1e-9)


def test_match_is_deterministic_given_seed():
    g = games.random_tabular_game(seed=4, n_states=3, n=1, m=1, actions_per_agent=2,
                                  gamma=0.9, horizon=10)
    pair = const_pair([0], [1], n_states=3)
    a = play_match(g, pair, pair, episodes=5, rng=np.random.default_rng(7))
    b = play_match(g, pair, pair, episodes=5, rng=np.random.default_rng(7))
    assert np.array_equal(a.pro_returns, b.pro_returns)


def count_forwards(monkeypatch):
    calls = []
    forward = nm.DenseNet.forward

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(nm.DenseNet, "forward", counted)
    return calls


def test_grid_match_runs_only_each_sides_own_nets(monkeypatch):
    g = games.grid_keepaway_game(games.GridConfig(horizon=6))
    pro_side = GreedyPolicyPair(build_neural_fq(g, hidden_layers=(8,), mix_hidden_dim=4, seed=1))
    ant_side = GreedyPolicyPair(build_neural_fq(g, hidden_layers=(8,), mix_hidden_dim=4, seed=2))
    calls = count_forwards(monkeypatch)
    play_match(g, pro_side, ant_side, episodes=1, rng=np.random.default_rng(0))
    assert len(calls) == g.horizon * (g.n + g.m)
    assert sorted(set(calls)) == ["ant0", "ant1", "pro0", "pro1"]


def test_grid_match_against_the_bot_runs_only_the_model_side(monkeypatch):
    g = games.grid_keepaway_game(games.GridConfig(horizon=6))
    model = GreedyPolicyPair(build_neural_fq(g, hidden_layers=(8,), mix_hidden_dim=4, seed=1))
    calls = count_forwards(monkeypatch)
    play_match(g, model, games.GridBotPair(g), episodes=1, rng=np.random.default_rng(0))
    assert len(calls) == g.horizon * g.n
    assert set(calls) == {"pro0", "pro1"}


def rps_game():
    # rock-paper-scissors payoffs: cyclic wins of equal magnitude
    return games.matrix_team_game(
        [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]], 1, 1
    )


def test_round_robin_dominant_checkpoint_normalizes_to_one_and_zero():
    g = games.matrix_team_game([[1.0, 1.0], [-1.0, -1.0]], 1, 1)
    strong = Checkpoint("a", 2, 0, const_pair([0], [0]))
    weak = Checkpoint("b", 1, 0, const_pair([1], [1]))
    table, raw, norm = round_robin([strong, weak], g, episodes_per_pair=2)
    assert norm[0] == 1.0 and norm[1] == 0.0
    assert table.mean_return[0, 1] > 0


def test_round_robin_cyclic_cohort_has_equal_returns():
    g = rps_game()
    ckpts = [Checkpoint(f"c{k}", k, 0, const_pair([k], [k])) for k in range(3)]
    table, raw, norm = round_robin(ckpts, g, episodes_per_pair=1)
    assert np.allclose(raw, raw[0])
    assert np.allclose(norm, 0.5)  # degenerate cohort maps to the midpoint


def test_round_robin_payoff_antisymmetry():
    g = games.random_tabular_game(seed=9, n_states=3, n=1, m=1, actions_per_agent=2,
                                  gamma=0.8, horizon=8)
    rng = np.random.default_rng(0)
    ckpts = [
        Checkpoint(f"c{k}", k, 0,
                   TablePolicyPair(rng.integers(2, size=(1, 3)), rng.integers(2, size=(1, 3))))
        for k in range(3)
    ]
    table, _, _ = round_robin(ckpts, g, episodes_per_pair=3)
    assert np.allclose(table.mean_return + table.mean_return.T, 0.0, atol=1e-12)


def test_round_robin_needs_two_checkpoints():
    g = rps_game()
    with pytest.raises(ValueError, match="at least 2"):
        round_robin([Checkpoint("only", 0, 0, const_pair([0], [0]))], g)


def test_optimization_trend_monotone_and_cyclic():
    monotone = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert optimization_trend(monotone) == 1.0
    cyclic = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    assert optimization_trend(cyclic) == pytest.approx(2 / 3)
    assert optimization_trend(-cyclic) == pytest.approx(1 / 3)


def test_nashconv_curve_oracle_checkpoint_sits_at_zero():
    g = games.random_saddle_game(seed=1, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    tol = 1e-9
    sol = oracle.solve_superb_q(g, tol=tol)
    ckpt = Checkpoint("oracle", 0, 0, sol.policy_pair(g))
    points = evaluation.nashconv_curve([ckpt], g, tol)
    assert abs(points[0]["value"]) <= 4 * tol * 10 / (1 - g.gamma)


def test_nashconv_curve_random_checkpoint_is_positive():
    g = games.random_saddle_game(seed=1, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    sol = oracle.solve_superb_q(g, tol=1e-10)
    pro = sol.policy_pair(g).pro.copy()
    pro[0, :] = 1 - pro[0, :]  # flip one agent everywhere
    bad = Checkpoint("bad", 0, 0, TablePolicyPair(pro, sol.policy_pair(g).ant))
    points = evaluation.nashconv_curve([bad], g)
    assert points[0]["value"] > 1e-4


def test_vs_bot_curve_reports_both_roles():
    g = games.random_tabular_game(seed=3, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.5, horizon=4)
    bot = games.scripted_bot_pair(g)
    ckpt = Checkpoint("c", 1, 0, const_pair([0], [0], n_states=2))
    points = evaluation.vs_bot_curve([ckpt], g, bot, episodes_per_side=2)
    assert points[0]["matches"] == 4


def test_report_round_trip(tmp_path):
    report = evaluation.EvalReport(
        curves={"nashconv": [{"episode": 1, "value": 0.5, "matches": 0}]},
        extras={"note": 1},
    )
    report.write(tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "curve_nashconv.csv").read_text().splitlines()[0] == "episode,value,matches"


def ablation_config(episodes=6, cadence=2):
    return TrainConfig(
        episodes=episodes,
        hidden_layers=(8,),
        mix_hidden_dim=4,
        checkpoint_every=cadence,
        seed=0,
    )


def test_ablation_requires_increasing_sizes():
    g = games.random_tabular_game(seed=2, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.5, horizon=5)
    with pytest.raises(ValueError, match="increasing"):
        ablate_buffer(g, {"small": 10, "large": 10, "full": None}, ablation_config())


def test_ablation_equal_sizes_give_identical_cohorts():
    g = games.random_deterministic_game(seed=2, n_states=2, n=1, m=1, actions_per_agent=2,
                                        gamma=0.5, horizon=5, initial_state=0)
    sizes = {"small": 10_000, "large": 10_000, "full": 10_000}
    report = ablate_buffer(g, sizes, ablation_config(), require_increasing=False)
    # capacities above the total step count never evict, so all three runs
    # are one and the same run; per-phase cross-play between labels is a tie
    assert np.array_equal(report.tables["small"].mean_return, report.tables["full"].mean_return)
    assert np.array_equal(report.tables["large"].mean_return, report.tables["full"].mean_return)
    final = report.extras["final_rr_norm"]
    assert final["small"] == final["large"] == final["full"] == 0.5


def test_ablation_produces_curves_tables_and_ordering_flag():
    g = games.random_tabular_game(seed=5, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.6, horizon=5)
    report = ablate_buffer(
        g, {"small": 5, "large": 15, "full": None}, ablation_config(episodes=6, cadence=3)
    )
    assert set(report.curves) == {"rr_small", "rr_large", "rr_full"}
    for label in ("small", "large", "full"):
        assert label in report.tables
        assert report.extras["trend_fraction"][label] >= 0.0
    assert isinstance(report.extras["ordering_holds"], bool)
    for points in report.curves.values():
        for p in points:
            assert 0.0 <= p["value"] <= 1.0


def test_window_two_checkpoints_play_matches_and_round_robins():
    g = games.random_tabular_game(seed=4, n_states=3, n=1, m=1, actions_per_agent=2,
                                  gamma=0.9, horizon=6)
    result = train(g, TrainConfig(episodes=3, hidden_layers=(8,), mix_hidden_dim=4,
                                  history_window=2, checkpoint_every=1, seed=2))
    pairs = [GreedyPolicyPair(result.fq.with_params(p)) for _, p in result.snapshots]
    assert pairs[0].window == 2
    match = play_match(g, pairs[0], pairs[-1], episodes=2, rng=np.random.default_rng(0))
    assert match.pro_returns.shape == (2,)
    # a window-free scripted bot plays at the model's window
    play_match(g, pairs[0], games.myopic_bot_pair(g), episodes=1, rng=np.random.default_rng(0))
    ckpts = [Checkpoint("fm3q", ep, 2, pair) for (ep, _), pair in zip(result.snapshots, pairs)]
    # history policies have no per-state table, so the tournament samples
    table, _, _ = round_robin(ckpts, g, episodes_per_pair=2)
    assert table.matches[0, 1] == 4
    with pytest.raises(ValueError, match="window-2"):
        pairs[0].state_tables(g)


def test_match_refuses_policies_with_different_windows():
    g = games.random_tabular_game(seed=4, n_states=3, n=1, m=1, actions_per_agent=2,
                                  gamma=0.9, horizon=6)
    wide = GreedyPolicyPair(build_neural_fq(g, hidden_layers=(4,), mix_hidden_dim=2, window=2))
    narrow = GreedyPolicyPair(build_neural_fq(g, hidden_layers=(4,), mix_hidden_dim=2, window=1))
    with pytest.raises(ValueError, match="window-2.*window-1"):
        play_match(g, wide, narrow, episodes=1, rng=np.random.default_rng(0))
