"""Tests for the comparison learners."""

import hashlib

import numpy as np
import pytest

from fm3q import baselines, games, oracle
from fm3q.games import JointAction
from fm3q.learner import ReplayBuffer, TabularDataset


def test_independent_zero_episodes_returns_initial_policies():
    g = games.random_tabular_game(seed=1, n_states=3, n=1, m=1, actions_per_agent=2, gamma=0.5)
    cfg = baselines.IndependentQConfig(episodes=0, backend="tabular")
    result = baselines.selfplay_independent_train(g, cfg)
    assert result.metrics == []
    pro, ant = result.policies.state_tables(g)
    assert np.all(pro == 0) and np.all(ant == 0)  # zero tables tie-break to action 0


def test_independent_learners_find_dominant_actions():
    # row 0 dominates for Pro; column 1 dominates for Ant (it minimizes)
    g = games.matrix_team_game([[3.0, 2.0], [1.0, 0.0]], 1, 1)
    cfg = baselines.IndependentQConfig(
        episodes=200, backend="tabular", alpha=0.2, buffer_capacity=500, seed=3
    )
    result = baselines.selfplay_independent_train(g, cfg)
    pro, ant = result.policies.state_tables(g)
    assert pro[0, 0] == 0
    assert ant[0, 0] == 1


def test_independent_neural_backend_runs_and_is_deterministic():
    g = games.random_tabular_game(seed=5, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.6, horizon=5)
    cfg = baselines.IndependentQConfig(
        episodes=3, backend="neural", hidden_layers=(8,), buffer_capacity=100, seed=2
    )
    a = baselines.selfplay_independent_train(g, cfg)
    b = baselines.selfplay_independent_train(g, cfg)
    assert a.metrics == b.metrics


#: sha256 of a neural IQL agent's params + loss after one update_batch;
#: recorded with the general autodiff tape the reverse pass replaced.
IQL_UPDATE_GOLDEN = "5c95e9f84e15ca291ce269e7cddb0417ea167e24f308ca8420ba05b2b434a212"


def test_neural_iql_update_matches_its_golden_hash():
    g = games.random_tabular_game(seed=5, n_states=3, n=1, m=2, actions_per_agent=3, gamma=0.7, horizon=8)
    agent = baselines._NeuralAgent(g, "ant", 1, (16, 8), "elu", 4)
    agent.target_params = agent.params + 0.1
    rng = np.random.default_rng(1)

    def act(aug):
        return JointAction(tuple(int(a) for a in rng.integers(3, size=g.n)),
                           tuple(int(a) for a in rng.integers(3, size=g.m)))

    buffer = ReplayBuffer()
    while len(buffer) < 60:
        for ep in games.rollout(g, act, rng):
            buffer.add(baselines._agent_record(g, ep, "ant", 1, False))
    value = agent.update_batch(buffer.take(np.arange(len(buffer))), g.gamma, 1e-2)
    digest = hashlib.sha256(agent.params.tobytes() + np.float64(value).tobytes()).hexdigest()
    assert digest == IQL_UPDATE_GOLDEN


def test_independent_round_accounting_mirrors_the_rule():
    g = games.random_tabular_game(seed=5, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.5, horizon=10)
    cfg = baselines.IndependentQConfig(episodes=5, updates_per_round=10,
                                       backend="tabular", buffer_capacity=1000)
    result = baselines.selfplay_independent_train(g, cfg)
    for record in result.rounds:
        assert record.update_steps == 10
        assert record.batch_size == max(1, record.buffer_size // 10)


def test_joint_minimax_update_alpha_one_gamma_zero_writes_the_reward():
    g = games.matrix_team_game([[0.5, -0.5], [0.25, 0.0]], 1, 1)
    lrn = baselines.JointMinimaxQLearner(g)
    aug = games.initial_augmented(g, 0)
    ep = games.step(g, aug, JointAction((0,), (1,)), rng=np.random.default_rng(0), t=0)
    baselines.joint_minimaxq_update(lrn, ep, alpha=1.0, gamma=0.0)
    assert lrn.q[0, 0, 1] == pytest.approx(-0.5)


def test_joint_minimax_update_alpha_zero_is_a_noop():
    g = games.matrix_team_game([[0.5, -0.5], [0.25, 0.0]], 1, 1)
    lrn = baselines.JointMinimaxQLearner(g)
    before = lrn.q.copy()
    aug = games.initial_augmented(g, 0)
    ep = games.step(g, aug, JointAction((0,), (1,)), rng=np.random.default_rng(0), t=0)
    baselines.joint_minimaxq_update(lrn, ep, alpha=0.0, gamma=0.0)
    assert np.array_equal(lrn.q, before)


def test_joint_minimax_sweeps_converge_to_the_oracle():
    g = games.random_deterministic_game(seed=8, n_states=4, n=1, m=1,
                                        actions_per_agent=3, gamma=0.8)
    sol = oracle.solve_superb_q(g, tol=1e-10)
    lrn = baselines.JointMinimaxQLearner(g)
    dataset = TabularDataset.full_coverage(g)
    baselines.joint_minimax_sweeps(lrn, dataset, passes=150, alpha=1.0)
    assert np.max(np.abs(lrn.q - sol.q_star)) <= 1e-4


def test_joint_minimax_shares_the_factorized_fixed_point():
    # same target as the exact factorized operator: the joint table must match
    from fm3q.learner import TabularFactorizedQ, exact_operator_apply

    g = games.random_deterministic_game(seed=12, n_states=3, n=2, m=1,
                                        actions_per_agent=2, gamma=0.7)
    dataset = TabularDataset.full_coverage(g)
    lrn = baselines.JointMinimaxQLearner(g)
    baselines.joint_minimax_sweeps(lrn, dataset, passes=120, alpha=1.0)
    fq = TabularFactorizedQ.zeros(g)
    for _ in range(120):
        fq = exact_operator_apply(fq, dataset)
    assert np.max(np.abs(lrn.q - fq.q_tot)) <= 1e-6


def test_joint_minimax_rejects_bad_alpha():
    g = games.matrix_team_game([[0.0]], 1, 1)
    lrn = baselines.JointMinimaxQLearner(g)
    aug = games.initial_augmented(g, 0)
    ep = games.step(g, aug, JointAction((0,), (0,)), rng=np.random.default_rng(0), t=0)
    with pytest.raises(ValueError):
        baselines.joint_minimaxq_update(lrn, ep, alpha=1.5, gamma=0.5)
