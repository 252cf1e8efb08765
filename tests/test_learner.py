"""Tests for the factorized model: mixing, coherence, targets, training."""

import dataclasses
import hashlib

import numpy as np
import pytest

from fm3q import games, numerics as nm, oracle
from fm3q import learner
from fm3q.games import JointAction
from fm3q.learner import (
    Coordinator,
    ReplayBuffer,
    TabularDataset,
    TabularFactorizedQ,
    TrainConfig,
    build_neural_fq,
    exact_operator_apply,
    extract_policies,
    igmm_check,
    mix_forward,
    select_actions,
    td_target,
    train,
)


@pytest.fixture
def small_game():
    return games.random_tabular_game(seed=7, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.9)


@pytest.fixture
def det_game():
    return games.random_deterministic_game(seed=11, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.9)


def small_fq(game, seed=0, hidden=(8,), mix=4):
    return build_neural_fq(game, hidden_layers=hidden, mix_hidden_dim=mix, seed=seed)


# ---------------------------------------------------------------------------
# mixing


def test_identity_mixer_sums_pro_and_negated_ant():
    g = games.matrix_team_game([[0.0, 0.0], [0.0, 0.0]], 1, 1)
    fq = build_neural_fq(g, hidden_layers=(4,), mix_hidden_dim=1,
                         mixer_hidden_activation="identity")
    # zero the hypernets, then set constant weight 1 per mixing layer
    fq.params = fq.layout.zeros()
    fq.layout.view(fq.params, "hyper_w1.b0")[:] = 1.0
    fq.layout.view(fq.params, "hyper_w2.b0")[:] = 1.0
    q_in = np.array([[2.0, -3.0]])  # Q+ = 2 and Q- = 3 after negation
    state = g.state_vector(0)[None, :]
    assert fq.mix_values(state, q_in)[0] == pytest.approx(-1.0)


def test_mixer_monotone_in_pro_inputs_and_antitone_in_ant_inputs(small_game):
    rng = np.random.default_rng(0)
    for trial in range(30):
        fq = small_fq(small_game, seed=trial)
        state = small_game.state_vector(int(rng.integers(4)))[None, :]
        base_pro = rng.normal(size=(1, 2))
        base_ant = rng.normal(size=(1, 2))
        q0 = fq.q_tot_values(state, base_pro, base_ant)[0]
        delta = float(rng.uniform(1e-3, 1.0))
        for i in range(2):
            bumped = base_pro.copy()
            bumped[0, i] += delta
            assert fq.q_tot_values(state, bumped, base_ant)[0] >= q0 - 1e-12
        for j in range(2):
            bumped = base_ant.copy()
            bumped[0, j] += delta
            assert fq.q_tot_values(state, base_pro, bumped)[0] <= q0 + 1e-12


def test_mix_forward_gradients_match_finite_differences(small_game):
    fq = small_fq(small_game, seed=3)
    aug = games.initial_augmented(small_game, 2)
    action = JointAction((1, 0), (0, 1))
    result = mix_forward(fq, aug, action)
    analytic = result.gradients()

    def f(p):
        return mix_forward(fq.with_params(p), aug, action).value

    assert nm.central_difference_error(f, fq.params, analytic, eps=1e-5) <= 1e-4


def test_mix_forward_tabular_reads_the_joint_table(det_game):
    fq = TabularFactorizedQ.zeros(det_game)
    fq.q_tot = np.arange(float(np.prod(det_game.R.shape))).reshape(det_game.R.shape)
    aug = games.initial_augmented(det_game, 1)
    out = mix_forward(fq, aug, JointAction((0, 1), (1, 0)))
    ja = det_game.encode_pro((0, 1))
    jb = det_game.encode_ant((1, 0))
    assert out.value == fq.q_tot[1, ja, jb]
    with pytest.raises(TypeError):
        out.gradients()


# ---------------------------------------------------------------------------
# coherence


def test_igmm_holds_for_random_monotone_mixers(small_game):
    rng = np.random.default_rng(5)
    for trial in range(25):
        fq = small_fq(small_game, seed=100 + trial)
        s = int(rng.integers(small_game.n_states))
        verdict = igmm_check(fq, games.initial_augmented(small_game, s))
        assert verdict.consistent, verdict


def test_igmm_fails_with_a_negated_mixing_weight():
    g = games.matrix_team_game([[0.0, 0.0], [0.0, 0.0]], 1, 1)
    fq = build_neural_fq(g, hidden_layers=(4,), mix_hidden_dim=1,
                         mixer_hidden_activation="identity", weight_transform="identity")
    fq.params = fq.layout.zeros()
    fq.layout.view(fq.params, "hyper_w1.b0")[:] = np.array([1.0])
    fq.layout.view(fq.params, "hyper_w2.b0")[:] = -1.0  # validity check disabled
    # give the Pro agent distinct action values so the argmax is meaningful
    fq.layout.view(fq.params, "pro0.b1")[:] = np.array([0.0, 1.0])
    fq.layout.view(fq.params, "ant0.b1")[:] = np.array([0.2, 0.9])
    verdict = igmm_check(fq, games.initial_augmented(g, 0))
    assert not verdict.consistent


def test_igmm_consistent_for_indicator_solution_on_saddle_stage_game():
    # gamma = 0 one-shot game with a pure saddle: the operator's closed-form
    # output must pass the full three-way coherence check
    g = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    dataset = TabularDataset.full_coverage(g)
    out = exact_operator_apply(TabularFactorizedQ.zeros(g), dataset)
    verdict = igmm_check(out, games.initial_augmented(g, 0))
    assert verdict.consistent
    assert verdict.individual_profile == ((0,), (1,))


def test_igmm_guard_rejects_huge_joint_spaces():
    ja = jb = 121  # two agents with 11 actions each per team: 14641 joint pairs
    g = games.TabularGame(
        np.ones((1, ja, jb, 1)), np.zeros((1, ja, jb)), (11, 11), (11, 11), gamma=0.0
    )
    fq = TabularFactorizedQ.zeros(g)
    with pytest.raises(ValueError, match="guard"):
        igmm_check(fq, games.initial_augmented(g, 0))


# ---------------------------------------------------------------------------
# TD targets


def test_td_target_done_step_is_the_reward(small_game):
    fq = small_fq(small_game)
    aug = games.initial_augmented(small_game, 0)
    ep = games.step(small_game, aug, JointAction((0, 0), (0, 0)),
                    rng=np.random.default_rng(0), t=small_game.horizon - 1)
    assert ep.done
    assert td_target(fq, ep) == pytest.approx(ep.reward)


def test_td_target_gamma_zero_is_the_reward():
    g = games.matrix_team_game([[0.3, -0.2], [0.1, 0.5]], 1, 1)
    fq = small_fq(g)
    aug = games.initial_augmented(g, 0)
    ep = games.step(g, aug, JointAction((1,), (0,)), rng=np.random.default_rng(0), t=0)
    assert td_target(fq, ep) == pytest.approx(0.1)


def test_td_target_shortcut_matches_exhaustive_enumeration(small_game):
    rng = np.random.default_rng(9)
    fq = small_fq(small_game, seed=8)
    aug = games.initial_augmented(small_game, 0)
    for t in range(6):
        action = select_actions(fq, aug, 1.0, rng)
        ep = games.step(small_game, aug, action, rng=rng, t=t)
        plain = td_target(fq, ep)
        checked = td_target(fq, ep, exhaustive_check=True)
        assert plain == pytest.approx(checked, abs=1e-9)
        aug = ep.next_state


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_when_predictions_equal_targets(small_game):
    fq = small_fq(small_game, seed=2)
    rng = np.random.default_rng(1)
    aug = games.initial_augmented(small_game, 0)
    records = []
    for t in range(5):
        action = select_actions(fq, aug, 1.0, rng)
        ep = games.step(small_game, aug, action, rng=rng, t=t)
        records.append(learner.encode_step(small_game, ep))
        aug = ep.next_state
    # rebuild records as done steps whose reward equals the current Q_tot,
    # which forces e == Q_tot on every element of the batch
    fitted = []
    for rec in records:
        state_mat = rec.state_vec[None, :]
        q = fq.q_tot_values(
            state_mat,
            np.array([[fq.pro_values(i, rec.pro_obs[i])[rec.pro_actions[i]] for i in range(2)]]),
            np.array([[fq.ant_values(j, rec.ant_obs[j])[rec.ant_actions[j]] for j in range(2)]]),
        )[0]
        fitted.append(
            learner.StepRecord(
                rec.pro_obs, rec.ant_obs, rec.state_vec, rec.pro_actions, rec.ant_actions,
                float(q), rec.next_pro_obs, rec.next_ant_obs, rec.next_state_vec,
                True, rec.state_index, rec.next_state_index,
            )
        )
    result = learner.loss(fq, fq, fitted)
    assert result.value == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(result.grads, 0.0)


def test_loss_single_step_squared_error():
    g = games.matrix_team_game([[0.0, 0.0], [0.0, 0.0]], 1, 1)
    fq = small_fq(g)
    fq.params = fq.layout.zeros()  # all-zero params make Q_tot identically 0
    aug = games.initial_augmented(g, 0)
    ep = games.EpisodeStep(aug, JointAction((0,), (0,)), 2.0, aug, True)
    record = learner.encode_step(g, ep)
    result = learner.loss(fq, fq, [record])
    assert result.value == pytest.approx(4.0)


def test_loss_gradients_match_finite_differences(small_game):
    # a whole batch (B = 6) against a distinct target net, at a point where
    # no relu or abs unit sits near its kink, with two hidden utility layers
    rng = np.random.default_rng(2)
    for seed in range(4, 40):
        fq = small_fq(small_game, seed=seed, hidden=(6, 5))
        target = fq.with_params(fq.params + rng.normal(scale=0.1, size=fq.params.size))
        aug = games.initial_augmented(small_game, 1)
        records = []
        for t in range(6):
            action = select_actions(fq, aug, 1.0, rng)
            ep = games.step(small_game, aug, action, rng=rng, t=t)
            records.append(learner.encode_step(small_game, ep))
            aug = ep.next_state
        batch = learner.as_batch(records)
        if fq.preactivation_margin(batch.state_vec, batch.pro_obs, batch.ant_obs) > 1e-4:
            break
    else:
        pytest.fail("no smooth configuration found")
    result = learner.loss(fq, target, batch)

    def f(p):
        return learner.loss(fq.with_params(p), target, batch).value

    assert nm.central_difference_error(f, fq.params, result.grads, eps=1e-5) <= 1e-5


#: sha256 of loss(...).grads.tobytes() + value.tobytes() on a B = 64 batch;
#: recorded with the general autodiff tape the reverse pass replaced, whose
#: gradients it must reproduce bit for bit.
LOSS_GOLDEN = "c4142ec4d51d1408f0049e646ef3334fac2ba8e5a5f84845ecff57a04e569ac8"


def test_loss_matches_its_golden_hash():
    from conftest import acceptance_game

    game = acceptance_game()
    config = TrainConfig(episodes=10, learning_rate=2e-3, hidden_layers=(64,), mix_hidden_dim=32,
                         checkpoint_every=5, seed=1)
    result = train(game, config)
    fq = result.fq
    fq_target = fq.with_params(result.snapshots[0][1])
    rng = np.random.default_rng(0)
    buffer = ReplayBuffer()
    while len(buffer) < 100:
        for ep in games.rollout(game, lambda aug: select_actions(fq, aug, 0.5, rng), rng):
            buffer.add(learner.encode_step(game, ep))
    out = learner.loss(fq, fq_target, buffer.take(rng.choice(len(buffer), 64, replace=False)))
    digest = hashlib.sha256(out.grads.tobytes() + np.float64(out.value).tobytes()).hexdigest()
    assert digest == LOSS_GOLDEN


def test_loss_rejects_empty_batch(small_game):
    fq = small_fq(small_game)
    with pytest.raises(ValueError, match="nonempty"):
        learner.loss(fq, fq, [])


def test_loss_aborts_on_nonfinite_values(small_game):
    fq = small_fq(small_game)
    fq.params = np.full_like(fq.params, 1e200)  # overflow the forward pass
    aug = games.initial_augmented(small_game, 0)
    ep = games.EpisodeStep(aug, JointAction((0, 0), (0, 0)), 0.0, aug, True)
    with np.errstate(all="ignore"), pytest.raises(nm.GradientError, match="non-finite"):
        learner.loss(fq, fq, [learner.encode_step(small_game, ep)])


def test_heterogeneous_action_counts_flow_through_the_stack():
    # two Pro agents with 2 and 3 actions against one Ant agent with 2
    rng = np.random.default_rng(0)
    payoff = rng.uniform(-1, 1, size=(2, 3, 2))
    g = games.matrix_team_game(payoff, 2, 1)
    assert g.pro_action_counts == (2, 3) and g.ant_action_counts == (2,)
    sol = oracle.solve_superb_q(g)
    assert sol.q_star.shape == (1, 6, 2)
    fq = small_fq(g, seed=4)
    aug = games.initial_augmented(g, 0)
    verdict = igmm_check(fq, aug)
    assert verdict.consistent
    dataset = TabularDataset.full_coverage(g)
    out = exact_operator_apply(TabularFactorizedQ.zeros(g), dataset)
    assert out.pro_tables[0].shape == (1, 2) and out.pro_tables[1].shape == (1, 3)
    record = learner.encode_step(
        g, games.step(g, aug, JointAction((1, 2), (0,)), rng=np.random.default_rng(1), t=0)
    )
    result = learner.loss(fq, fq, [record])
    assert np.isfinite(result.value)


def test_history_window_two_trains_and_acts():
    g = games.random_deterministic_game(seed=9, n_states=3, n=1, m=1,
                                        actions_per_agent=2, gamma=0.6, horizon=6)
    cfg = TrainConfig(episodes=2, hidden_layers=(8,), mix_hidden_dim=4,
                      history_window=2, seed=1)
    result = train(g, cfg)
    assert result.fq.window == 2
    aug = games.initial_augmented(g, 0, window=2)
    action = learner.select_actions(result.fq, aug, 0.0, np.random.default_rng(0))
    assert 0 <= action.pro[0] < 2
    # window-2 features carry two observations plus two action one-hots
    feat = learner.encode_history(g, "pro", 0, aug.pro_histories[0])
    assert feat.size == 2 * (g.n_states + 3)


# ---------------------------------------------------------------------------
# action selection


def test_select_actions_greedy_at_zero_epsilon(small_game):
    fq = small_fq(small_game, seed=6)
    aug = games.initial_augmented(small_game, 2)
    expected = learner.greedy_individual(fq, aug)
    action = select_actions(fq, aug, 0.0, np.random.default_rng(0))
    assert (action.pro, action.ant) == expected


def test_select_actions_uniform_at_epsilon_one():
    g = games.random_tabular_game(seed=1, n_states=1, n=1, m=1, actions_per_agent=3, gamma=0.0)
    fq = small_fq(g)
    rng = np.random.default_rng(3)
    aug = games.initial_augmented(g, 0)
    counts = np.zeros(3)
    draws = 30_000
    for _ in range(draws):
        counts[select_actions(fq, aug, 1.0, rng).pro[0]] += 1
    assert np.all(np.abs(counts / draws - 1 / 3) < 0.01)


def test_select_actions_frequency_matches_the_stated_distribution():
    # eps = 0.1, |A| = 3: P(argmax) = eps/|A| + 1 - eps = 0.93333...
    g = games.random_tabular_game(seed=2, n_states=1, n=1, m=1, actions_per_agent=3, gamma=0.0)
    fq = small_fq(g, seed=1)
    aug = games.initial_augmented(g, 0)
    greedy = learner.greedy_individual(fq, aug)[0][0]
    rng = np.random.default_rng(11)
    draws = 100_000
    hits = sum(select_actions(fq, aug, 0.1, rng).pro[0] == greedy for _ in range(draws))
    assert hits / draws == pytest.approx(0.1 / 3 + 0.9, abs=0.005)


# ---------------------------------------------------------------------------
# exact operator


def test_operator_gamma_zero_returns_mean_rewards():
    g = games.matrix_team_game([[1.0, -1.0], [0.5, 0.0]], 1, 1)
    dataset = TabularDataset.full_coverage(g, repeats=3)
    out = exact_operator_apply(TabularFactorizedQ.zeros(g), dataset)
    assert np.allclose(out.q_tot[0], g.R[0])


def test_operator_reports_missing_coverage(det_game):
    dataset = TabularDataset.full_coverage(det_game)
    clipped = TabularDataset(
        dataset.s[:-3], dataset.ja[:-3], dataset.jb[:-3],
        dataset.r[:-3], dataset.s_next[:-3], dataset.done[:-3],
    )
    with pytest.raises(learner.CoverageError) as err:
        exact_operator_apply(TabularFactorizedQ.zeros(det_game), clipped)
    assert len(err.value.missing) == 3
    assert err.value.coverage.shape == det_game.R.shape


def test_operator_is_a_contraction_on_random_table_pairs(det_game):
    dataset = TabularDataset.full_coverage(det_game)
    rng = np.random.default_rng(4)
    for _ in range(25):
        q1 = TabularFactorizedQ.zeros(det_game)
        q2 = TabularFactorizedQ.zeros(det_game)
        q1.q_tot = rng.normal(size=det_game.R.shape)
        q2.q_tot = rng.normal(size=det_game.R.shape)
        lhs = np.max(np.abs(exact_operator_apply(q1, dataset).q_tot - exact_operator_apply(q2, dataset).q_tot))
        rhs = det_game.gamma * np.max(np.abs(q1.q_tot - q2.q_tot))
        assert lhs <= rhs + 1e-9


def test_operator_iteration_converges_to_the_oracle(det_game):
    sol = oracle.solve_superb_q(det_game, tol=1e-12)
    dataset = TabularDataset.full_coverage(det_game)
    fq = TabularFactorizedQ.zeros(det_game)
    for _ in range(400):
        fq = exact_operator_apply(fq, dataset)
        if np.max(np.abs(fq.q_tot - sol.q_star)) <= 1e-7:
            break
    assert np.max(np.abs(fq.q_tot - sol.q_star)) <= 1e-7


def test_operator_zero_empirical_error_on_deterministic_games(det_game):
    dataset = TabularDataset.full_coverage(det_game)
    fq = exact_operator_apply(TabularFactorizedQ.zeros(det_game), dataset)
    values = fq.q_tot.max(axis=1).min(axis=1)
    targets = dataset.r + det_game.gamma * values[dataset.s_next]
    fq2 = exact_operator_apply(fq, dataset)
    predictions = fq2.q_tot[dataset.s, dataset.ja, dataset.jb]
    assert np.max(np.abs(predictions - targets)) <= 1e-12


def test_extract_policies_match_indicator_argmax(det_game):
    dataset = TabularDataset.full_coverage(det_game)
    fq = exact_operator_apply(TabularFactorizedQ.zeros(det_game), dataset)
    pair = extract_policies(fq)
    pro, ant = pair.state_tables(det_game)
    for s in range(det_game.n_states):
        b_star = int(np.argmin(fq.q_tot[s].max(axis=0)))
        a_star = int(np.argmax(fq.q_tot[s][:, b_star]))
        assert tuple(pro[:, s]) == det_game.decode_pro(a_star)
        assert tuple(ant[:, s]) == det_game.decode_ant(b_star)


def test_extract_policies_constant_tables_tie_break_to_zero(det_game):
    fq = TabularFactorizedQ.zeros(det_game)
    pair = extract_policies(fq)
    pro, ant = pair.state_tables(det_game)
    assert np.all(pro == 0) and np.all(ant == 0)


# ---------------------------------------------------------------------------
# buffer and coordinator


def numbered_records(game, count):
    """`count` copies of one encoded step whose rewards are 0, 1, 2, ..."""
    aug = games.initial_augmented(game, 0)
    ep = games.EpisodeStep(aug, JointAction((0, 0), (0, 0)), 0.0, aug, False)
    record = learner.encode_step(game, ep)
    return [dataclasses.replace(record, reward=float(k)) for k in range(count)]


def test_full_buffer_never_evicts(small_game):
    buf = ReplayBuffer("full")
    for record in numbered_records(small_game, 1000):
        buf.add(record)
    assert len(buf) == 1000
    assert buf.take([0])[0].reward == 0


def test_bounded_buffer_evicts_oldest_first(small_game):
    buf = ReplayBuffer("small", capacity=3)
    for record in numbered_records(small_game, 5):
        buf.add(record)
    assert [row.reward for row in buf.take(range(len(buf)))] == [2, 3, 4]


def test_take_refuses_rows_the_buffer_does_not_hold(small_game):
    buf = ReplayBuffer("full")
    for record in numbered_records(small_game, 3):  # the columns have 4 rows by now
        buf.add(record)
    with pytest.raises(IndexError):
        buf.take([3])


def random_play_records(game, count, seed=0):
    fq = small_fq(game, seed=seed)
    rng = np.random.default_rng(seed)
    aug = games.initial_augmented(game, 0)
    records = []
    for t in range(count):
        ep = games.step(game, aug, select_actions(fq, aug, 1.0, rng), rng=rng, t=t)
        records.append(learner.encode_step(game, ep))
        aug = games.initial_augmented(game, 0) if ep.done else ep.next_state
    return records


@pytest.mark.parametrize("mode, capacity", [("full", None), ("small", 7)])
def test_columnar_buffer_matches_the_record_list(small_game, mode, capacity):
    records = random_play_records(small_game, 40)
    buf = ReplayBuffer(mode, capacity)
    for record in records:
        buf.add(record)
    held = records if capacity is None else records[-capacity:]  # 33 overwrites: the ring wraps 4+ times
    assert len(buf) == len(held)
    fq = small_fq(small_game, seed=1)
    target = small_fq(small_game, seed=2)
    rng = np.random.default_rng(3)
    for idx in (rng.permutation(len(held)), rng.integers(len(held), size=2 * len(held))):
        batch = buf.take(idx)
        listed = [held[k] for k in idx]
        for name in ("state_vec", "next_state_vec"):
            assert np.array_equal(getattr(batch, name), np.vstack([getattr(r, name) for r in listed]))
        for name in ("pro_obs", "ant_obs", "next_pro_obs", "next_ant_obs"):
            for agent, column in enumerate(getattr(batch, name)):
                assert np.array_equal(column, np.vstack([getattr(r, name)[agent] for r in listed]))
        for name in ("pro_actions", "ant_actions", "reward", "done", "state_index", "next_state_index"):
            assert np.array_equal(getattr(batch, name), np.array([getattr(r, name) for r in listed]))
        assert [row.pro_actions for row in batch] == [r.pro_actions for r in listed]
        assert all(np.array_equal(row.ant_obs[1], r.ant_obs[1]) for row, r in zip(batch, listed))
        from_batch = learner.loss(fq, target, batch)
        from_list = learner.loss(fq, target, listed)
        assert from_batch.value == from_list.value
        assert np.array_equal(from_batch.grads, from_list.grads)
        assert np.array_equal(from_batch.targets, from_list.targets)


def test_bounded_buffer_requires_capacity():
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer("large")


def test_coordinator_batch_arithmetic():
    coord = Coordinator(10)
    assert coord.batch_size(1000) == 100
    assert coord.batch_size(7) == 1
    assert coord.batch_size(95) == 9


def test_round_batches_partition_when_divisible():
    rng = np.random.default_rng(0)
    batches = learner.round_batches(rng, 1000, 10, 100)
    assert len(batches) == 10
    assert all(len(b) == 100 for b in batches)
    combined = np.sort(np.concatenate(batches))
    assert np.array_equal(combined, np.arange(1000))


def test_round_batches_sample_with_replacement_otherwise():
    rng = np.random.default_rng(0)
    batches = learner.round_batches(rng, 95, 10, 9)
    assert len(batches) == 10
    assert all(len(b) == 9 for b in batches)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_episodes_returns_initialized_model(small_game):
    cfg = TrainConfig(episodes=0, hidden_layers=(8,), mix_hidden_dim=4)
    result = train(small_game, cfg)
    fresh = build_neural_fq(small_game, hidden_layers=(8,), mix_hidden_dim=4, seed=0)
    assert result.metrics == []
    assert np.array_equal(result.fq.params, fresh.params)


def test_train_round_accounting_matches_the_rule():
    g = games.random_tabular_game(seed=3, n_states=2, n=1, m=1, actions_per_agent=2,
                                  gamma=0.5, horizon=50)
    cfg = TrainConfig(episodes=20, updates_per_round=10, hidden_layers=(8,), mix_hidden_dim=4)
    result = train(g, cfg)
    assert len(result.rounds) == 20
    for record in result.rounds:
        assert record.update_steps == 10
        assert record.batch_size == max(1, record.buffer_size // 10)
    # 50-step episodes: by episode 20 the full buffer holds 1000 steps
    assert result.rounds[19].buffer_size == 1000
    assert result.rounds[19].batch_size == 100


def test_train_refuses_non_exploratory_config(small_game):
    cfg = TrainConfig(episodes=1, epsilon_start=0.0, epsilon_end=0.0)
    with pytest.raises(ValueError, match="exploratory"):
        train(small_game, cfg)


def test_train_full_buffer_holds_every_generated_step(small_game):
    cfg = TrainConfig(episodes=6, hidden_layers=(8,), mix_hidden_dim=4, buffer_mode="full")
    result = train(small_game, cfg)
    assert result.buffer_size == 6 * small_game.horizon


def test_train_is_deterministic_given_seed(small_game):
    cfg = TrainConfig(episodes=4, hidden_layers=(8,), mix_hidden_dim=4, seed=9)
    a = train(small_game, cfg)
    b = train(small_game, cfg)
    assert np.array_equal(a.fq.params, b.fq.params)
    assert a.metrics == b.metrics


def test_train_exhaustive_target_check_changes_nothing(small_game):
    cfg = TrainConfig(episodes=3, updates_per_round=2, hidden_layers=(8,), mix_hidden_dim=4, seed=4)
    plain = train(small_game, cfg)
    checked = train(small_game, dataclasses.replace(cfg, exhaustive_target_check=True))
    assert checked.metrics == plain.metrics
    assert np.array_equal(checked.fq.params, plain.fq.params)


def test_train_early_stop_between_checkpoints_keeps_the_stop_episode(small_game):
    def eval_fn(fq, episode):
        return {"nashconv": 1.0 if episode < 3 else 0.0}

    cfg = TrainConfig(episodes=10, hidden_layers=(8,), mix_hidden_dim=4, eval_every=1,
                      checkpoint_every=2, stop_eval_below=0.5)
    result = train(small_game, cfg, eval_fn=eval_fn)
    assert result.episodes_run == 3
    assert [row["episode"] for row in result.metrics] == [1, 2, 3]
    assert [episode for episode, _ in result.snapshots] == [2, 3]
    assert np.array_equal(result.snapshots[-1][1], result.fq.params)


def test_train_target_refresh_is_bit_exact(small_game, monkeypatch):
    observed = []
    original = learner.td_targets_batch

    def spy(fq_target, records, exhaustive_check=False):
        observed.append(fq_target.params.copy())
        return original(fq_target, records, exhaustive_check)

    monkeypatch.setattr(learner, "td_targets_batch", spy)
    cfg = TrainConfig(episodes=2, updates_per_round=3, hidden_layers=(8,), mix_hidden_dim=4)
    result = train(small_game, cfg)
    # all 3 updates of the second round used one frozen snapshot
    second_round = observed[3:6]
    assert np.array_equal(second_round[0], second_round[1])
    assert np.array_equal(second_round[1], second_round[2])


def test_greedy_policy_pair_round_trips_through_checkpoint(small_game):
    cfg = TrainConfig(episodes=3, hidden_layers=(8,), mix_hidden_dim=4, seed=5)
    result = train(small_game, cfg)
    doc = learner.checkpoint_document(result.fq, episode=3, seed=5)
    import json

    restored = learner.fq_from_checkpoint(small_game, json.loads(json.dumps(doc)))
    pair_a = extract_policies(result.fq)
    pair_b = extract_policies(restored)
    for s in range(small_game.n_states):
        aug = games.initial_augmented(small_game, s)
        assert pair_a.pro_actions(aug) == pair_b.pro_actions(aug)
        assert pair_a.ant_actions(aug) == pair_b.ant_actions(aug)


def test_epsilon_schedule_decays_then_holds():
    cfg = TrainConfig(episodes=100, epsilon_start=1.0, epsilon_end=0.05,
                      epsilon_decay_fraction=0.2)
    assert learner.epsilon_at(cfg, 0) == 1.0
    assert learner.epsilon_at(cfg, 10) == pytest.approx(0.525)
    assert learner.epsilon_at(cfg, 20) == pytest.approx(0.05)
    assert learner.epsilon_at(cfg, 99) == pytest.approx(0.05)
