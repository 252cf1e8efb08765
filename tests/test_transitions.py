"""The successor-index transitions against the dense P they replace.

One-hot games keep a successor per cell instead of the (S, JA, JB, S)
tensor. Every exact consumer must give the same bits as the dense einsum
form, which lives on here as the reference.
"""

import hashlib
import json

import numpy as np
import pytest

from fm3q import games, learner, oracle


def _game(kind):
    if kind == "deterministic":
        return games.random_deterministic_game(seed=11, n_states=7, n=2, m=2, actions_per_agent=2, gamma=0.85)
    if kind == "saddle":
        return games.random_saddle_game(seed=3, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8,
                                        min_margin=0.08)
    if kind == "stochastic":
        return games.random_tabular_game(seed=12, n_states=6, n=2, m=1, actions_per_agent=3, gamma=0.9)
    if kind == "matrix":
        return games.matrix_team_game([[3.0, -1.0], [0.5, 2.0]], 1, 1)
    if kind == "reloaded":
        det = games.random_deterministic_game(seed=4, n_states=5, n=1, m=2, actions_per_agent=3, gamma=0.7)
        return games.TabularGame.from_document(json.loads(json.dumps(det.to_document())))
    raise ValueError(kind)


KINDS = ("deterministic", "saddle", "stochastic", "matrix", "reloaded")


def _policies(game, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(game.pro_joint_count, size=game.n_states),
         rng.integers(game.ant_joint_count, size=game.n_states))
        for _ in range(count)
    ]


# dense references: the einsum forms the solvers used before the compact path


def dense_solve(game, tol):
    q = np.zeros_like(game.R)
    iterations = 1
    if game.gamma == 0.0:
        q = game.R.copy()
    else:
        P = game.P
        for iterations in range(1, oracle.default_max_iters(game.gamma, tol, game.r_max) + 1):
            v = q.max(axis=1).min(axis=1)
            q_next = game.R + game.gamma * np.einsum("sabt,t->sab", P, v)
            residual = float(np.max(np.abs(q_next - q)))
            q = q_next
            if residual < tol:
                break
    col_max, row_min = q.max(axis=1), q.min(axis=2)
    return q, col_max.min(axis=1), np.argmax(row_min, axis=1), np.argmin(col_max, axis=1), iterations


def dense_best_response(game, opp, team, tol):
    s_idx = np.arange(game.n_states)
    if team == "pro":
        p_red, r_red, best, pick = game.P[s_idx, :, opp, :], game.R[s_idx, :, opp], np.max, np.argmax
    else:
        p_red, r_red, best, pick = game.P[s_idx, opp, :, :], game.R[s_idx, opp, :], np.min, np.argmin
    if game.gamma == 0.0:
        return best(r_red, axis=1), pick(r_red, axis=1)
    values = np.zeros(game.n_states)
    for _ in range(oracle.default_max_iters(game.gamma, tol, game.r_max)):
        new_values = best(r_red + game.gamma * np.einsum("sat,t->sa", p_red, values), axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < tol:
            break
    return values, pick(r_red + game.gamma * np.einsum("sat,t->sa", p_red, values), axis=1)


def dense_policy_value(game, pro, ant):
    s_idx = np.arange(game.n_states)
    r_vec = game.R[s_idx, pro, ant]
    if game.gamma == 0.0:
        return r_vec.copy()
    return np.linalg.solve(np.eye(game.n_states) - game.gamma * game.P[s_idx, pro, ant, :], r_vec)


def dense_full_coverage(game, rng, repeats):
    s, ja, jb = np.unravel_index(np.tile(np.arange(game.R.size), repeats), game.R.shape)
    cdf = np.cumsum(game.P[s, ja, jb, :], axis=1)
    draws = rng.random(s.size)
    return (draws[:, None] < cdf).argmax(axis=1)


@pytest.mark.parametrize("kind", KINDS)
def test_backup_gives_the_bits_of_the_dense_einsum(kind):
    game = _game(kind)
    P = game.P
    s_idx = np.arange(game.n_states)
    v = np.random.default_rng(1).standard_normal(game.n_states)
    assert game.backup()(v).tobytes() == np.einsum("sabt,t->sab", P, v).tobytes()
    for pro, ant in _policies(game):
        assert game.backup(pro=pro)(v).tobytes() == np.einsum("sat,t->sa", P[s_idx, pro, :, :], v).tobytes()
        assert game.backup(ant=ant)(v).tobytes() == np.einsum("sat,t->sa", P[s_idx, :, ant, :], v).tobytes()
        assert game.transition_rows(s_idx, pro, ant).tobytes() == P[s_idx, pro, ant, :].tobytes()
    with pytest.raises(ValueError):
        game.backup(pro=pro, ant=ant)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_solvers_give_the_bits_of_the_dense_reference(kind):
    game = _game(kind)
    tol = 1e-10
    sol = oracle.solve_superb_q(game, tol=tol)
    q, v_star, pro_policy, ant_policy, iterations = dense_solve(game, tol)
    assert sol.q_star.tobytes() == q.tobytes()
    assert sol.v_star.tobytes() == v_star.tobytes()
    assert sol.pro_policy.tobytes() == pro_policy.tobytes()
    assert sol.ant_policy.tobytes() == ant_policy.tobytes()
    assert sol.iterations == iterations
    for pro, ant in [(sol.pro_policy, sol.ant_policy)] + _policies(game):
        dist = game.initial_distribution()
        br_pro, br_ant = oracle.best_response(game, ant, "pro"), oracle.best_response(game, pro, "ant")
        for br, team, opp in ((br_pro, "pro", ant), (br_ant, "ant", pro)):
            values, policy = dense_best_response(game, opp, team, 1e-8)
            assert br.values.tobytes() == values.tobytes()
            assert br.policy.tobytes() == policy.tobytes()
        dense_gap = float(dist @ (dense_best_response(game, ant, "pro", 1e-8)[0]
                                  - dense_best_response(game, pro, "ant", 1e-8)[0]))
        assert oracle.nashconv(game, pro, ant) == dense_gap
        assert oracle.policy_value(game, pro, ant).tobytes() == dense_policy_value(game, pro, ant).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_full_coverage_draws_like_the_dense_cdf(kind):
    game = _game(kind)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    dataset = learner.TabularDataset.full_coverage(game, rng, repeats=2)
    assert dataset.s_next.tobytes() == dense_full_coverage(game, ref_rng, 2).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: sha256 of json.dumps(to_document()) for the two one-hot generators; the
#: constants were taken before the successor index existed.
DOCUMENT_GOLDEN = {
    "deterministic": "739c79a80ff12bc25f280a11469350ff8364e2deb0b680a1901b9eb8fecd6536",
    "saddle": "0805593d786e4374ac7a2eaee5828cca933e9361c5e58fbcb59c63eb4259e5d0",
}


@pytest.mark.parametrize("kind", sorted(DOCUMENT_GOLDEN))
def test_one_hot_game_documents_match_their_golden_hashes(kind):
    doc = json.dumps(_game(kind).to_document()).encode()
    assert hashlib.sha256(doc).hexdigest() == DOCUMENT_GOLDEN[kind]


def test_one_hot_dense_input_keeps_no_dense_tensor():
    det = _game("deterministic")
    rebuilt = games.TabularGame(det.P, det.R, det.pro_action_counts, det.ant_action_counts, det.gamma)
    for game in (det, rebuilt, _game("reloaded"), _game("matrix"), _game("saddle")):
        assert game.successors is not None
        assert not [k for k, v in vars(game).items() if isinstance(v, np.ndarray) and v.ndim == 4]
    assert np.array_equal(rebuilt.successors, det.successors)
    # a row that is only nearly one-hot stays dense
    P = det.P
    P[0, 0, 0, det.successors[0, 0, 0]] -= 1e-12
    P[0, 0, 0, (det.successors[0, 0, 0] + 1) % det.n_states] += 1e-12
    nearly = games.TabularGame(P, det.R, det.pro_action_counts, det.ant_action_counts, det.gamma)
    assert nearly.successors is None
    assert nearly.P.tobytes() == P.tobytes()
    assert _game("stochastic").successors is None
