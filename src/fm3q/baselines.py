"""Comparison learners: independent Q self-play and joint tabular minimax Q.

The independent learner gives every agent its own Q function, its own
bounded replay buffer, and its own target snapshot; each agent optimizes
its team-signed reward and treats everyone else as part of the environment.
The joint learner keeps one table over the full joint action space and does
plain minimax temporal-difference updates, which shares its fixed point
with the exact solvers and pins down what the factorization should reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .games import (
    AugmentedState,
    JointAction,
    TablePolicyPair,
    TabularGame,
    TwoTeamGame,
    rollout,
    state_tables_of,
)
from .learner import (
    Coordinator,
    ReplayBuffer,
    _run_episodes,
    check_exploration,
    encode_history,
    epsilon_greedy,
    history_feature_dim,
    round_batches,
)
from .seeding import derive_rng


@dataclass
class IndependentQConfig:
    episodes: int
    updates_per_round: int = 10
    buffer_capacity: int = 5000
    backend: str = "tabular"  # "tabular" or "neural"
    alpha: float = 0.1
    learning_rate: float = 5e-4
    hidden_layers: tuple = (64, 64)
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.2
    seed: int = 0
    checkpoint_every: int | None = None
    eval_every: int | None = None

    def validate(self):
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        if self.backend not in ("tabular", "neural"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "tabular" and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        check_exploration(self)
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be positive")


class _TabularAgent:
    """One agent's table over (state, own action); opponents are invisible."""

    def __init__(self, n_states: int, n_actions: int, sign: float, alpha: float):
        self.q = np.zeros((n_states, n_actions))
        self.target = self.q.copy()
        self.sign = sign
        self.alpha = alpha

    def values(self, s: int) -> np.ndarray:
        return self.q[s]

    def update_batch(self, batch, gamma: float):
        """Sequential TD steps over the rows of a `Batch`."""
        columns = (batch.obs, batch.action, batch.reward, batch.next_obs, batch.done)
        for s, a, r, s_next, done in zip(*(c.tolist() for c in columns)):
            boot = 0.0 if done else float(self.target[s_next].max())
            target = self.sign * r + gamma * boot
            self.q[s, a] += self.alpha * (target - self.q[s, a])

    def refresh_target(self):
        self.target = self.q.copy()


class _NeuralAgent:
    """One agent's dense Q net with its own flat parameters and optimizer."""

    def __init__(self, game, team, idx, hidden, activation, seed):
        count = (game.pro_action_counts if team == "pro" else game.ant_action_counts)[idx]
        in_dim = history_feature_dim(game, team, idx, 1)
        self.game = game
        self.team = team
        self.idx = idx
        self.sign = 1.0 if team == "pro" else -1.0
        self.net = nm.DenseNet(f"{team}{idx}", (in_dim, *hidden, count), hidden_activation=activation)
        self.layout = self.net.layout()
        self.params = self.layout.zeros()
        self.net.init_into(self.layout, self.params, derive_rng(seed, "iql-init", team, idx))
        self.target_params = self.params.copy()
        self.adam = nm.AdamState.for_size(self.layout.size)

    def values(self, obs_vec: np.ndarray) -> np.ndarray:
        return self.net.forward(self.layout, self.params, obs_vec)

    def update_batch(self, batch, gamma: float, lr: float):
        boot = self.net.forward(self.layout, self.target_params, batch.next_obs).max(axis=1)
        targets = self.sign * batch.reward + gamma * np.where(batch.done, 0.0, boot)
        out, layers = self.net.forward_cache(self.layout, self.params, batch.obs)
        value, g = nm.mean_squared_error(targets, out[np.arange(len(out)), batch.action])
        g = nm.pick_cols_grad(g, batch.action, self.net.out_dim)
        grads = self.layout.zeros()
        nm.backward(self.net, self.layout, self.params, layers, g, grads)
        self.params = nm.adam_step(self.params, grads, self.adam, lr)
        return value

    def refresh_target(self):
        self.target_params = self.params.copy()


class IndependentPolicyPair:
    """Greedy play from a set of independent per-agent learners."""

    def __init__(self, game, pro_agents, ant_agents):
        self.game = game
        self.pro_agents = pro_agents
        self.ant_agents = ant_agents

    def _agent_values(self, agent, team, idx, s_aug: AugmentedState) -> np.ndarray:
        if isinstance(agent, _TabularAgent):
            return agent.values(s_aug.state)
        history = s_aug.pro_histories[idx] if team == "pro" else s_aug.ant_histories[idx]
        return agent.values(encode_history(self.game, team, idx, history))

    def pro_actions(self, s_aug: AugmentedState):
        return tuple(
            int(np.argmax(self._agent_values(agent, "pro", i, s_aug)))
            for i, agent in enumerate(self.pro_agents)
        )

    def ant_actions(self, s_aug: AugmentedState):
        return tuple(
            int(np.argmax(self._agent_values(agent, "ant", j, s_aug)))
            for j, agent in enumerate(self.ant_agents)
        )

    def state_tables(self, game: TabularGame):
        return state_tables_of(game, lambda aug: (self.pro_actions(aug), self.ant_actions(aug)))


@dataclass
class BaselineTrainResult:
    """What a baseline trainer returns. `snapshots` holds (episode,
    TablePolicyPair) at each checkpoint episode of a tabular game, the last
    episode included; joint minimax runs no update rounds, so its `rounds`
    is empty."""

    policies: object
    metrics: list
    rounds: list
    snapshots: list
    episodes_run: int


def selfplay_independent_train(game: TwoTeamGame, config: IndependentQConfig, eval_fn=None) -> BaselineTrainResult:
    """Self-play with fully independent per-agent TD learning, on the
    factorized trainer's episode schedule (`learner._run_episodes`).

    Mirrors the factorized trainer's coordinator arithmetic (U update steps
    per round on batches of max(1, L // U), target refresh after the round)
    but every agent trains on its own signed reward with no coordination.
    `eval_fn(policies, episode) -> dict` adds columns to that episode's row.
    """
    config.validate()
    tab = config.backend == "tabular"
    if tab and not getattr(game, "is_tabular", False):
        raise ValueError("the tabular backend needs a tabular game")
    if tab:
        pro_agents = [
            _TabularAgent(game.n_states, c, 1.0, config.alpha) for c in game.pro_action_counts
        ]
        ant_agents = [
            _TabularAgent(game.n_states, c, -1.0, config.alpha) for c in game.ant_action_counts
        ]
    else:
        pro_agents = [_NeuralAgent(game, "pro", i, config.hidden_layers, "relu", config.seed) for i in range(game.n)]
        ant_agents = [_NeuralAgent(game, "ant", j, config.hidden_layers, "relu", config.seed) for j in range(game.m)]
    agents = pro_agents + ant_agents
    roles = [("pro", i) for i in range(game.n)] + [("ant", j) for j in range(game.m)]
    buffers = [ReplayBuffer("large", config.buffer_capacity) for _ in agents]
    coordinator = Coordinator(config.updates_per_round)
    policies = IndependentPolicyPair(game, pro_agents, ant_agents)
    rollout_rng = derive_rng(config.seed, "iql-rollout")
    batch_rng = derive_rng(config.seed, "iql-batches")

    def play(episode, eps):
        act = lambda aug: epsilon_greedy(
            game, JointAction(policies.pro_actions(aug), policies.ant_actions(aug)), eps, rollout_rng
        )
        for ep_step in rollout(game, act, rollout_rng):
            for (team, idx), buffer in zip(roles, buffers):
                buffer.add(_agent_record(game, ep_step, team, idx, tab))
        size = len(buffers[0])
        batch_size = coordinator.batch_size(size)
        losses = []
        for k, agent in enumerate(agents):
            for idx in round_batches(batch_rng, len(buffers[k]), config.updates_per_round, batch_size):
                batch = buffers[k].take(idx)
                if tab:
                    agent.update_batch(batch, game.gamma)
                else:
                    losses.append(agent.update_batch(batch, game.gamma, config.learning_rate))
            agent.refresh_target()
        coordinator.record(episode, size, batch_size, config.updates_per_round)
        return losses, size, batch_size

    # only a tabular game has the per-state tables a snapshot holds
    snapshot = None
    if getattr(game, "is_tabular", False):
        snapshot = lambda: TablePolicyPair(*policies.state_tables(game))
    evaluate = None if eval_fn is None else lambda episode: eval_fn(policies, episode)
    metrics, snapshots, episodes_run = _run_episodes(config, play, evaluate, snapshot)
    return BaselineTrainResult(policies, metrics, coordinator.rounds, snapshots, episodes_run)


@dataclass(frozen=True)
class AgentStep:
    """One agent's view of a transition. `obs` and `next_obs` are state
    indices on the tabular backend and encoded observations otherwise."""

    obs: object
    action: int
    reward: float
    next_obs: object
    done: bool


def _agent_record(game, ep_step, team: str, idx: int, tabular: bool) -> AgentStep:
    cur, nxt = ep_step.state, ep_step.next_state
    if team == "pro":
        action, hist, next_hist = ep_step.action.pro[idx], cur.pro_histories[idx], nxt.pro_histories[idx]
    else:
        action, hist, next_hist = ep_step.action.ant[idx], cur.ant_histories[idx], nxt.ant_histories[idx]
    if tabular:
        return AgentStep(cur.state, action, ep_step.reward, nxt.state, ep_step.done)
    return AgentStep(
        encode_history(game, team, idx, hist),
        action,
        ep_step.reward,
        encode_history(game, team, idx, next_hist),
        ep_step.done,
    )


# ---------------------------------------------------------------------------
# joint tabular minimax Q


class JointMinimaxQLearner:
    """One table over (state, joint Pro action, joint Ant action)."""

    def __init__(self, game: TabularGame):
        if not getattr(game, "is_tabular", False):
            raise ValueError("the joint learner needs a tabular game")
        self.game = game
        self.q = np.zeros_like(game.R)

    def minimax_values(self) -> np.ndarray:
        return self.q.max(axis=1).min(axis=1)

    def policy_pair(self) -> TablePolicyPair:
        pro_joint = np.argmax(self.q.min(axis=2), axis=1)
        ant_joint = np.argmin(self.q.max(axis=1), axis=1)
        return TablePolicyPair.from_joint(self.game, pro_joint, ant_joint)


def joint_minimaxq_update(learner: JointMinimaxQLearner, ep_step, alpha: float, gamma: float) -> np.ndarray:
    """One minimax TD step: Q <- (1 - alpha) Q + alpha (r + gamma min max Q')."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    game = learner.game
    s = ep_step.state.state
    ja = game.encode_pro(ep_step.action.pro)
    jb = game.encode_ant(ep_step.action.ant)
    boot = 0.0
    if not ep_step.done:
        nxt = ep_step.next_state.state
        boot = float(learner.q[nxt].max(axis=0).min())
    target = ep_step.reward + gamma * boot
    learner.q[s, ja, jb] = (1.0 - alpha) * learner.q[s, ja, jb] + alpha * target
    return learner.q


def joint_minimax_train(game: TabularGame, config: IndependentQConfig, eval_fn=None) -> BaselineTrainResult:
    """Online joint minimax Q with one TD update per environment step, on
    the factorized trainer's episode schedule (`learner._run_episodes`).

    Each episode plays the greedy table pair frozen at its start; one draw
    per step swaps in a uniformly random joint action with probability
    epsilon. The step size is max(0.05, alpha / (1 + 0.01 * episode)). Reads
    `episodes`, `alpha`, `seed`, the epsilon schedule and the
    `eval_every`/`checkpoint_every` cadences from the config;
    `eval_fn(pair, episode) -> dict` adds columns to that episode's row.
    """
    check_exploration(config)
    lrn = JointMinimaxQLearner(game)
    rng = derive_rng(config.seed, "jminimax")

    def play(episode, eps):
        alpha = max(0.05, config.alpha / (1.0 + 0.01 * episode))
        pair = lrn.policy_pair()

        def act(aug):
            if rng.random() < eps:
                return JointAction(
                    tuple(int(rng.integers(c)) for c in game.pro_action_counts),
                    tuple(int(rng.integers(c)) for c in game.ant_action_counts),
                )
            return JointAction(pair.pro_actions(aug), pair.ant_actions(aug))

        for ep_step in rollout(game, act, rng):
            joint_minimaxq_update(lrn, ep_step, alpha, game.gamma)
        return [], 0, 0

    evaluate = None if eval_fn is None else lambda episode: eval_fn(lrn.policy_pair(), episode)
    metrics, snapshots, episodes_run = _run_episodes(config, play, evaluate, lrn.policy_pair)
    return BaselineTrainResult(lrn.policy_pair(), metrics, [], snapshots, episodes_run)


def joint_minimax_sweeps(
    learner: JointMinimaxQLearner,
    dataset,
    passes: int,
    alpha: float = 1.0,
    alpha_decay: float = 1.0,
) -> JointMinimaxQLearner:
    """Repeated sweeps over a fixed dataset with an optional alpha decay."""
    game = learner.game
    a = alpha
    for _ in range(passes):
        values = learner.q.max(axis=1).min(axis=1)
        targets = dataset.r + game.gamma * np.where(dataset.done, 0.0, values[dataset.s_next])
        for s, ja, jb, tgt in zip(dataset.s, dataset.ja, dataset.jb, targets):
            learner.q[s, ja, jb] = (1.0 - a) * learner.q[s, ja, jb] + a * tgt
        a *= alpha_decay
    return learner
