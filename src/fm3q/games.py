"""Two-team zero-sum Markov games and the small concrete games used here.

A game pits a maximizing Protagonist team of n agents against a minimizing
Antagonist team of m agents. Every step all agents act simultaneously, the
environment pays the Protagonists a scalar reward, and the Antagonists
implicitly receive its negation. Games are immutable after construction and
safe to share across workers; all randomness is supplied by the caller.

Joint actions are flattened row-major (first agent varies slowest), so a
team's joint action space is a single integer range that tabular solvers
can enumerate directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

GAME_DOC_VERSION = 1

#: Limit on |joint pro actions| * |joint ant actions| per state for anything
#: that enumerates the joint space (random games, exact solvers).
JOINT_ACTION_GUARD = 10_000


@dataclass(frozen=True)
class JointAction:
    """One simultaneous action profile: a per Pro agent, b per Ant agent."""

    pro: tuple[int, ...]
    ant: tuple[int, ...]


@dataclass(frozen=True)
class AugmentedState:
    """Global state together with each agent's observation-action window.

    Histories are tuples of (observation, previous_action) pairs of length k;
    the previous action is -1 at the start of an episode. With the default
    window k=1 an agent's history carries exactly its current observation.
    """

    pro_histories: tuple
    ant_histories: tuple
    state: object

    @property
    def window(self) -> int:
        return len(self.pro_histories[0]) if self.pro_histories else 1


@dataclass(frozen=True)
class EpisodeStep:
    """One transition record: state, joint action, reward, successor, done."""

    state: AugmentedState
    action: JointAction
    reward: float
    next_state: AugmentedState
    done: bool


def joint_count(counts: Sequence[int]) -> int:
    total = 1
    for c in counts:
        total *= int(c)
    return total


def encode_joint(actions: Sequence[int], counts: Sequence[int]) -> int:
    """Row-major flattening of a per-agent action tuple."""
    idx = 0
    for a, c in zip(actions, counts):
        if not 0 <= a < c:
            raise ValueError(f"action index {a} outside [0, {c})")
        idx = idx * c + a
    return idx


def decode_joint(index: int, counts: Sequence[int]) -> tuple[int, ...]:
    out = []
    for c in reversed(counts):
        out.append(index % c)
        index //= c
    return tuple(reversed(out))


class TwoTeamGame:
    """Shared interface for all games; concrete games fill in the dynamics."""

    n: int
    m: int
    pro_action_counts: tuple[int, ...]
    ant_action_counts: tuple[int, ...]
    gamma: float
    horizon: int
    r_max: float
    is_tabular: bool = False

    # dynamics -------------------------------------------------------------

    def observe_pro(self, s, i):
        raise NotImplementedError

    def observe_ant(self, s, j):
        raise NotImplementedError

    def transition_dist(self, s, pro_actions, ant_actions):
        """Return (successor states, probabilities) for one joint action."""
        raise NotImplementedError

    def reward(self, s, pro_actions, ant_actions) -> float:
        raise NotImplementedError

    def is_terminal(self, s) -> bool:
        return False

    def sample_initial(self, rng: np.random.Generator):
        raise NotImplementedError

    # function-approximation encoders ---------------------------------------

    def pro_obs_vector(self, i: int, obs) -> np.ndarray:
        raise NotImplementedError

    def ant_obs_vector(self, j: int, obs) -> np.ndarray:
        raise NotImplementedError

    def state_vector(self, s) -> np.ndarray:
        raise NotImplementedError

    @property
    def state_dim(self) -> int:
        raise NotImplementedError

    # joint-action helpers ---------------------------------------------------

    @property
    def pro_joint_count(self) -> int:
        return joint_count(self.pro_action_counts)

    @property
    def ant_joint_count(self) -> int:
        return joint_count(self.ant_action_counts)

    def encode_pro(self, actions) -> int:
        return encode_joint(actions, self.pro_action_counts)

    def encode_ant(self, actions) -> int:
        return encode_joint(actions, self.ant_action_counts)

    def decode_pro(self, index: int) -> tuple[int, ...]:
        return decode_joint(index, self.pro_action_counts)

    def decode_ant(self, index: int) -> tuple[int, ...]:
        return decode_joint(index, self.ant_action_counts)


# ---------------------------------------------------------------------------
# tabular games


class TabularGame(TwoTeamGame):
    """Finite game given by explicit transition and reward tensors.

    P has shape (S, JA, JB, S) and rows sum to one; R has shape (S, JA, JB)
    and holds the Protagonist reward. Observations are fully observable:
    every agent sees the state index. The horizon defaults to the smallest H
    with gamma**H <= 1e-3 so that finite rollouts approximate the discounted
    objective.

    `transitions` is either the dense P or an integer (S, JA, JB) array of
    successor states for deterministic dynamics. A dense P whose every row
    is exactly one-hot is stored the same way, as `successors`, and no dense
    tensor is kept; `P` then builds it on each access. `successors` is None
    for a stochastic game.
    """

    is_tabular = True

    def __init__(
        self,
        transitions: np.ndarray,
        rewards: np.ndarray,
        pro_action_counts: Sequence[int],
        ant_action_counts: Sequence[int],
        gamma: float,
        horizon: int | None = None,
        r_max: float | None = None,
        initial_state: int | None = None,
        name: str = "tabular",
    ):
        transitions = np.asarray(transitions)
        rewards = np.asarray(rewards, dtype=np.float64)
        self.pro_action_counts = tuple(int(c) for c in pro_action_counts)
        self.ant_action_counts = tuple(int(c) for c in ant_action_counts)
        self.n = len(self.pro_action_counts)
        self.m = len(self.ant_action_counts)
        ja, jb = self.pro_joint_count, self.ant_joint_count
        s_count = rewards.shape[0]
        if rewards.shape != (s_count, ja, jb):
            raise ValueError(f"reward tensor shape {rewards.shape} does not match ({s_count}, {ja}, {jb})")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        if np.issubdtype(transitions.dtype, np.integer) and transitions.ndim == 3:
            if transitions.shape != (s_count, ja, jb):
                raise ValueError(
                    f"successor array shape {transitions.shape} does not match ({s_count}, {ja}, {jb})"
                )
            if transitions.min() < 0 or transitions.max() >= s_count:
                raise ValueError(f"successor states must lie in [0, {s_count})")
            self.successors = transitions.astype(np.int64)
            self._dense = None
        else:
            transitions = np.ascontiguousarray(transitions, dtype=np.float64)
            if transitions.shape != (s_count, ja, jb, s_count):
                raise ValueError(
                    f"transition tensor shape {transitions.shape} does not match ({s_count}, {ja}, {jb}, {s_count})"
                )
            if not np.all(np.isfinite(transitions)):
                raise ValueError("transition probabilities must be finite")
            sums = transitions.sum(axis=3)
            if np.max(np.abs(sums - 1.0)) > 1e-9:
                raise ValueError("transition rows must sum to 1 within 1e-9")
            if np.min(transitions) < 0.0:
                raise ValueError("transition probabilities must be nonnegative")
            self.successors = _one_hot_successors(transitions)
            self._dense = transitions if self.successors is None else None
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        self.R = rewards
        self.gamma = float(gamma)
        self.r_max = float(r_max) if r_max is not None else float(np.max(np.abs(rewards)))
        if np.max(np.abs(rewards)) > self.r_max + 1e-12:
            raise ValueError("rewards exceed the declared bound")
        self.horizon = int(horizon) if horizon is not None else default_horizon(self.gamma)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.initial_state = initial_state
        self.name = name
        self._eye = np.eye(s_count, dtype=np.float64)

    @property
    def n_states(self) -> int:
        return self.R.shape[0]

    @property
    def P(self) -> np.ndarray:
        """Dense transition tensor (S, JA, JB, S). A deterministic game
        builds it afresh on every access and does not keep it."""
        if self.successors is None:
            return self._dense
        dense = np.zeros(self.successors.shape + (self.n_states,))
        np.put_along_axis(dense, self.successors[..., None], 1.0, axis=3)
        return dense

    def transition_rows(self, s, ja, jb) -> np.ndarray:
        """The rows P[s, ja, jb] for scalar or array indices, without
        building the dense P of a deterministic game."""
        if self.successors is None:
            return self._dense[s, ja, jb]
        return self._eye[self.successors[s, ja, jb]]

    def backup(self, pro=None, ant=None):
        """The map v -> E[v(s')], v indexed by state.

        With neither argument it covers every cell and returns (S, JA, JB).
        With `pro` (or `ant`), a per-state joint action of that team, it
        covers the slice where that team plays `pro[s]` in state s and
        returns (S, JB) (or (S, JA)). The slice is taken once, here, so
        call this once per solve and the returned map once per iteration.
        A deterministic game gathers v at the successors, which gives the
        same bits as contracting the one-hot P.
        """
        if pro is not None and ant is not None:
            raise ValueError("fix at most one team's actions")
        s_idx = np.arange(self.n_states)
        if self.successors is not None:
            nxt = self.successors
            if pro is not None:
                nxt = nxt[s_idx, pro, :]
            elif ant is not None:
                nxt = nxt[s_idx, :, ant]
            return lambda v: v[nxt]
        if pro is None and ant is None:
            return lambda v: np.einsum("sabt,t->sab", self._dense, v)
        p_red = self._dense[s_idx, pro, :, :] if pro is not None else self._dense[s_idx, :, ant, :]
        return lambda v: np.einsum("sat,t->sa", p_red, v)

    def observe_pro(self, s, i):
        return s

    def observe_ant(self, s, j):
        return s

    def transition_dist(self, s, pro_actions, ant_actions):
        row = self.transition_rows(s, self.encode_pro(pro_actions), self.encode_ant(ant_actions))
        return np.arange(self.n_states), row

    def reward(self, s, pro_actions, ant_actions) -> float:
        return float(self.R[s, self.encode_pro(pro_actions), self.encode_ant(ant_actions)])

    def sample_initial(self, rng: np.random.Generator):
        if self.initial_state is not None:
            return self.initial_state
        return int(rng.integers(self.n_states))

    def initial_distribution(self) -> np.ndarray:
        dist = np.zeros(self.n_states)
        if self.initial_state is not None:
            dist[self.initial_state] = 1.0
        else:
            dist[:] = 1.0 / self.n_states
        return dist

    def pro_obs_vector(self, i, obs) -> np.ndarray:
        return self._eye[obs]

    def ant_obs_vector(self, j, obs) -> np.ndarray:
        return self._eye[obs]

    def state_vector(self, s) -> np.ndarray:
        return self._eye[s]

    @property
    def state_dim(self) -> int:
        return self.n_states

    # serialization ----------------------------------------------------------

    def to_document(self) -> dict:
        """Plain JSON document with flat row-major P and R tensors."""
        return {
            "version": GAME_DOC_VERSION,
            "kind": "tabular",
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "pro_action_counts": list(self.pro_action_counts),
            "ant_action_counts": list(self.ant_action_counts),
            "gamma": self.gamma,
            "horizon": self.horizon,
            "r_max": self.r_max,
            "initial_state": self.initial_state,
            "dims": {
                "states": self.n_states,
                "pro_joint": self.pro_joint_count,
                "ant_joint": self.ant_joint_count,
            },
            "P": [float(v) for v in self.P.ravel()],
            "R": [float(v) for v in self.R.ravel()],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "TabularGame":
        if doc.get("kind") != "tabular":
            raise ValueError(f"not a tabular game document: kind={doc.get('kind')!r}")
        dims = doc["dims"]
        s, ja, jb = dims["states"], dims["pro_joint"], dims["ant_joint"]
        transitions = np.asarray(doc["P"], dtype=np.float64).reshape(s, ja, jb, s)
        rewards = np.asarray(doc["R"], dtype=np.float64).reshape(s, ja, jb)
        return cls(
            transitions,
            rewards,
            doc["pro_action_counts"],
            doc["ant_action_counts"],
            doc["gamma"],
            horizon=doc.get("horizon"),
            r_max=doc.get("r_max"),
            initial_state=doc.get("initial_state"),
            name=doc.get("name", "tabular"),
        )


def _one_hot_successors(transitions: np.ndarray) -> np.ndarray | None:
    """The successor of every row when each row of P holds exactly one 1.0
    and +0.0 everywhere else, so the dense tensor rebuilds bit for bit;
    None otherwise."""
    ones = transitions == 1.0
    per_row = ones.sum(axis=3)
    if not np.all(per_row == 1) or np.count_nonzero(transitions.view(np.uint64)) != per_row.size:
        return None
    return ones.argmax(axis=3).astype(np.int64)


def default_horizon(gamma: float, tail: float = 1e-3) -> int:
    """Smallest H with gamma**H <= tail (1 for the undiscounted case)."""
    if gamma <= 0.0:
        return 1
    return max(1, int(np.ceil(np.log(tail) / np.log(gamma))))


def _check_joint_guard(pro_counts, ant_counts):
    pairs = joint_count(pro_counts) * joint_count(ant_counts)
    if pairs > JOINT_ACTION_GUARD:
        raise ValueError(
            f"joint action count {pairs} exceeds the enumeration guard {JOINT_ACTION_GUARD}"
        )


def _random_game_setup(seed: int, n_states: int, n: int, m: int, actions_per_agent: int):
    """Checked action counts of a seeded random game, its rng before any
    draw, and the joint action counts: (pro_counts, ant_counts, rng, ja, jb)."""
    if n_states < 1 or n < 1 or m < 1 or actions_per_agent < 1:
        raise ValueError("state and agent counts must be at least 1")
    pro_counts = (actions_per_agent,) * n
    ant_counts = (actions_per_agent,) * m
    _check_joint_guard(pro_counts, ant_counts)
    rng = np.random.default_rng(seed)
    return pro_counts, ant_counts, rng, joint_count(pro_counts), joint_count(ant_counts)


def random_tabular_game(
    seed: int,
    n_states: int,
    n: int,
    m: int,
    actions_per_agent: int,
    gamma: float,
    horizon: int | None = None,
) -> TabularGame:
    """Seeded random game: normalized uniform(0,1] transition rows, rewards
    uniform in [-1, 1], fully observable."""
    pro_counts, ant_counts, rng, ja, jb = _random_game_setup(seed, n_states, n, m, actions_per_agent)
    raw = rng.random((n_states, ja, jb, n_states))
    np.subtract(1.0, raw, out=raw)  # draws in (0, 1]
    raw /= raw.sum(axis=3, keepdims=True)
    rewards = rng.uniform(-1.0, 1.0, size=(n_states, ja, jb))
    return TabularGame(
        raw,
        rewards,
        pro_counts,
        ant_counts,
        gamma,
        horizon=horizon,
        r_max=1.0,
        name=f"random-{seed}",
    )


def random_deterministic_game(
    seed: int,
    n_states: int,
    n: int,
    m: int,
    actions_per_agent: int,
    gamma: float,
    horizon: int | None = None,
    initial_state: int | None = None,
) -> TabularGame:
    """Like random_tabular_game but every (s, a, b) jumps to one fixed state."""
    pro_counts, ant_counts, rng, ja, jb = _random_game_setup(seed, n_states, n, m, actions_per_agent)
    successors = rng.integers(n_states, size=(n_states, ja, jb))
    rewards = rng.uniform(-1.0, 1.0, size=(n_states, ja, jb))
    return TabularGame(
        successors,
        rewards,
        pro_counts,
        ant_counts,
        gamma,
        horizon=horizon,
        r_max=1.0,
        initial_state=initial_state,
        name=f"random-det-{seed}",
    )


def random_saddle_game(
    seed: int,
    n_states: int,
    n: int,
    m: int,
    actions_per_agent: int,
    gamma: float,
    horizon: int | None = None,
    initial_state: int | None = None,
    min_margin: float = 0.0,
) -> TabularGame:
    """Deterministic-transition game whose minimax fixed point has a pure
    saddle in every state, by construction.

    Per-state joint payoff matrices are rejection-sampled until each has a
    pure saddle (with at least `min_margin` separation from the runner-up
    row-max and column-min); random deterministic successors are drawn, and
    rewards are backed out as R = M - gamma * V[next] so the sampled
    matrices are exactly the fixed point. Deviations from the saddle stay
    meaningful because the whole matrix, not just the saddle cell, is pinned.
    """
    pro_counts, ant_counts, rng, ja, jb = _random_game_setup(seed, n_states, n, m, actions_per_agent)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    scale = 1.0 / (1.0 + gamma)
    matrices = np.zeros((n_states, ja, jb))
    values = np.zeros(n_states)
    for s in range(n_states):
        while True:
            candidate = rng.uniform(-scale, scale, size=(ja, jb))
            col_max = candidate.max(axis=0)
            row_min = candidate.min(axis=1)
            minmax = col_max.min()
            maxmin = row_min.max()
            if minmax != maxmin:
                continue
            if min_margin > 0.0 and ja > 1 and jb > 1:
                if np.partition(col_max, 1)[1] - minmax < min_margin:
                    continue
                if maxmin - np.partition(row_min, -2)[-2] < min_margin:
                    continue
            matrices[s] = candidate
            values[s] = minmax
            break
    successors = rng.integers(n_states, size=(n_states, ja, jb))
    rewards = matrices - gamma * values[successors]
    return TabularGame(
        successors,
        rewards,
        pro_counts,
        ant_counts,
        gamma,
        horizon=horizon,
        r_max=1.0,
        initial_state=initial_state,
        name=f"saddle-{seed}",
    )


def matrix_team_game(payoff_tensor, n: int, m: int) -> TabularGame:
    """Single-state one-shot game; the tensor's first n axes index Pro agent
    actions and the last m axes index Ant agent actions."""
    payoff = np.asarray(payoff_tensor, dtype=np.float64)
    if payoff.ndim != n + m:
        raise ValueError(f"payoff tensor has {payoff.ndim} axes, expected {n + m}")
    pro_counts = payoff.shape[:n]
    ant_counts = payoff.shape[n:]
    _check_joint_guard(pro_counts, ant_counts)
    ja, jb = joint_count(pro_counts), joint_count(ant_counts)
    rewards = payoff.reshape(1, ja, jb)
    transitions = np.ones((1, ja, jb, 1))
    return TabularGame(
        transitions,
        rewards,
        pro_counts,
        ant_counts,
        gamma=0.0,
        horizon=1,
        initial_state=0,
        name="matrix",
    )


# ---------------------------------------------------------------------------
# grid keep-away


#: action index -> (row delta, col delta); 0 stay, 1 up, 2 down, 3 left, 4 right
GRID_MOVES = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class GridConfig:
    side: int = 5
    horizon: int = 30
    view_radius: int | None = None

    def validate(self):
        if not 3 <= self.side <= 7:
            raise ValueError("grid side must lie in [3, 7]")
        if not 1 <= self.horizon <= 50:
            raise ValueError("grid horizon must lie in [1, 50]")
        if self.view_radius is not None and self.view_radius < 1:
            raise ValueError("view radius must be at least 1 when set")


class GridKeepawayGame(TwoTeamGame):
    """Two Pro agents and two Ant agents contest a fixed target cell.

    All four agents move simultaneously with five actions each (stay, up,
    down, left, right). Moves off the grid bounce. Two agents attempting to
    swap cells both bounce, and when several agents want the same cell a
    sitting agent keeps it, otherwise the lowest global index (Pro agents
    before Ant agents) wins; every loser stays put. The step reward is +1
    when a Pro agent sits on the target, -1 when an Ant agent does, else 0
    (at most one agent can occupy the target after resolution).

    The state is the 4-tuple of agent positions; the target cell is a fixed
    attribute. Observations list own position, teammate position, both
    opponents' positions, and the target offset, all normalized; with a view
    radius set, other agents beyond Chebyshev range are masked to -1.
    """

    is_tabular = False

    def __init__(self, config: GridConfig = GridConfig()):
        config.validate()
        self.config = config
        self.side = config.side
        self.n = 2
        self.m = 2
        self.pro_action_counts = (5, 5)
        self.ant_action_counts = (5, 5)
        self.gamma = 0.95
        self.horizon = config.horizon
        self.r_max = 1.0
        self.target = (self.side // 2, self.side // 2)

    def start_state(self):
        last = self.side - 1
        return ((0, 0), (0, last), (last, 0), (last, last))

    def sample_initial(self, rng: np.random.Generator):
        return self.start_state()

    def _next_positions(self, s, pro_actions, ant_actions):
        actions = tuple(pro_actions) + tuple(ant_actions)
        desired = []
        for pos, act in zip(s, actions):
            if not 0 <= act < 5:
                raise ValueError(f"action index {act} outside [0, 5)")
            dr, dc = GRID_MOVES[act]
            nxt = (pos[0] + dr, pos[1] + dc)
            if not (0 <= nxt[0] < self.side and 0 <= nxt[1] < self.side):
                nxt = pos
            desired.append(nxt)
        return _resolve_moves(tuple(s), desired)

    def transition_dist(self, s, pro_actions, ant_actions):
        return ((self._next_positions(s, pro_actions, ant_actions),), np.array([1.0]))

    def reward(self, s, pro_actions, ant_actions) -> float:
        nxt = self._next_positions(s, pro_actions, ant_actions)
        r = 0.0
        for k, pos in enumerate(nxt):
            if pos == self.target:
                r += 1.0 if k < self.n else -1.0
        return float(np.clip(r, -1.0, 1.0))

    def observe_pro(self, s, i):
        return self._observe(s, i)

    def observe_ant(self, s, j):
        return self._observe(s, self.n + j)

    def _observe(self, s, k):
        own = s[k]
        mate = s[k ^ 1] if k < self.n else s[self.n + ((k - self.n) ^ 1)]
        opponents = s[self.n :] if k < self.n else s[: self.n]
        scale = max(self.side - 1, 1)
        parts = [own[0] / scale, own[1] / scale]
        for other in (mate, *opponents):
            if self._visible(own, other):
                parts.extend((other[0] / scale, other[1] / scale))
            else:
                parts.extend((-1.0, -1.0))
        parts.extend(((self.target[0] - own[0]) / scale, (self.target[1] - own[1]) / scale))
        return tuple(parts)

    def _visible(self, own, other) -> bool:
        radius = self.config.view_radius
        if radius is None:
            return True
        return max(abs(own[0] - other[0]), abs(own[1] - other[1])) <= radius

    def pro_obs_vector(self, i, obs) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64)

    def ant_obs_vector(self, j, obs) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64)

    def state_vector(self, s) -> np.ndarray:
        scale = max(self.side - 1, 1)
        flat = [coord / scale for pos in s for coord in pos]
        flat.extend((self.target[0] / scale, self.target[1] / scale))
        return np.asarray(flat, dtype=np.float64)

    @property
    def state_dim(self) -> int:
        return 2 * (self.n + self.m) + 2


def grid_keepaway_game(config: GridConfig = GridConfig()) -> GridKeepawayGame:
    return GridKeepawayGame(config)


def _resolve_moves(positions, desired):
    want = list(desired)
    changed = True
    while changed:
        changed = False
        count = len(want)
        # swap-through is forbidden: both parties bounce
        for i in range(count):
            for j in range(i + 1, count):
                if (
                    positions[i] != positions[j]
                    and want[i] == positions[j]
                    and want[j] == positions[i]
                ):
                    if want[i] != positions[i]:
                        want[i] = positions[i]
                        changed = True
                    if want[j] != positions[j]:
                        want[j] = positions[j]
                        changed = True
        # contested cells: sitter first, then lowest global index
        claims = {}
        for i, cell in enumerate(want):
            claims.setdefault(cell, []).append(i)
        for cell, idxs in claims.items():
            if len(idxs) < 2:
                continue
            sitters = [i for i in idxs if positions[i] == cell]
            winner = sitters[0] if sitters else min(idxs)
            for i in idxs:
                if i != winner and want[i] != positions[i]:
                    want[i] = positions[i]
                    changed = True
    return tuple(want)


# ---------------------------------------------------------------------------
# episode mechanics


def initial_augmented(game: TwoTeamGame, s, window: int = 1) -> AugmentedState:
    pro = tuple(
        tuple((game.observe_pro(s, i), -1) for _ in range(window)) for i in range(game.n)
    )
    ant = tuple(
        tuple((game.observe_ant(s, j), -1) for _ in range(window)) for j in range(game.m)
    )
    return AugmentedState(pro, ant, s)


def step(
    game: TwoTeamGame,
    s_aug: AugmentedState,
    action: JointAction,
    rng: np.random.Generator,
    t: int = 0,
) -> EpisodeStep:
    """Advance one step: sample the successor, pay the reward, roll windows.

    `t` is the zero-based step index inside the episode and fixes the done
    flag at the horizon.
    """
    s = s_aug.state
    states, probs = game.transition_dist(s, action.pro, action.ant)
    if len(states) == 1:
        s_next = states[0]
    else:
        s_next = states[int(rng.choice(len(states), p=probs))]
    r = game.reward(s, action.pro, action.ant)
    window = s_aug.window
    pro = tuple(
        s_aug.pro_histories[i][1:] + ((game.observe_pro(s_next, i), action.pro[i]),)
        if window > 1
        else ((game.observe_pro(s_next, i), action.pro[i]),)
        for i in range(game.n)
    )
    ant = tuple(
        s_aug.ant_histories[j][1:] + ((game.observe_ant(s_next, j), action.ant[j]),)
        if window > 1
        else ((game.observe_ant(s_next, j), action.ant[j]),)
        for j in range(game.m)
    )
    next_aug = AugmentedState(pro, ant, s_next)
    done = (t + 1 >= game.horizon) or game.is_terminal(s_next)
    return EpisodeStep(s_aug, action, r, next_aug, done)


def rollout(game: TwoTeamGame, act, rng: np.random.Generator, window: int = 1):
    """Play one episode and yield each EpisodeStep until done.

    The initial state and every successor are sampled from `rng`.
    `act(aug_state) -> JointAction` chooses each joint action and makes any
    random draws of its own, so every caller keeps its own draw order.
    """
    aug = initial_augmented(game, game.sample_initial(rng), window)
    t = 0
    while True:
        ep_step = step(game, aug, act(aug), rng=rng, t=t)
        yield ep_step
        if ep_step.done:
            return
        aug = ep_step.next_state
        t += 1


# ---------------------------------------------------------------------------
# policies over tabular states and scripted bots


@dataclass(frozen=True)
class TablePolicyPair:
    """Deterministic per-state actions for both teams of a tabular game."""

    pro: np.ndarray  # (n, S) action indices
    ant: np.ndarray  # (m, S)

    def pro_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        return tuple(int(row[s_aug.state]) for row in self.pro)

    def ant_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        return tuple(int(row[s_aug.state]) for row in self.ant)

    def state_tables(self, game: TwoTeamGame):
        return np.array(self.pro), np.array(self.ant)

    def to_document(self) -> dict:
        return {
            "kind": "state_tables",
            "pro": [[int(a) for a in row] for row in self.pro],
            "ant": [[int(a) for a in row] for row in self.ant],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "TablePolicyPair":
        return cls(np.asarray(doc["pro"], dtype=np.int64), np.asarray(doc["ant"], dtype=np.int64))

    @classmethod
    def from_joint(cls, game: TabularGame, pro_joint, ant_joint) -> "TablePolicyPair":
        """Per-agent tables from one joint action index per state and team."""
        pro = np.array([game.decode_pro(int(j)) for j in pro_joint]).T
        ant = np.array([game.decode_ant(int(j)) for j in ant_joint]).T
        return cls(pro, ant)


def state_tables_of(game: TabularGame, profile):
    """(pro, ant) action tables, (n, S) and (m, S), of a policy pair whose
    `profile(aug) -> (pro_actions, ant_actions)` is read once per state at
    window 1."""
    pro = np.zeros((game.n, game.n_states), dtype=np.int64)
    ant = np.zeros((game.m, game.n_states), dtype=np.int64)
    for s in range(game.n_states):
        pro[:, s], ant[:, s] = profile(initial_augmented(game, s, 1))
    return pro, ant


class GridBotPair:
    """Scripted target-seeking policy for the grid game.

    Each agent walks toward the target cell, preferring the axis with the
    larger remaining gap and breaking ties horizontal-first; an agent already
    on the target stays.
    """

    def __init__(self, game: GridKeepawayGame):
        self.game = game

    def _move_toward(self, pos) -> int:
        tr, tc = self.game.target
        dr, dc = tr - pos[0], tc - pos[1]
        if dr == 0 and dc == 0:
            return 0
        if abs(dc) >= abs(dr) and dc != 0:
            return 4 if dc > 0 else 3
        return 2 if dr > 0 else 1

    def pro_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        s = s_aug.state
        return tuple(self._move_toward(s[i]) for i in range(self.game.n))

    def ant_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        s = s_aug.state
        return tuple(self._move_toward(s[self.game.n + j]) for j in range(self.game.m))


def myopic_bot_pair(game: TabularGame) -> TablePolicyPair:
    """Scripted bot for tabular games: each team picks the joint action that
    is best in immediate reward against a uniformly random opponent."""
    mean_over_ant = game.R.mean(axis=2)  # (S, JA)
    mean_over_pro = game.R.mean(axis=1)  # (S, JB)
    return TablePolicyPair.from_joint(game, np.argmax(mean_over_ant, axis=1), np.argmin(mean_over_pro, axis=1))


def scripted_bot_pair(game: TwoTeamGame):
    """The per-game deterministic bot used by the vs-bot evaluation mode."""
    if isinstance(game, GridKeepawayGame):
        return GridBotPair(game)
    if isinstance(game, TabularGame):
        return myopic_bot_pair(game)
    raise ValueError(f"no scripted bot for game type {type(game).__name__}")


# ---------------------------------------------------------------------------
# game documents


def game_to_document(game: TwoTeamGame) -> dict:
    if isinstance(game, TabularGame):
        return game.to_document()
    if isinstance(game, GridKeepawayGame):
        return {
            "version": GAME_DOC_VERSION,
            "kind": "grid",
            "side": game.config.side,
            "horizon": game.config.horizon,
            "view_radius": game.config.view_radius,
        }
    raise ValueError(f"cannot serialize game type {type(game).__name__}")


def game_from_document(doc: dict) -> TwoTeamGame:
    kind = doc.get("kind")
    if kind == "tabular":
        return TabularGame.from_document(doc)
    if kind == "grid":
        return GridKeepawayGame(
            GridConfig(
                side=doc["side"],
                horizon=doc["horizon"],
                view_radius=doc.get("view_radius"),
            )
        )
    raise ValueError(f"unknown game document kind {kind!r}")


def load_game(path) -> TwoTeamGame:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_document(json.load(fh))


def save_game(game: TwoTeamGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_document(game), fh)
