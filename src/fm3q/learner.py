"""Factorized multi-agent minimax Q-learning.

The model keeps one utility network (or table) per agent plus a monotone,
state-conditioned mixer that aggregates Protagonist values and negated
Antagonist values into a joint minimax Q value. Monotone mixing ties the
joint argmin-max to the per-agent argmaxes, so decentralized greedy play
realizes the joint minimax selection and temporal-difference targets can be
computed from individual argmaxes instead of enumerating joint actions.

Two backends share the operation surface:

* ``neural``: dense utility nets mixed by a hypernetwork whose weights are
  made nonnegative through an elementwise absolute value; trained online by
  stochastic gradient descent on the squared TD error.
* ``tabular``: explicit per-agent tables with an exact summation mixer, plus
  the closed-form empirical operator used for theory-level tests (the full
  joint table assigned to expected TD targets and indicator individual
  tables at the empirical argmin-max profile).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import numerics as nm
from .games import (
    JOINT_ACTION_GUARD,
    AugmentedState,
    EpisodeStep,
    JointAction,
    TwoTeamGame,
    TabularGame,
    initial_augmented,
    rollout,
    state_tables_of,
)
from .seeding import derive_rng

IGMM_VALUE_TOL = 1e-9


class CoverageError(ValueError):
    """The dataset misses some (state, joint action) cells."""

    def __init__(self, missing, coverage):
        preview = ", ".join(str(t) for t in missing[:10])
        more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        super().__init__(f"dataset does not cover {len(missing)} cells: {preview}{more}")
        self.missing = missing
        self.coverage = coverage


# ---------------------------------------------------------------------------
# observation encoding


def encode_history(game: TwoTeamGame, team: str, idx: int, history) -> np.ndarray:
    """Flatten one agent's observation-action window into a feature vector.

    With the default window of one this is exactly the current observation's
    encoding; longer windows append a one-hot of the action taken before
    each observation (slot 0 marks the episode start).
    """
    if team == "pro":
        obs_vec = lambda o: game.pro_obs_vector(idx, o)
        count = game.pro_action_counts[idx]
    else:
        obs_vec = lambda o: game.ant_obs_vector(idx, o)
        count = game.ant_action_counts[idx]
    if len(history) == 1:
        return obs_vec(history[0][0])
    parts = []
    for obs, prev_action in history:
        parts.append(obs_vec(obs))
        onehot = np.zeros(count + 1)
        onehot[prev_action + 1] = 1.0
        parts.append(onehot)
    return np.concatenate(parts)


def history_feature_dim(game: TwoTeamGame, team: str, idx: int, window: int) -> int:
    if team == "pro":
        base = game.pro_obs_vector(idx, game.observe_pro(_probe_state(game), idx)).size
        count = game.pro_action_counts[idx]
    else:
        base = game.ant_obs_vector(idx, game.observe_ant(_probe_state(game), idx)).size
        count = game.ant_action_counts[idx]
    if window == 1:
        return base
    return window * (base + count + 1)


def _probe_state(game: TwoTeamGame):
    return game.sample_initial(np.random.default_rng(0))


@dataclass(frozen=True)
class StepRecord:
    """One transition with all features pre-encoded for batched training."""

    pro_obs: tuple
    ant_obs: tuple
    state_vec: np.ndarray
    pro_actions: tuple[int, ...]
    ant_actions: tuple[int, ...]
    reward: float
    next_pro_obs: tuple
    next_ant_obs: tuple
    next_state_vec: np.ndarray
    done: bool
    state_index: int | None = None
    next_state_index: int | None = None


def encode_step(game: TwoTeamGame, ep: EpisodeStep) -> StepRecord:
    cur, nxt = ep.state, ep.next_state
    tab = getattr(game, "is_tabular", False)
    return StepRecord(
        pro_obs=tuple(encode_history(game, "pro", i, cur.pro_histories[i]) for i in range(game.n)),
        ant_obs=tuple(encode_history(game, "ant", j, cur.ant_histories[j]) for j in range(game.m)),
        state_vec=game.state_vector(cur.state),
        pro_actions=ep.action.pro,
        ant_actions=ep.action.ant,
        reward=ep.reward,
        next_pro_obs=tuple(encode_history(game, "pro", i, nxt.pro_histories[i]) for i in range(game.n)),
        next_ant_obs=tuple(encode_history(game, "ant", j, nxt.ant_histories[j]) for j in range(game.m)),
        next_state_vec=game.state_vector(nxt.state),
        done=ep.done,
        state_index=cur.state if tab else None,
        next_state_index=nxt.state if tab else None,
    )


# ---------------------------------------------------------------------------
# replay buffer and coordinator


def _field_kind(value) -> str:
    """How one record field is stored: a tuple of per-agent arrays gets one
    column per agent, anything else one column of its own shape."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return "arrays" if isinstance(value[0], np.ndarray) else "tuple"
    return "array" if isinstance(value, np.ndarray) else "scalar"


class Batch(Sequence):
    """Rows gathered from a replay buffer, one array per record field.

    Attribute access gives the columns, rows first: ``batch.state_vec`` is
    (B, state_dim), ``batch.pro_obs`` a tuple of per-agent (B, d_i) arrays,
    ``batch.reward`` (B,), and a field that was None in every record gives
    None. As a sequence it yields light row views that answer to the same
    attribute names with one record's values.
    """

    def __init__(self, kinds: dict, columns: dict, rows: int):
        self._kinds = kinds
        self._columns = columns
        self._rows = rows

    def __getattr__(self, name):
        try:
            return self.__dict__["_columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, k) -> _Row:
        if not -self._rows <= k < self._rows:
            raise IndexError("batch row out of range")
        return _Row(self, k % self._rows)

    def __iter__(self):
        return (_Row(self, k) for k in range(self._rows))


class _Row:
    """One row of a `Batch`, read through the record's attribute names."""

    __slots__ = ("_batch", "_k")

    def __init__(self, batch: Batch, k: int):
        self._batch = batch
        self._k = k

    def __getattr__(self, name):
        kind = self._batch._kinds.get(name)
        if kind is None:
            raise AttributeError(name)
        col, k = self._batch._columns[name], self._k
        if kind == "none":
            return None
        if kind == "arrays":
            return tuple(c[k] for c in col)
        if kind == "tuple":
            return tuple(col[k].tolist())
        return col[k] if kind == "array" else col[k].item()


def _empty_column(value) -> np.ndarray:
    value = np.asarray(value)
    return np.empty((1, *value.shape), dtype=value.dtype)


def as_batch(records) -> Batch:
    """A `Batch` unchanged, or a nonempty sequence of records gathered
    through a full buffer, so every consumer reads columns."""
    if isinstance(records, Batch):
        return records
    if not records:
        raise ValueError("a batch needs at least one record")
    buffer = ReplayBuffer("full")
    for record in records:
        buffer.add(record)
    return buffer.take(np.arange(len(buffer)))


class ReplayBuffer:
    """Ordered, columnar experience store.

    `add` writes each field of a record (a frozen dataclass such as
    `StepRecord` whose fields are arrays, numbers, tuples of numbers, tuples
    of per-agent arrays or None) into one preallocated array per field.
    Full mode never evicts and doubles its arrays as it grows; bounded modes
    grow the same way up to `capacity` rows and then overwrite the oldest
    row, so they are a ring. `take(indices)` gathers every column at
    logical positions (0 is the oldest row held) and returns a `Batch`.
    """

    MODES = ("small", "large", "full")

    def __init__(self, mode: str = "full", capacity: int | None = None):
        if mode not in self.MODES:
            raise ValueError(f"unknown buffer mode {mode!r}")
        if mode != "full":
            if capacity is None or capacity < 1:
                raise ValueError("bounded buffer modes need a positive capacity")
        self.mode = mode
        self.capacity = None if mode == "full" else int(capacity)
        self._kinds: dict[str, str] = {}
        self._columns: dict = {}  # field name -> array, tuple of arrays, or None
        self._allocated = 0
        self._size = 0
        self._oldest = 0  # physical row of logical row 0; moves once the ring is full

    def add(self, record) -> None:
        if not self._kinds:
            self._allocate(record)
        elif self._size == self._allocated and self._size != self.capacity:
            self._grow()
        if self._size < self._allocated:
            row = self._size
            self._size += 1
        else:
            row = self._oldest
            self._oldest = (row + 1) % self._size
        for name, kind in self._kinds.items():
            value = getattr(record, name)
            if kind == "arrays":
                for col, part in zip(self._columns[name], value):
                    col[row] = part
            elif kind != "none":
                self._columns[name][row] = value
            elif value is not None:
                raise ValueError(f"record field {name!r} was None in earlier records")

    def _allocate(self, record) -> None:
        """One-row columns shaped and typed after the first record."""
        for f in fields(record):
            value = getattr(record, f.name)
            kind = self._kinds[f.name] = _field_kind(value)
            if kind == "arrays":
                self._columns[f.name] = tuple(_empty_column(part) for part in value)
            else:
                self._columns[f.name] = None if kind == "none" else _empty_column(value)
        self._allocated = 1

    def _grow(self) -> None:
        """Double the rows (up to `capacity`); only runs before the ring wraps."""
        rows = 2 * self._allocated
        if self.capacity is not None:
            rows = min(rows, self.capacity)

        def resized(col):
            new = np.empty((rows, *col.shape[1:]), dtype=col.dtype)
            new[: self._size] = col
            return new

        for name, col in self._columns.items():
            if isinstance(col, tuple):
                self._columns[name] = tuple(resized(c) for c in col)
            elif col is not None:
                self._columns[name] = resized(col)
        self._allocated = rows

    def take(self, indices) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        # rows past the size are allocated but unwritten
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise IndexError(f"replay rows must lie in [0, {self._size})")
        if self._oldest:
            idx = (idx + self._oldest) % self._size
        columns = {}
        for name, kind in self._kinds.items():
            col = self._columns[name]
            if kind == "arrays":
                columns[name] = tuple(c.take(idx, axis=0) for c in col)
            else:
                columns[name] = None if kind == "none" else col.take(idx, axis=0)
        return Batch(self._kinds, columns, idx.size)

    def __len__(self) -> int:
        return self._size


@dataclass(frozen=True)
class RoundRecord:
    episode: int
    buffer_size: int
    batch_size: int
    update_steps: int


class Coordinator:
    """Ties the batch size to the buffer (B = max(1, L // U)) and marks the
    target refresh after each round of U optimizer steps."""

    def __init__(self, updates_per_round: int):
        if updates_per_round < 1:
            raise ValueError("updates per round must be at least 1")
        self.updates_per_round = int(updates_per_round)
        self.rounds: list[RoundRecord] = []

    def batch_size(self, buffer_size: int) -> int:
        return max(1, buffer_size // self.updates_per_round)

    def record(self, episode: int, buffer_size: int, batch_size: int, update_steps: int) -> None:
        self.rounds.append(RoundRecord(episode, buffer_size, batch_size, update_steps))


def round_batches(rng: np.random.Generator, buffer_size: int, updates: int, batch_size: int):
    """Index sets for one round: an even partition of the buffer when the
    sizes divide exactly, otherwise uniform sampling with replacement."""
    if buffer_size >= updates and buffer_size % updates == 0:
        perm = rng.permutation(buffer_size)
        return [perm[k * batch_size : (k + 1) * batch_size] for k in range(updates)]
    return [rng.integers(buffer_size, size=batch_size) for _ in range(updates)]


# ---------------------------------------------------------------------------
# the factorized model, neural backend


@dataclass(frozen=True)
class MixerSpec:
    """State-conditioned monotone mixer configuration.

    Hypernetworks map the global state to the mixing weights and biases; the
    weights pass through an elementwise absolute value so the mixer is
    non-decreasing in every input. `weight_transform="identity"` disables
    that constraint and exists only so tests can construct counterexamples.
    """

    state_dim: int
    n_inputs: int
    hidden_dim: int = 32
    hidden_activation: str = "elu"
    weight_transform: str = "abs"

    def __post_init__(self):
        if self.weight_transform not in ("abs", "identity"):
            raise ValueError("weight_transform must be 'abs' or 'identity'")


class NeuralFactorizedQ:
    """Per-agent dense utility nets plus the hypernetwork mixer.

    All parameters live in one flat vector (`params`); target copies are
    plain array snapshots wrapped with `with_params`.
    """

    backend = "neural"

    def __init__(self, game, pro_nets, ant_nets, mixer: MixerSpec, hyper_nets, layout, params, window=1):
        self.game = game
        self.pro_nets = pro_nets
        self.ant_nets = ant_nets
        self.mixer = mixer
        self.hyper_nets = hyper_nets
        self.layout = layout
        self.params = params
        self.window = window

    def with_params(self, params: np.ndarray) -> "NeuralFactorizedQ":
        return NeuralFactorizedQ(
            self.game, self.pro_nets, self.ant_nets, self.mixer, self.hyper_nets,
            self.layout, params, self.window,
        )

    # inference path -----------------------------------------------------------

    def pro_values(self, i: int, obs_mat: np.ndarray, params=None) -> np.ndarray:
        return self.pro_nets[i].forward(self.layout, self.params if params is None else params, obs_mat)

    def ant_values(self, j: int, obs_mat: np.ndarray, params=None) -> np.ndarray:
        return self.ant_nets[j].forward(self.layout, self.params if params is None else params, obs_mat)

    def mix_values(self, state_mat: np.ndarray, q_in: np.ndarray, params=None) -> np.ndarray:
        """Mixer output for pre-negated inputs q_in (B, n+m)."""
        params = self.params if params is None else params
        hyper = {key: net.forward(self.layout, params, state_mat) for key, net in self.hyper_nets.items()}
        return self._mix(q_in, hyper)[0]

    def q_tot_values(self, state_mat, pro_chosen, ant_chosen, params=None) -> np.ndarray:
        """Joint value for chosen per-agent values; Ant values get negated."""
        q_in = np.concatenate([pro_chosen, -np.asarray(ant_chosen, dtype=np.float64)], axis=1)
        return self.mix_values(state_mat, q_in, params)

    def _mix(self, q_in: np.ndarray, hyper: dict):
        """The mixer on given hypernetwork outputs: the joint value (B,) and
        the intermediates its reverse pass reads."""
        spec = self.mixer
        w1, w2 = hyper["w1"], hyper["w2"]
        if spec.weight_transform == "abs":
            w1, w2 = np.abs(w1), np.abs(w2)
        w1 = w1.reshape(q_in.shape[0], spec.n_inputs, spec.hidden_dim)
        pre = np.einsum("bk,bkh->bh", q_in, w1) + hyper["b1"]
        hidden = nm._act_forward(spec.hidden_activation, pre)
        return (hidden * w2).sum(axis=1) + hyper["b2"][:, 0], (w1, w2, pre, hidden)

    # training path ------------------------------------------------------------

    # benchmarks/tracing.py wraps this method by name (vars(cls)["q_tot_tape"]),
    # so it keeps the name of the autodiff tape this path replaced.
    def q_tot_tape(self, state_mat, pro_obs, ant_obs, pro_act, ant_act):
        """Joint value (B,) of the taken actions for one batch, plus
        `grad_of(upstream)`, which maps the gradient of that value to the
        flat gradient of every training parameter."""
        layout, params, spec = self.layout, self.params, self.mixer
        batch = state_mat.shape[0]
        utility = [(net, obs, act, False) for net, obs, act in zip(self.pro_nets, pro_obs, np.transpose(pro_act))]
        utility += [(net, obs, act, True) for net, obs, act in zip(self.ant_nets, ant_obs, np.transpose(ant_act))]
        caches, chosen = [], []
        for net, obs, act, negate in utility:
            out, layers = net.forward_cache(layout, params, obs)
            caches.append(layers)
            picked = out[np.arange(batch), act].reshape(-1, 1)
            chosen.append(-picked if negate else picked)
        q_in = np.concatenate(chosen, axis=1)
        hyper = {key: net.forward_cache(layout, params, state_mat) for key, net in self.hyper_nets.items()}
        raw = {key: out for key, (out, _) in hyper.items()}
        value, (w1, w2, pre, hidden) = self._mix(q_in, raw)

        def grad_of(upstream):
            grads = layout.zeros()
            g_b2 = nm.pick_cols_grad(upstream, np.zeros(batch, dtype=np.int64), 1)
            g_prod = np.repeat(upstream[:, None], spec.hidden_dim, axis=1)
            g_pre, g_w2 = g_prod * w2, g_prod * hidden
            if spec.hidden_activation != "identity":
                g_pre = g_pre * nm._act_derivative(spec.hidden_activation, pre)
            g_q_in = np.einsum("bh,bkh->bk", g_pre, w1)
            g_w1 = np.einsum("bk,bh->bkh", q_in, g_pre).reshape(batch, -1)
            if spec.weight_transform == "abs":
                g_w1 = g_w1 * nm._act_derivative("abs", raw["w1"])
                g_w2 = g_w2 * nm._act_derivative("abs", raw["w2"])
            for key, g in (("w1", g_w1), ("b1", g_pre), ("w2", g_w2), ("b2", g_b2)):
                nm.backward(self.hyper_nets[key], layout, params, hyper[key][1], g, grads)
            for k, ((net, _, act, negate), layers) in enumerate(zip(utility, caches)):
                g = g_q_in[:, k : k + 1]
                g = (-g if negate else g).reshape(-1)
                nm.backward(net, layout, params, layers, nm.pick_cols_grad(g, act, net.out_dim), grads)
            return grads

        return value, grad_of

    # convenience --------------------------------------------------------------

    def all_nets(self):
        return list(self.pro_nets) + list(self.ant_nets) + list(self.hyper_nets.values())

    def preactivation_margin(self, state_vec, pro_obs, ant_obs) -> float:
        """Smallest |pre-activation| at any kinked unit for one input set."""
        margin = np.inf
        for i, net in enumerate(self.pro_nets):
            margin = min(margin, net.preactivation_margin(self.layout, self.params, pro_obs[i]))
        for j, net in enumerate(self.ant_nets):
            margin = min(margin, net.preactivation_margin(self.layout, self.params, ant_obs[j]))
        for net in self.hyper_nets.values():
            margin = min(margin, net.preactivation_margin(self.layout, self.params, state_vec))
        # hypernetwork outputs feed the abs transform, another kink site
        if self.mixer.weight_transform == "abs":
            for key in ("w1", "w2"):
                out = self.hyper_nets[key].forward(self.layout, self.params, state_vec)
                margin = min(margin, float(np.min(np.abs(out))))
        return margin


def build_neural_fq(
    game: TwoTeamGame,
    hidden_layers=(64, 64),
    mix_hidden_dim: int = 32,
    seed: int = 0,
    window: int = 1,
    utility_activation: str = "relu",
    mixer_hidden_activation: str = "elu",
    weight_transform: str = "abs",
) -> NeuralFactorizedQ:
    """Seeded construction of the full factorized model for one game."""
    hidden = tuple(int(h) for h in hidden_layers)
    pro_nets = [
        nm.DenseNet(
            f"pro{i}",
            (history_feature_dim(game, "pro", i, window), *hidden, game.pro_action_counts[i]),
            hidden_activation=utility_activation,
        )
        for i in range(game.n)
    ]
    ant_nets = [
        nm.DenseNet(
            f"ant{j}",
            (history_feature_dim(game, "ant", j, window), *hidden, game.ant_action_counts[j]),
            hidden_activation=utility_activation,
        )
        for j in range(game.m)
    ]
    k = game.n + game.m
    ds = game.state_dim
    mixer = MixerSpec(ds, k, mix_hidden_dim, mixer_hidden_activation, weight_transform)
    hyper_nets = {
        "w1": nm.DenseNet("hyper_w1", (ds, k * mix_hidden_dim)),
        "b1": nm.DenseNet("hyper_b1", (ds, mix_hidden_dim)),
        "w2": nm.DenseNet("hyper_w2", (ds, mix_hidden_dim)),
        "b2": nm.DenseNet("hyper_b2", (ds, mix_hidden_dim, 1)),
    }
    nets = pro_nets + ant_nets + list(hyper_nets.values())
    layout = nm.ParamLayout.merge([net.layout() for net in nets])
    params = layout.zeros()
    rng = derive_rng(seed, "init")
    for net in nets:
        net.init_into(layout, params, rng)
    return NeuralFactorizedQ(game, pro_nets, ant_nets, mixer, hyper_nets, layout, params, window)


# ---------------------------------------------------------------------------
# the factorized model, tabular backend


class TabularFactorizedQ:
    """Explicit per-agent tables over (state, action), with either a stored
    joint table (the closed-form operator output) or an exact summation
    mixer (sum of Pro tables minus sum of Ant tables)."""

    backend = "tabular"

    def __init__(self, game: TabularGame, pro_tables, ant_tables, q_tot: np.ndarray | None = None):
        self.game = game
        self.pro_tables = [np.asarray(t, dtype=np.float64) for t in pro_tables]
        self.ant_tables = [np.asarray(t, dtype=np.float64) for t in ant_tables]
        # the joint table keeps the caller's float dtype so theory-level
        # iteration tests can run in extended precision
        self.q_tot = None if q_tot is None else np.asarray(q_tot)
        self.window = 1

    @classmethod
    def zeros(cls, game: TabularGame) -> "TabularFactorizedQ":
        pro = [np.zeros((game.n_states, c)) for c in game.pro_action_counts]
        ant = [np.zeros((game.n_states, c)) for c in game.ant_action_counts]
        return cls(game, pro, ant, q_tot=np.zeros_like(game.R))

    def q_tot_table(self) -> np.ndarray:
        if self.q_tot is not None:
            return self.q_tot
        game = self.game
        ja_actions = np.array([game.decode_pro(j) for j in range(game.pro_joint_count)])
        jb_actions = np.array([game.decode_ant(j) for j in range(game.ant_joint_count)])
        pro_sum = sum(self.pro_tables[i][:, ja_actions[:, i]] for i in range(game.n))
        ant_sum = sum(self.ant_tables[j][:, jb_actions[:, j]] for j in range(game.m))
        return pro_sum[:, :, None] - ant_sum[:, None, :]

    def with_params(self, params):
        raise TypeError("tabular models have no flat parameter vector")


# ---------------------------------------------------------------------------
# shared model operations


def _team_values(fq, s_aug: AugmentedState, team: str) -> list[np.ndarray]:
    """One team's per-agent value vectors at one augmented state; reads only
    that team's tables or nets."""
    if team not in ("pro", "ant"):
        raise ValueError(f"team must be 'pro' or 'ant', got {team!r}")
    if fq.backend == "tabular":
        return [t[s_aug.state] for t in (fq.pro_tables if team == "pro" else fq.ant_tables)]
    values, histories = (
        (fq.pro_values, s_aug.pro_histories) if team == "pro" else (fq.ant_values, s_aug.ant_histories)
    )
    return [values(k, encode_history(fq.game, team, k, h)) for k, h in enumerate(histories)]


def _argmaxes(values) -> tuple[int, ...]:
    return tuple(int(np.argmax(v)) for v in values)


def greedy_team(fq, s_aug: AugmentedState, team: str) -> tuple[int, ...]:
    """One team's per-agent argmax (lowest index wins ties)."""
    return _argmaxes(_team_values(fq, s_aug, team))


def greedy_individual(fq, s_aug: AugmentedState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-agent argmax profile (lowest index wins ties)."""
    return _argmaxes(_team_values(fq, s_aug, "pro")), _argmaxes(_team_values(fq, s_aug, "ant"))


def joint_q_matrix(fq, s_aug: AugmentedState) -> np.ndarray:
    """Q_tot over the whole joint action space at one state, shape (JA, JB)."""
    game = fq.game
    ja, jb = game.pro_joint_count, game.ant_joint_count
    if ja * jb > JOINT_ACTION_GUARD:
        raise ValueError("joint action space exceeds the enumeration guard")
    if fq.backend == "tabular":
        return fq.q_tot_table()[s_aug.state]
    pro_vals, ant_vals = _team_values(fq, s_aug, "pro"), _team_values(fq, s_aug, "ant")
    state_vec = game.state_vector(s_aug.state)
    ja_actions = np.array([game.decode_pro(j) for j in range(ja)])
    jb_actions = np.array([game.decode_ant(j) for j in range(jb)])
    pro_chosen = np.column_stack([pro_vals[i][ja_actions[:, i]] for i in range(game.n)])  # (JA, n)
    ant_chosen = np.column_stack([ant_vals[j][jb_actions[:, j]] for j in range(game.m)])  # (JB, m)
    pro_rep = np.repeat(pro_chosen, jb, axis=0)
    ant_rep = np.tile(ant_chosen, (ja, 1))
    state_mat = np.repeat(state_vec[None, :], ja * jb, axis=0)
    return fq.q_tot_values(state_mat, pro_rep, ant_rep).reshape(ja, jb)


@dataclass(frozen=True)
class MixForward:
    """Joint value of one action profile; neural models can also give the
    gradient of that value with respect to their flat parameters."""

    value: float
    grad_of: Callable | None = None

    def gradients(self) -> np.ndarray:
        if self.grad_of is None:
            raise TypeError("tabular mixing has no parameter gradient")
        return self.grad_of(np.ones(1))


def mix_forward(fq, s_aug: AugmentedState, action: JointAction) -> MixForward:
    """Evaluate Q_tot at one joint action, with its gradient on neural models."""
    game = fq.game
    if fq.backend == "tabular":
        value = fq.q_tot_table()[
            s_aug.state, game.encode_pro(action.pro), game.encode_ant(action.ant)
        ]
        return MixForward(float(value))
    pro_obs = [encode_history(game, "pro", i, s_aug.pro_histories[i])[None, :] for i in range(game.n)]
    ant_obs = [encode_history(game, "ant", j, s_aug.ant_histories[j])[None, :] for j in range(game.m)]
    value, grad_of = fq.q_tot_tape(
        game.state_vector(s_aug.state)[None, :],
        pro_obs,
        ant_obs,
        np.asarray([action.pro], dtype=np.int64),
        np.asarray([action.ant], dtype=np.int64),
    )
    return MixForward(float(value[0]), grad_of)


@dataclass(frozen=True)
class IgmmVerdict:
    """Result of the exhaustive coherence check at one state."""

    consistent: bool
    individual_profile: tuple
    minmax_profile: tuple
    maxmin_profile: tuple
    minmax_value: float
    maxmin_value: float

    def __bool__(self) -> bool:
        return self.consistent


def igmm_check(fq, s_aug: AugmentedState, value_tol: float = IGMM_VALUE_TOL) -> IgmmVerdict:
    """Exhaustively verify that the joint argmin-max, the joint argmax-min,
    and the per-agent argmax profile coincide at one state."""
    game = fq.game
    matrix = joint_q_matrix(fq, s_aug)
    col_max = matrix.max(axis=0)
    b_star = int(np.argmin(col_max))
    a_at_b = int(np.argmax(matrix[:, b_star]))
    minmax_profile = (game.decode_pro(a_at_b), game.decode_ant(b_star))
    minmax_value = float(col_max[b_star])
    row_min = matrix.min(axis=1)
    a_star = int(np.argmax(row_min))
    b_at_a = int(np.argmin(matrix[a_star, :]))
    maxmin_profile = (game.decode_pro(a_star), game.decode_ant(b_at_a))
    maxmin_value = float(row_min[a_star])
    individual = greedy_individual(fq, s_aug)
    consistent = (
        individual == minmax_profile == maxmin_profile
        and abs(minmax_value - maxmin_value) <= value_tol
    )
    return IgmmVerdict(consistent, individual, minmax_profile, maxmin_profile, minmax_value, maxmin_value)


# ---------------------------------------------------------------------------
# TD targets and loss


def _record_value(fq, params, state_vecs, pro_obs_mats, ant_obs_mats) -> np.ndarray:
    """Joint value at the per-agent greedy profile for a batch (fast path)."""
    game = fq.game
    pro_chosen = []
    for i in range(game.n):
        q = fq.pro_values(i, pro_obs_mats[i], params)
        pro_chosen.append(q[np.arange(q.shape[0]), np.argmax(q, axis=1)])
    ant_chosen = []
    for j in range(game.m):
        q = fq.ant_values(j, ant_obs_mats[j], params)
        ant_chosen.append(q[np.arange(q.shape[0]), np.argmax(q, axis=1)])
    return fq.q_tot_values(
        state_vecs, np.column_stack(pro_chosen), np.column_stack(ant_chosen), params
    )


def td_targets_batch(fq_target, records, exhaustive_check: bool = False) -> np.ndarray:
    """One-step TD targets from the target model: r plus the discounted
    minimax value of the successor (zero at terminal steps).

    `records` is a `Batch` or a list of `StepRecord`s. The minimax value
    uses the monotone-mixing shortcut: evaluate Q_tot at the per-agent
    argmax profile of the target utilities. With `exhaustive_check` the
    shortcut is compared against full joint enumeration and any
    disagreement raises.
    """
    batch = as_batch(records)
    gamma = fq_target.game.gamma
    if gamma == 0.0:
        return batch.reward
    if fq_target.backend == "tabular":
        table = fq_target.q_tot_table()
        values = table.max(axis=1).min(axis=1)
        boot = values[batch.next_state_index]
    else:
        boot = _record_value(
            fq_target, fq_target.params, batch.next_state_vec, batch.next_pro_obs, batch.next_ant_obs
        )
    if exhaustive_check and fq_target.backend == "neural":
        _check_shortcut(fq_target, batch, boot)
    return batch.reward + gamma * np.where(batch.done, 0.0, boot)


def _check_shortcut(fq_target, records, shortcut_values):
    for rec, short in zip(records, shortcut_values):
        aug = _aug_from_record(fq_target.game, rec)
        matrix = joint_q_matrix(fq_target, aug)
        exact = float(matrix.max(axis=0).min())
        if abs(exact - short) > 1e-9:
            raise AssertionError(
                f"shortcut minimax {short:.12f} disagrees with enumeration {exact:.12f}"
            )


def _aug_from_record(game, rec: StepRecord) -> AugmentedState:
    if rec.next_state_index is None:
        raise ValueError("exhaustive target check requires tabular state indices")
    return initial_augmented(game, rec.next_state_index, 1)


def td_target(fq_target, record, exhaustive_check: bool = False) -> float:
    """Scalar TD target for one step (r at terminal steps)."""
    if isinstance(record, EpisodeStep):
        record = encode_step(fq_target.game, record)
    return float(td_targets_batch(fq_target, [record], exhaustive_check)[0])


@dataclass(frozen=True)
class LossResult:
    value: float
    grads: np.ndarray
    targets: np.ndarray


def loss(fq: NeuralFactorizedQ, fq_target, batch, exhaustive_check: bool = False) -> LossResult:
    """Mean squared TD error over a batch plus its gradient for the training
    parameters (targets are constants), from one forward pass through
    `q_tot_tape` and its hand-written reverse pass.

    `batch` is a `Batch` from `ReplayBuffer.take` or a list of
    `StepRecord`s, which `as_batch` gathers into one; either way the
    network inputs are the batch's columns.
    """
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    batch = as_batch(batch)
    targets = td_targets_batch(fq_target, batch, exhaustive_check)
    q_tot, grad_of = fq.q_tot_tape(
        batch.state_vec, batch.pro_obs, batch.ant_obs, batch.pro_actions, batch.ant_actions
    )
    value, upstream = nm.mean_squared_error(targets, q_tot)
    if not np.isfinite(value):
        raise nm.GradientError("non-finite loss")
    return LossResult(value, grad_of(upstream), targets)


def select_actions(fq, s_aug: AugmentedState, epsilon: float, rng: np.random.Generator) -> JointAction:
    """Independent per-agent epsilon-greedy selection: the individual argmax
    with probability eps/|A| + 1 - eps, every other action with eps/|A|.
    At epsilon 0 it makes no draws."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    greedy = JointAction(*greedy_individual(fq, s_aug))
    if epsilon == 0.0:
        return greedy
    return epsilon_greedy(fq.game, greedy, epsilon, rng)


def epsilon_greedy(game: TwoTeamGame, greedy: JointAction, epsilon: float, rng: np.random.Generator) -> JointAction:
    """Per agent, Pro team first: one uniform draw, and with probability
    epsilon a second draw that replaces the greedy action."""
    pro = tuple(
        int(rng.integers(c)) if rng.random() < epsilon else g for g, c in zip(greedy.pro, game.pro_action_counts)
    )
    ant = tuple(
        int(rng.integers(c)) if rng.random() < epsilon else g for g, c in zip(greedy.ant, game.ant_action_counts)
    )
    return JointAction(pro, ant)


# ---------------------------------------------------------------------------
# greedy policies


class GreedyPolicyPair:
    """Decentralized per-agent policies induced by the individual argmaxes.
    Each side reads only its own team's nets or tables."""

    def __init__(self, fq):
        self.fq = fq

    @property
    def window(self) -> int:
        return self.fq.window

    def pro_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        return greedy_team(self.fq, s_aug, "pro")

    def ant_actions(self, s_aug: AugmentedState) -> tuple[int, ...]:
        return greedy_team(self.fq, s_aug, "ant")

    def state_tables(self, game: TabularGame):
        """Explicit per-state actions (tabular games, window 1)."""
        if self.window > 1:
            raise ValueError(
                f"a window-{self.window} policy acts on observation histories, not states; "
                "it has no per-state action table"
            )
        return state_tables_of(game, lambda aug: greedy_individual(self.fq, aug))


def extract_policies(fq) -> GreedyPolicyPair:
    """Greedy (epsilon = 0) decentralized policy pair of a trained model."""
    if fq.backend == "neural":
        return GreedyPolicyPair(fq.with_params(fq.params.copy()))
    return GreedyPolicyPair(fq)


# ---------------------------------------------------------------------------
# exact empirical operator (tabular backend)


@dataclass(frozen=True)
class TabularDataset:
    """Flat transition arrays over a tabular game's joint-action space."""

    s: np.ndarray
    ja: np.ndarray
    jb: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray
    # game shape -> (flat cell index, float64 per-cell counts); filled by
    # `cell_plan` only once a plan passes the coverage check, so s, ja and jb
    # must not be written in place after the first sweep
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.s.size

    def cell_plan(self, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Flat (s, ja, jb) cell index of every row and the flat per-cell row
        counts for a game whose `R.shape` is `shape`; raises `CoverageError`
        while any cell has no row."""
        plan = self._plans.get(shape)
        if plan is None:
            cell = np.ravel_multi_index((self.s, self.ja, self.jb), shape)
            counts = np.bincount(cell, minlength=int(np.prod(shape))).astype(np.float64)
            if np.any(counts == 0):
                coverage = counts.reshape(shape)
                missing = [tuple(int(v) for v in idx) for idx in np.argwhere(coverage == 0)]
                raise CoverageError(missing, coverage)
            plan = self._plans[shape] = (cell, counts)
        return plan

    @classmethod
    def full_coverage(cls, game: TabularGame, rng: np.random.Generator | None = None, repeats: int = 1) -> "TabularDataset":
        """One (or more) sampled transitions for every (s, a, b) cell."""
        if rng is None:
            rng = np.random.default_rng(0)
        s_count, ja_count, jb_count = game.R.shape
        cells = s_count * ja_count * jb_count
        s, ja, jb = np.unravel_index(
            np.tile(np.arange(cells), repeats), (s_count, ja_count, jb_count)
        )
        draws = rng.random(s.size)
        if game.successors is None:
            cdf = np.cumsum(game.transition_rows(s, ja, jb), axis=1)
            s_next = (draws[:, None] < cdf).argmax(axis=1)
        else:
            # a one-hot row's inverse-CDF draw always lands on its successor
            s_next = game.successors[s, ja, jb]
        return cls(
            s.astype(np.int64),
            ja.astype(np.int64),
            jb.astype(np.int64),
            game.R[s, ja, jb].astype(np.float64),
            s_next.astype(np.int64),
            np.zeros(s.size, dtype=bool),
        )


def exact_operator_apply(fq: TabularFactorizedQ, dataset: TabularDataset) -> TabularFactorizedQ:
    """Closed-form minimizer of the empirical squared TD error within the
    coherent function class.

    The new joint table holds the expected TD target per (s, a, b) cell; the
    new individual tables are indicators at the empirical argmin-max profile
    of each state, picked for all states in one pass, which keeps the tuple
    coherent by construction. Requires every cell to appear in the dataset
    at least once; the dataset's cell plan (flat cell index and per-cell
    counts) is built and coverage-checked once per game shape.
    """
    if fq.backend != "tabular":
        raise TypeError("the exact operator runs on the tabular backend")
    game = fq.game
    cell, counts = dataset.cell_plan(game.R.shape)
    values = fq.q_tot_table().max(axis=1).min(axis=1)
    targets = dataset.r + np.where(dataset.done, 0.0, (game.gamma * values)[dataset.s_next])
    # np.bincount would sum longdouble targets in float64; dividing in place
    # keeps the zeroed padding bytes of a longdouble table
    sums = np.zeros(game.R.size, dtype=targets.dtype)
    np.add.at(sums, cell, targets)
    q_new = np.divide(sums, counts, out=sums).reshape(game.R.shape)
    states = np.arange(game.n_states)
    b_star = np.argmin(q_new.max(axis=1), axis=1)
    a_star = np.argmax(q_new[states, :, b_star], axis=1)
    indicators = []
    # np.unravel_index is the row-major decode of games.decode_joint
    for joint, team_counts in ((a_star, game.pro_action_counts), (b_star, game.ant_action_counts)):
        tables = [np.zeros((game.n_states, c)) for c in team_counts]
        for table, actions in zip(tables, np.unravel_index(joint, team_counts)):
            table[states, actions] = 1.0
        indicators.append(tables)
    return TabularFactorizedQ(game, *indicators, q_tot=q_new)


# ---------------------------------------------------------------------------
# online training loop


@dataclass
class TrainConfig:
    """Knobs of the online learner; defaults follow the tuned desk-scale
    profile, with the network and optimizer sizes overridable per run."""

    episodes: int
    updates_per_round: int = 10
    buffer_mode: str = "full"
    buffer_capacity: int | None = None
    learning_rate: float = 5e-4
    hidden_layers: tuple = (64, 64)
    mix_hidden_dim: int = 32
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.2
    history_window: int = 1
    seed: int = 0
    checkpoint_every: int | None = None
    eval_every: int | None = None
    stop_eval_below: float | None = None
    exhaustive_target_check: bool = False

    def validate(self):
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        if self.updates_per_round < 1:
            raise ValueError("updates_per_round must be at least 1")
        check_exploration(self)
        if self.history_window < 1:
            raise ValueError("history_window must be at least 1")
        if self.buffer_mode not in ReplayBuffer.MODES:
            raise ValueError(f"unknown buffer mode {self.buffer_mode!r}")
        if self.buffer_mode != "full" and (self.buffer_capacity is None or self.buffer_capacity < 1):
            raise ValueError("bounded buffer modes need a positive buffer_capacity")


class ExplorationError(ValueError):
    """An epsilon schedule that stops exploring; names the offending field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def check_exploration(config) -> None:
    """Refuse an epsilon schedule under which data collection would stop
    being exploratory. Reads the fields `epsilon_at` reads, so every
    trainer's config is checked by this one rule."""
    for name in ("epsilon_start", "epsilon_end"):
        if not 0.0 < getattr(config, name) <= 1.0:
            raise ExplorationError(name, "must lie in (0, 1]: data collection must remain exploratory")
    if config.epsilon_end > config.epsilon_start:
        raise ExplorationError("epsilon_end", "must not exceed epsilon_start")
    if not 0.0 < config.epsilon_decay_fraction <= 1.0:
        raise ExplorationError("epsilon_decay_fraction", "must lie in (0, 1]")


def epsilon_at(config: TrainConfig, episode_index: int) -> float:
    """Linear decay from start to end over the first decay fraction of the
    planned episodes, constant afterwards. Reads only `episodes` and the
    `epsilon_*` fields, so the baselines' configs share this one schedule."""
    decay_span = max(1, int(round(config.epsilon_decay_fraction * config.episodes)))
    frac = min(1.0, episode_index / decay_span)
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


@dataclass
class TrainResult:
    fq: NeuralFactorizedQ
    metrics: list
    rounds: list
    snapshots: list  # (episode, params copy)
    episodes_run: int
    buffer_size: int


#: The columns every trainer writes for each episode; evals add their own.
METRIC_COLUMNS = ("episode", "loss", "epsilon", "buffer_size", "batch_size")


# Private on purpose: the benchmark tracer wraps only public functions, so the
# time spent here stays in the self time of the trainer that calls it
# (`baselines.selfplay_independent_train.self_ms` is a per-layer metric).
def _run_episodes(config, play, eval_fn, snapshot, stop_below=None):
    """The episode schedule every trainer shares.

    Per episode: `play(episode, eps) -> (losses, buffer_size, batch_size)`
    at the `epsilon_at` exploration rate, one `METRIC_COLUMNS` row (loss is
    the mean of `losses`, 0.0 when there are none), `eval_fn(episode) ->
    dict` every `eval_every` episodes with its columns added to the row, and
    `(episode, snapshot())` every `checkpoint_every` episodes and at the
    last episode run. A ``nashconv`` eval at or under `stop_below` ends the
    run after that episode. `eval_fn` or `snapshot` may be None. Returns
    the rows, the snapshots and the number of episodes run.
    """
    metrics: list[dict] = []
    snapshots: list[tuple] = []
    episodes_run = 0
    for episode in range(1, config.episodes + 1):
        eps = epsilon_at(config, episode - 1)
        losses, buffer_size, batch_size = play(episode, eps)
        loss_value = float(np.mean(losses)) if losses else 0.0
        row = dict(zip(METRIC_COLUMNS, (episode, loss_value, eps, buffer_size, batch_size)))
        episodes_run = episode
        evaluated = {}
        if eval_fn is not None and config.eval_every and episode % config.eval_every == 0:
            evaluated = eval_fn(episode)
            row.update(evaluated)
        metrics.append(row)
        stop = stop_below is not None and "nashconv" in evaluated and evaluated["nashconv"] <= stop_below
        last = stop or episode == config.episodes
        if snapshot is not None and config.checkpoint_every and (episode % config.checkpoint_every == 0 or last):
            snapshots.append((episode, snapshot()))
        if stop:
            break
    return metrics, snapshots, episodes_run


def train(game: TwoTeamGame, config: TrainConfig, eval_fn=None) -> TrainResult:
    """Online learning on the shared episode schedule (`_run_episodes`):
    per episode roll out with epsilon-greedy play, store the whole
    trajectory, run one round of U updates with batch size
    B = max(1, L // U), then refresh the target parameters.

    `eval_fn(fq, episode) -> dict` runs at the configured cadence; when it
    reports a value under `stop_eval_below` for the key ``nashconv`` the run
    stops early (the budget is an upper bound, not a quota). `snapshots`
    holds (episode, params copy) at each checkpoint episode and the last.
    """
    config.validate()
    fq = build_neural_fq(
        game,
        hidden_layers=config.hidden_layers,
        mix_hidden_dim=config.mix_hidden_dim,
        seed=config.seed,
        window=config.history_window,
    )
    adam = nm.AdamState.for_size(fq.layout.size)
    buffer = ReplayBuffer(config.buffer_mode, config.buffer_capacity)
    coordinator = Coordinator(config.updates_per_round)
    rollout_rng = derive_rng(config.seed, "rollout")
    batch_rng = derive_rng(config.seed, "batches")

    def play(episode, eps):
        act = lambda aug: select_actions(fq, aug, eps, rollout_rng)
        for ep_step in rollout(game, act, rollout_rng, config.history_window):
            buffer.add(encode_step(game, ep_step))
        size = len(buffer)
        batch_size = coordinator.batch_size(size)
        # frozen for the round: the refresh after the previous round
        target = fq.with_params(fq.params.copy())
        losses = []
        for idx in round_batches(batch_rng, size, config.updates_per_round, batch_size):
            result = loss(fq, target, buffer.take(idx), exhaustive_check=config.exhaustive_target_check)
            fq.params = nm.adam_step(fq.params, result.grads, adam, config.learning_rate)
            losses.append(result.value)
        coordinator.record(episode, size, batch_size, len(losses))
        return losses, size, batch_size

    evaluate = None if eval_fn is None else lambda episode: eval_fn(fq, episode)
    metrics, snapshots, episodes_run = _run_episodes(
        config, play, evaluate, lambda: fq.params.copy(), config.stop_eval_below
    )
    return TrainResult(fq, metrics, coordinator.rounds, snapshots, episodes_run, len(buffer))


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_document(fq: NeuralFactorizedQ, episode: int = 0, method: str = "fm3q", seed: int = 0) -> dict:
    return {
        "version": nm.CHECKPOINT_VERSION,
        "kind": "fm3q_neural",
        "method": method,
        "episode": int(episode),
        "seed": int(seed),
        "topology": {
            "hidden_layers": [s for s in fq.pro_nets[0].sizes[1:-1]],
            "mix_hidden_dim": fq.mixer.hidden_dim,
            "window": fq.window,
            "utility_activation": fq.pro_nets[0].hidden_activation,
            "mixer_hidden_activation": fq.mixer.hidden_activation,
        },
        "params": nm.params_document(fq.layout, fq.params),
    }


def fq_from_checkpoint(game: TwoTeamGame, doc: dict) -> NeuralFactorizedQ:
    if doc.get("kind") != "fm3q_neural":
        raise ValueError(f"not a factorized-model checkpoint: kind={doc.get('kind')!r}")
    topo = doc["topology"]
    fq = build_neural_fq(
        game,
        hidden_layers=tuple(topo["hidden_layers"]),
        mix_hidden_dim=topo["mix_hidden_dim"],
        window=topo.get("window", 1),
        utility_activation=topo.get("utility_activation", "relu"),
        mixer_hidden_activation=topo.get("mixer_hidden_activation", "elu"),
    )
    layout, values = nm.parse_params_document(doc["params"])
    if layout.entries != fq.layout.entries:
        raise ValueError("checkpoint layout does not match the game's model topology")
    fq.params = values
    return fq
