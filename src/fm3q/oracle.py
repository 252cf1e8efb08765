"""Exact brute-force solvers for tabular games.

Ground truth for everything else in the package: the minimax fixed point of
the joint Q function, deterministic best responses against a frozen
opponent, exact policy evaluation, and the NashConv gap. All solvers
enumerate joint actions, so they only apply to tabular games inside the
joint-action guard.

Value ordering is standardized on min over Ant of max over Pro. The
max-min value is computed alongside as a diagnostic; the two coincide
exactly on states with a pure saddle point, and saddle-dependent tests are
restricted to games verified (by enumeration) to have one in every state.
Both min/max selections break ties toward the lowest joint-action index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import JOINT_ACTION_GUARD, TablePolicyPair, TabularGame


class OracleConvergenceError(RuntimeError):
    """Value iteration did not reach the tolerance within max_iters."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class OracleSolution:
    """Fixed point of the minimax Bellman operator plus greedy selections."""

    q_star: np.ndarray  # (S, JA, JB)
    v_star: np.ndarray  # (S,) min over b of max over a
    v_maxmin: np.ndarray  # (S,) diagnostic: max over a of min over b
    pro_policy: np.ndarray  # (S,) joint Pro index, argmax of min over b
    ant_policy: np.ndarray  # (S,) joint Ant index, argmin of max over a
    iterations: int
    residual: float
    residual_history: list

    @property
    def saddle_gap(self) -> np.ndarray:
        return self.v_star - self.v_maxmin

    def has_pure_saddle(self, tol: float = 1e-9) -> bool:
        return bool(np.max(self.saddle_gap) <= tol)

    def policy_pair(self, game: TabularGame) -> TablePolicyPair:
        pro = np.array([game.decode_pro(int(j)) for j in self.pro_policy]).T
        ant = np.array([game.decode_ant(int(j)) for j in self.ant_policy]).T
        return TablePolicyPair(pro, ant)

    def to_document(self) -> dict:
        s, ja, jb = self.q_star.shape
        return {
            "kind": "oracle_solution",
            "dims": {"states": s, "pro_joint": ja, "ant_joint": jb},
            "q_star": [float(v) for v in self.q_star.ravel()],
            "v_star": [float(v) for v in self.v_star],
            "v_maxmin": [float(v) for v in self.v_maxmin],
            "pro_policy": [int(v) for v in self.pro_policy],
            "ant_policy": [int(v) for v in self.ant_policy],
            "iterations": self.iterations,
            "residual": float(self.residual),
        }


@dataclass
class BestResponse:
    """Optimal reply of one team against a frozen opponent policy."""

    team: str  # "pro" or "ant"
    opponent_policy: np.ndarray  # (S,) joint index of the frozen team
    values: np.ndarray  # (S,) value of the induced single-team MDP
    policy: np.ndarray  # (S,) greedy joint action of the responding team
    iterations: int
    residual: float


def minimax_value(q_state: np.ndarray) -> float:
    """min over columns of the column-wise max of one (JA, JB) slice."""
    return float(q_state.max(axis=0).min())


def default_max_iters(gamma: float, tol: float, r_max: float) -> int:
    """Iteration budget from the contraction rate: enough sweeps to push the
    residual below tol starting from Q = 0, plus slack."""
    if gamma <= 0.0:
        return 1
    r_max = max(r_max, tol)
    target = tol * (1.0 - gamma) / r_max
    if target >= 1.0:
        return 10
    return int(np.ceil(np.log(target) / np.log(gamma))) + 10


def _require_tabular(game) -> TabularGame:
    if not getattr(game, "is_tabular", False):
        raise ValueError("exact solvers require a tabular game")
    if game.pro_joint_count * game.ant_joint_count > JOINT_ACTION_GUARD:
        raise ValueError("joint action space exceeds the enumeration guard")
    return game


def solve_superb_q(game: TabularGame, tol: float = 1e-8, max_iters: int | None = None) -> OracleSolution:
    """Iterate Q <- R + gamma * P . (min_b max_a Q) from Q = 0 to the
    minimax fixed point."""
    game = _require_tabular(game)
    if max_iters is None:
        max_iters = default_max_iters(game.gamma, tol, game.r_max)
    q = np.zeros_like(game.R)
    residual_history: list[float] = []
    if game.gamma == 0.0:
        q = game.R.copy()
        iterations, residual = 1, 0.0
    else:
        backup = game.backup()
        iterations = 0
        residual = np.inf
        for iterations in range(1, max_iters + 1):
            v = q.max(axis=1).min(axis=1)  # (S,)
            q_next = game.R + game.gamma * backup(v)
            residual = float(np.max(np.abs(q_next - q)))
            residual_history.append(residual)
            q = q_next
            if residual < tol:
                break
        if not residual < tol:  # a NaN residual never converges
            raise OracleConvergenceError(
                f"no convergence after {max_iters} iterations (residual {residual:.3e})",
                residual,
            )
    col_max = q.max(axis=1)  # (S, JB)
    row_min = q.min(axis=2)  # (S, JA)
    v_star = col_max.min(axis=1)
    v_maxmin = row_min.max(axis=1)
    ant_policy = np.argmin(col_max, axis=1)
    pro_policy = np.argmax(row_min, axis=1)
    return OracleSolution(
        q_star=q,
        v_star=v_star,
        v_maxmin=v_maxmin,
        pro_policy=pro_policy,
        ant_policy=ant_policy,
        iterations=iterations,
        residual=residual,
        residual_history=residual_history,
    )


def _validate_team_policy(policy: np.ndarray, n_states: int, count: int, label: str) -> np.ndarray:
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (n_states,):
        raise ValueError(f"{label} policy must assign one joint action per state")
    if policy.min() < 0 or policy.max() >= count:
        raise ValueError(f"{label} policy contains out-of-range joint actions")
    return policy


def best_response(
    game: TabularGame,
    fixed_opponent_policy: np.ndarray,
    team: str,
    tol: float = 1e-8,
    max_iters: int | None = None,
) -> BestResponse:
    """Collapse the frozen opponent into the dynamics and solve the induced
    single-team MDP by value iteration (Pro maximizes, Ant minimizes)."""
    game = _require_tabular(game)
    if team not in ("pro", "ant"):
        raise ValueError("team must be 'pro' or 'ant'")
    s_count = game.n_states
    s_idx = np.arange(s_count)
    if team == "pro":
        opp = _validate_team_policy(fixed_opponent_policy, s_count, game.ant_joint_count, "ant")
        r_red = game.R[s_idx, :, opp]  # (S, JA)
        backup = game.backup(ant=opp)
        best = np.max
        pick = np.argmax
    else:
        opp = _validate_team_policy(fixed_opponent_policy, s_count, game.pro_joint_count, "pro")
        r_red = game.R[s_idx, opp, :]  # (S, JB)
        backup = game.backup(pro=opp)
        best = np.min
        pick = np.argmin
    if max_iters is None:
        max_iters = default_max_iters(game.gamma, tol, game.r_max)
    if game.gamma == 0.0:
        values = best(r_red, axis=1)
        policy = pick(r_red, axis=1)
        return BestResponse(team, opp.copy(), values, policy, 1, 0.0)
    values = np.zeros(s_count)
    residual = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        q = r_red + game.gamma * backup(values)
        new_values = best(q, axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < tol:
            break
    else:
        raise OracleConvergenceError(
            f"best response did not converge (residual {residual:.3e})", residual
        )
    q = r_red + game.gamma * backup(values)
    policy = pick(q, axis=1)
    return BestResponse(team, opp.copy(), values, policy, iterations, residual)


def policy_value(game: TabularGame, pro_policy: np.ndarray, ant_policy: np.ndarray) -> np.ndarray:
    """Exact discounted value of a fixed deterministic policy pair."""
    game = _require_tabular(game)
    s_count = game.n_states
    pro = _validate_team_policy(pro_policy, s_count, game.pro_joint_count, "pro")
    ant = _validate_team_policy(ant_policy, s_count, game.ant_joint_count, "ant")
    s_idx = np.arange(s_count)
    r_vec = game.R[s_idx, pro, ant]
    if game.gamma == 0.0:
        return r_vec.copy()
    p_mat = game.transition_rows(s_idx, pro, ant)
    return np.linalg.solve(np.eye(s_count) - game.gamma * p_mat, r_vec)


def joint_policies_from_pair(game: TabularGame, pair) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a per-agent policy pair into per-state joint action indices."""
    pro_tables, ant_tables = pair.state_tables(game)
    pro = np.array([game.encode_pro(pro_tables[:, s]) for s in range(game.n_states)])
    ant = np.array([game.encode_ant(ant_tables[:, s]) for s in range(game.n_states)])
    return pro, ant


def nashconv(
    game: TabularGame,
    pro_policy: np.ndarray,
    ant_policy: np.ndarray,
    tol: float = 1e-8,
) -> float:
    """Sum of both teams' best-response gains against the frozen pair,
    averaged over the initial-state distribution.

    Equals [BR_pro - V(pi, mu)] + [V(pi, mu) - BR_ant] = BR_pro - BR_ant,
    where BR_pro fixes the Ant policy and maximizes, and BR_ant fixes the
    Pro policy and minimizes. Zero (within tolerance) iff neither team can
    improve unilaterally within deterministic policies.
    """
    game = _require_tabular(game)
    br_pro = best_response(game, ant_policy, "pro", tol)
    br_ant = best_response(game, pro_policy, "ant", tol)
    dist = game.initial_distribution()
    return float(dist @ (br_pro.values - br_ant.values))


def nashconv_of_pair(game: TabularGame, pair, tol: float = 1e-8) -> float:
    pro, ant = joint_policies_from_pair(game, pair)
    return nashconv(game, pro, ant, tol)
