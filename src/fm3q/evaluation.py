"""Evaluation protocols: head-to-head matches, round-robin tournaments,
NashConv curves, optimization-trend fractions, and the replay-buffer
ablation.

A "checkpoint" here is anything that can play both sides: an object with
`pro_actions(aug_state)` and `ant_actions(aug_state)`. A match between two
checkpoints runs both role assignments and scores each side with its mean
discounted Protagonist-frame return, so payoff cells are antisymmetric by
bookkeeping and every recorded match satisfies pro + ant = 0 exactly.
Each side of a match is asked only for its own team's actions.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .games import JointAction, TwoTeamGame, TabularGame, rollout
from .learner import GreedyPolicyPair, TrainConfig, train
from .oracle import joint_policies_from_pair, nashconv_of_pair, policy_value
from .seeding import derive_rng


@dataclass(frozen=True)
class MatchResult:
    """Aggregate of one pairing: Pro-side returns per episode and the exact
    zero-sum mirror for the Ant side."""

    pro_returns: np.ndarray
    episodes: int

    @property
    def ant_returns(self) -> np.ndarray:
        return -self.pro_returns

    @property
    def mean_return(self) -> float:
        return float(self.pro_returns.mean())

    @property
    def win_rate(self) -> float:
        return float((self.pro_returns > 0).mean())

    @property
    def half_width(self) -> float:
        """95% normal-approximation confidence half-width of the mean."""
        if self.episodes < 2:
            return 0.0
        return float(1.96 * self.pro_returns.std(ddof=1) / np.sqrt(self.episodes))


def play_match(game: TwoTeamGame, pro_policy, ant_policy, episodes: int, rng: np.random.Generator) -> MatchResult:
    """Deterministic-policy episodes; returns are discounted with the game's
    own discount so tabular results line up with the exact values.

    Episodes carry the history window the policies declare (`window`);
    policies without one, such as bots and tables, play at any window.
    """
    window = _match_window(pro_policy, ant_policy)
    act = lambda aug: JointAction(tuple(pro_policy.pro_actions(aug)), tuple(ant_policy.ant_actions(aug)))
    returns = np.zeros(episodes)
    for ep in range(episodes):
        total = 0.0
        discount = 1.0
        for ep_step in rollout(game, act, rng, window):
            total += discount * ep_step.reward
            discount *= game.gamma
        returns[ep] = total
    return MatchResult(returns, episodes)


def _match_window(pro_policy, ant_policy) -> int:
    """The one history window both sides of a match can play at."""
    pro, ant = (getattr(policy, "window", None) for policy in (pro_policy, ant_policy))
    if None not in (pro, ant) and pro != ant:
        raise ValueError(f"the Pro side reads window-{pro} histories but the Ant side reads window-{ant}")
    return pro or ant or 1


def exact_match_value(game: TabularGame, pro_policy, ant_policy) -> float:
    """Expected discounted Protagonist return of one pairing, computed by
    exact policy evaluation over the initial-state distribution.

    Only needs the game to be tabular and both sides to expose per-state
    action tables; replaces rollouts with a linear solve, so payoff cells
    carry no sampling noise at all.
    """
    pro, _ = joint_policies_from_pair(game, pro_policy)
    _, ant = joint_policies_from_pair(game, ant_policy)
    values = policy_value(game, pro, ant)
    return float(game.initial_distribution() @ values)


def _supports_exact(game, policies) -> bool:
    return (
        getattr(game, "is_tabular", False)
        and hasattr(policies, "state_tables")
        and getattr(policies, "window", 1) == 1
    )


@dataclass
class Checkpoint:
    """A playable snapshot tagged with its training phase."""

    method: str
    episode: int
    seed: int
    policies: object

    def label(self) -> str:
        return f"{self.method}@{self.episode}"


@dataclass
class PayoffTable:
    """Cross-play table: cell (i, j) is checkpoint i's mean zero-sum score
    against checkpoint j, averaged over both role assignments."""

    labels: list
    episodes: list
    mean_return: np.ndarray
    matches: np.ndarray
    half_width: np.ndarray

    def to_rows(self):
        head = ["checkpoint"] + list(self.labels)
        rows = [head]
        for i, label in enumerate(self.labels):
            rows.append([label] + [repr(float(v)) for v in self.mean_return[i]])
        return rows


def round_robin(
    checkpoints: list[Checkpoint],
    game: TwoTeamGame,
    episodes_per_pair: int = 4,
    seed: int = 0,
) -> tuple[PayoffTable, np.ndarray, np.ndarray]:
    """All ordered pairs cross-play; returns the payoff table, the raw
    round-robin sums, and their min-max normalization to [0, 1].

    On tabular games with table-extractable policies the ordered pairs are
    scored by exact policy evaluation (match count 0, half-width 0) instead
    of rollouts. When every contestant scores the same the normalization is
    degenerate and all entries report 0.5.
    """
    if len(checkpoints) < 2:
        raise ValueError("a round robin needs at least 2 checkpoints")
    exact = all(_supports_exact(game, c.policies) for c in checkpoints)
    count = len(checkpoints)
    mean = np.zeros((count, count))
    matches = np.zeros((count, count), dtype=np.int64)
    half = np.zeros((count, count))
    if exact:
        ordered = np.zeros((count, count))
        for i in range(count):
            for j in range(count):
                if i != j:
                    ordered[i, j] = exact_match_value(game, checkpoints[i].policies, checkpoints[j].policies)
        mean = 0.5 * (ordered - ordered.T)
    else:
        raw = {}
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                rng = derive_rng(seed, "match", i, j)
                raw[(i, j)] = play_match(
                    game, checkpoints[i].policies, checkpoints[j].policies, episodes_per_pair, rng
                )
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                combined = np.concatenate([raw[(i, j)].pro_returns, -raw[(j, i)].pro_returns])
                mean[i, j] = combined.mean()
                matches[i, j] = combined.size
                if combined.size > 1:
                    half[i, j] = 1.96 * combined.std(ddof=1) / np.sqrt(combined.size)
    rr_raw = mean.sum(axis=1)
    spread = rr_raw.max() - rr_raw.min()
    if spread <= 0.0:
        rr_norm = np.full(count, 0.5)
    else:
        rr_norm = (rr_raw - rr_raw.min()) / spread
    table = PayoffTable(
        [c.label() for c in checkpoints],
        [c.episode for c in checkpoints],
        mean,
        matches,
        half,
    )
    return table, rr_raw, rr_norm


def optimization_trend(payoff: PayoffTable | np.ndarray) -> float:
    """Fraction of strictly-lower-triangle cells (later row vs earlier
    column) where the later checkpoint scores strictly positive."""
    mean = payoff.mean_return if isinstance(payoff, PayoffTable) else np.asarray(payoff)
    count = mean.shape[0]
    wins = 0
    cells = 0
    for i in range(count):
        for j in range(i):
            cells += 1
            if mean[i, j] > 0.0:
                wins += 1
    return wins / cells if cells else 1.0


def nashconv_curve(checkpoints: list[Checkpoint], game: TabularGame, tol: float = 1e-8) -> list[dict]:
    """Exact NashConv of each checkpoint's policy pair."""
    points = []
    for ckpt in checkpoints:
        value = nashconv_of_pair(game, ckpt.policies, tol)
        points.append({"episode": ckpt.episode, "value": float(value), "matches": 0})
    return points


def vs_bot_curve(
    checkpoints: list[Checkpoint],
    game: TwoTeamGame,
    bot,
    episodes_per_side: int = 4,
    seed: int = 0,
) -> list[dict]:
    """Mean zero-sum score of each checkpoint against the scripted bot,
    averaged over playing Pro and playing Ant."""
    points = []
    for k, ckpt in enumerate(checkpoints):
        as_pro = play_match(game, ckpt.policies, bot, episodes_per_side, derive_rng(seed, "vsbot", k, 0))
        as_ant = play_match(game, bot, ckpt.policies, episodes_per_side, derive_rng(seed, "vsbot", k, 1))
        score = 0.5 * (as_pro.mean_return - as_ant.mean_return)
        points.append(
            {"episode": ckpt.episode, "value": float(score), "matches": 2 * episodes_per_side}
        )
    return points


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalReport:
    """Serializable bundle of curves, payoff tables, and summary scalars."""

    curves: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seeds: list = field(default_factory=list)

    def to_document(self) -> dict:
        return {
            "curves": self.curves,
            "tables": {
                name: {
                    "labels": t.labels,
                    "episodes": t.episodes,
                    "mean_return": [[float(v) for v in row] for row in t.mean_return],
                    "matches": [[int(v) for v in row] for row in t.matches],
                    "half_width": [[float(v) for v in row] for row in t.half_width],
                }
                for name, t in self.tables.items()
            },
            "extras": self.extras,
            "config": self.config,
            "seeds": self.seeds,
        }

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(self.to_document(), fh, indent=2, sort_keys=True)
        for name, points in self.curves.items():
            with open(os.path.join(out_dir, f"curve_{name}.csv"), "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["episode", "value", "matches"])
                for p in points:
                    writer.writerow([p["episode"], repr(float(p["value"])), p["matches"]])
        for name, table in self.tables.items():
            with open(os.path.join(out_dir, f"payoff_{name}.csv"), "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(table.to_rows())


# ---------------------------------------------------------------------------
# buffer ablation


BUFFER_LABELS = ("small", "large", "full")


def ablate_buffer(
    game: TwoTeamGame,
    sizes: dict,
    config: TrainConfig,
    eval_fn=None,
    episodes_per_pair: int = 4,
    require_increasing: bool = True,
) -> EvalReport:
    """Train one model per buffer size with shared seeds and cross-play the
    cohorts at every checkpoint phase.

    `sizes` maps small/large to capacities and full to None (never evict).
    The report carries one normalized round-robin curve per size, a payoff
    table per size over its own phases (for trend fractions), and the final
    phase's cross-play ordering in `extras`.
    """
    for label in BUFFER_LABELS:
        if label not in sizes:
            raise ValueError(f"sizes must provide {label!r}")
    small, large, full = sizes["small"], sizes["large"], sizes["full"]
    if require_increasing:
        effective_full = np.inf if full is None else full
        if not (small < large < effective_full):
            raise ValueError("buffer sizes must be strictly increasing (small < large < full)")
    if config.checkpoint_every is None:
        raise ValueError("the ablation needs a checkpoint cadence")
    runs = {}
    for label in BUFFER_LABELS:
        capacity = sizes[label]
        run_config = replace(
            config,
            buffer_mode="full" if capacity is None else label,
            buffer_capacity=capacity,
        )
        runs[label] = train(game, run_config, eval_fn=eval_fn)
    if full is not None and runs["full"].buffer_size > full:
        raise ValueError("the full size must cover every generated step")
    # cross-play the three variants at each shared phase
    phases = sorted(
        set.intersection(*(set(ep for ep, _ in runs[label].snapshots) for label in BUFFER_LABELS))
    )
    report = EvalReport(config={"sizes": {k: sizes[k] for k in BUFFER_LABELS}}, seeds=[config.seed])
    curves = {label: [] for label in BUFFER_LABELS}
    final_norm = {}
    for phase in phases:
        ckpts = []
        for label in BUFFER_LABELS:
            params = dict(runs[label].snapshots)[phase]
            fq = runs[label].fq.with_params(params)
            ckpts.append(Checkpoint(f"fm3q-{label}", phase, config.seed, GreedyPolicyPair(fq)))
        _, _, rr_norm = round_robin(ckpts, game, episodes_per_pair, seed=config.seed)
        for label, value in zip(BUFFER_LABELS, rr_norm):
            curves[label].append(
                {"episode": phase, "value": float(value), "matches": episodes_per_pair * 4}
            )
        if phase == phases[-1]:
            final_norm = {label: float(v) for label, v in zip(BUFFER_LABELS, rr_norm)}
    for label in BUFFER_LABELS:
        report.curves[f"rr_{label}"] = curves[label]
    # per-size payoff tables across that size's own phases
    trend = {}
    for label in BUFFER_LABELS:
        ckpts = [
            Checkpoint(f"fm3q-{label}", ep, config.seed, GreedyPolicyPair(runs[label].fq.with_params(p)))
            for ep, p in runs[label].snapshots
        ]
        if len(ckpts) >= 2:
            table, _, _ = round_robin(ckpts, game, episodes_per_pair, seed=config.seed)
            report.tables[label] = table
            trend[label] = optimization_trend(table)
    report.extras["final_rr_norm"] = final_norm
    report.extras["trend_fraction"] = trend
    report.extras["ordering_holds"] = bool(
        final_norm
        and final_norm["full"] >= final_norm["large"] >= final_norm["small"]
    )
    return report
