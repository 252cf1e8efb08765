"""Command-line entry point: train, oracle, eval, ablate.

Configs are JSON; every run directory is self-describing (resolved config
echo, seed, package version, outputs). The echo's `config` object is itself
a valid config, and training from it reproduces the outputs byte for byte.
Schema problems, unknown keys included, exit with code 1 and name the
offending field path; runtime failures exit with code 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import baselines, evaluation, games, learner, oracle

METRIC_COLUMNS = ("episode", "loss", "epsilon", "buffer_size", "batch_size")


class ConfigError(ValueError):
    """Schema violation; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _want(doc: dict, path: str, key: str, kind, default=..., choices=None):
    here = f"{path}.{key}" if path else key
    if key not in doc:
        if default is ...:
            raise ConfigError(here, "missing required field")
        return default
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(here, f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(here, f"must be one of {sorted(choices)}")
    return value


def build_game(spec: dict, path: str = "game") -> games.TwoTeamGame:
    kind = _want(spec, path, "kind", str, choices={"random_tabular", "random_deterministic", "matrix", "grid", "file"})
    if kind == "file":
        return games.load_game(_want(spec, path, "path", str))
    if kind == "grid":
        return games.GridKeepawayGame(
            games.GridConfig(
                side=_want(spec, path, "side", int, 5),
                horizon=_want(spec, path, "horizon", int, 30),
                view_radius=_want(spec, path, "view_radius", int, None),
            )
        )
    if kind == "matrix":
        payoff = _want(spec, path, "payoff", list)
        return games.matrix_team_game(payoff, _want(spec, path, "n", int, 1), _want(spec, path, "m", int, 1))
    maker = games.random_tabular_game if kind == "random_tabular" else games.random_deterministic_game
    return maker(
        seed=_want(spec, path, "seed", int, 0),
        n_states=_want(spec, path, "n_states", int),
        n=_want(spec, path, "n", int),
        m=_want(spec, path, "m", int),
        actions_per_agent=_want(spec, path, "actions_per_agent", int),
        gamma=_want(spec, path, "gamma", float, 0.99),
        horizon=_want(spec, path, "horizon", int, None),
    )


#: Top-level keys read into the TrainConfig field of the same name, with
#: their JSON types; defaults are TrainConfig's own.
TRAIN_KEYS = (
    ("episodes", int),
    ("learning_rate", float),
    ("hidden_layers", list),
    ("mix_hidden_dim", int),
    ("updates_per_round", int),
    ("buffer_mode", str),
    ("buffer_capacity", int),
    ("epsilon_start", float),
    ("epsilon_end", float),
    ("epsilon_decay_fraction", float),
    ("history_window", int),
    ("seed", int),
    ("checkpoint_every", int),
    ("eval_every", int),
)

#: Top-level keys only the command line reads.
CLI_KEYS = ("game", "method", "alpha", "backend", "buffer_sizes")


@dataclass
class RunConfig:
    game_spec: dict
    method: str
    train: learner.TrainConfig
    alpha: float = 0.1
    backend: str = "tabular"
    buffer_sizes: dict | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_document(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("", "config must be a JSON object")
        known = {key for key, _ in TRAIN_KEYS} | set(CLI_KEYS)
        for key in doc:
            if key not in known:
                raise ConfigError(key, "unknown field")
        game_spec = _want(doc, "", "game", dict)
        method = _want(doc, "", "method", str, choices={"fm3q", "iql", "jminimax"})
        defaults = {f.name: f.default for f in fields(learner.TrainConfig)}
        values = {}
        for key, kind in TRAIN_KEYS:
            default = ... if defaults[key] is MISSING else defaults[key]
            choices = set(learner.ReplayBuffer.MODES) if key == "buffer_mode" else None
            values[key] = _want(doc, "", key, kind, default, choices)
        if values["episodes"] < 0:
            raise ConfigError("episodes", "must be nonnegative")
        values["hidden_layers"] = tuple(values["hidden_layers"])
        train = learner.TrainConfig(**values)
        try:
            learner.check_exploration(train)
        except learner.ExplorationError as exc:
            raise ConfigError(exc.field, exc.reason) from None
        sizes = _want(doc, "", "buffer_sizes", dict, None)
        if sizes is not None:
            for key in ("small", "large", "full"):
                if key not in sizes:
                    raise ConfigError(f"buffer_sizes.{key}", "missing required field")
            small, large, full = sizes["small"], sizes["large"], sizes["full"]
            effective = np.inf if full is None else full
            if not (small < large < effective):
                raise ConfigError("buffer_sizes", "must be strictly increasing (small < large < full)")
        return cls(
            game_spec=game_spec,
            method=method,
            train=train,
            alpha=_want(doc, "", "alpha", float, 0.1),
            backend=_want(doc, "", "backend", str, "tabular", choices={"tabular", "neural"}),
            buffer_sizes=sizes,
            raw=dict(doc),
        )

    def echo_document(self) -> dict:
        doc = dict(self.raw)
        doc.setdefault("epsilon_end", self.train.epsilon_end)
        doc.setdefault("seed", self.train.seed)
        return {"package_version": __version__, "config": doc}

    def baseline_config(self) -> baselines.IndependentQConfig:
        """The IQL and joint minimax settings: every TrainConfig value the
        baselines share, with a 5000-step per-agent buffer by default."""
        shared = {f.name for f in fields(baselines.IndependentQConfig)} & set(vars(self.train))
        values = {name: getattr(self.train, name) for name in shared}
        values["buffer_capacity"] = self.train.buffer_capacity or 5000
        return baselines.IndependentQConfig(**values, backend=self.backend, alpha=self.alpha)


def _load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    config = RunConfig.from_document(_load_json(path))
    if seed_override is not None:
        config.train.seed = seed_override
        config.raw["seed"] = seed_override
    return config


def write_metrics_csv(path: str, metrics: list[dict]) -> None:
    extras = sorted({k for row in metrics for k in row} - set(METRIC_COLUMNS))
    columns = list(METRIC_COLUMNS) + extras
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in metrics:
            out = []
            for col in columns:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = repr(value)
                out.append(value)
            writer.writerow(out)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tabular_eval_fn(game, tol: float = 1e-8):
    if not getattr(game, "is_tabular", False):
        return None

    def eval_fn(model, episode):
        if isinstance(model, learner.NeuralFactorizedQ):
            pair = learner.GreedyPolicyPair(model)
        else:
            pair = model
        return {"nashconv": oracle.nashconv_of_pair(game, pair, tol)}

    return eval_fn


def _write_state_tables(ckpt_dir: str, pair, game, method: str, episode: int, seed: int) -> None:
    pro, ant = pair.state_tables(game)
    doc = {
        "version": 1,
        "kind": "state_tables",
        "method": method,
        "episode": episode,
        "seed": seed,
        "pro": pro.tolist(),
        "ant": ant.tolist(),
    }
    _write_json(os.path.join(ckpt_dir, f"ckpt_ep{episode:06d}.json"), doc)


def cmd_train(config_path: str, out_dir: str, seed_override: int | None = None) -> int:
    config = _load_run_config(config_path, seed_override)
    seed = config.train.seed
    game = build_game(config.game_spec)
    eval_fn = _tabular_eval_fn(game) if config.train.eval_every else None
    if config.method == "fm3q" and eval_fn is not None and config.train.history_window > 1:
        raise ConfigError(
            "history_window",
            "NashConv evals (eval_every) on a tabular game need per-state policies, "
            "which only history_window 1 gives",
        )
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), config.echo_document())
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    if config.method == "fm3q":
        result = learner.train(game, config.train, eval_fn=eval_fn)
        metrics = result.metrics
        os.makedirs(ckpt_dir, exist_ok=True)
        snapshots = result.snapshots or [(result.episodes_run, result.fq.params.copy())]
        for episode, params in snapshots:
            doc = learner.checkpoint_document(
                result.fq.with_params(params), episode=episode, method="fm3q", seed=seed
            )
            _write_json(os.path.join(ckpt_dir, f"ckpt_ep{episode:06d}.json"), doc)
    else:
        trainer = baselines.selfplay_independent_train if config.method == "iql" else baselines.joint_minimax_train
        result = trainer(game, config.baseline_config(), eval_fn=eval_fn)
        metrics = result.metrics
        os.makedirs(ckpt_dir, exist_ok=True)
        if getattr(game, "is_tabular", False):
            for episode, pair in result.snapshots or [(result.episodes_run, result.policies)]:
                _write_state_tables(ckpt_dir, pair, game, config.method, episode, seed)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    return 0


def cmd_oracle(game_path: str, tol: float, out_dir: str) -> int:
    game = games.load_game(game_path)
    solution = oracle.solve_superb_q(game, tol=tol)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "oracle.json"), solution.to_document())
    v_text = " ".join(f"{v:.6f}" for v in solution.v_star)
    gap = float(np.max(solution.saddle_gap))
    print(f"oracle: iterations={solution.iterations} residual={solution.residual:.3e}")
    print(f"oracle: V* per state: {v_text}")
    print(f"oracle: max saddle gap={gap:.3e}")
    if gap > tol:
        states = " ".join(str(s) for s in np.flatnonzero(solution.saddle_gap > tol))
        print(
            f"warning: no pure saddle in state(s) {states} (gap {gap:.3e} > tol {tol:.1e}); "
            "V* there is only the pure min-max bound, not the game's mixed-strategy value",
            file=sys.stderr,
        )
    return 0


def load_checkpoint(game, path: str) -> evaluation.Checkpoint:
    doc = _load_json(path)
    kind = doc.get("kind")
    if kind == "fm3q_neural":
        fq = learner.fq_from_checkpoint(game, doc)
        policies = learner.GreedyPolicyPair(fq)
    elif kind == "state_tables":
        policies = games.TablePolicyPair.from_document(doc)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    return evaluation.Checkpoint(
        method=doc.get("method", kind),
        episode=int(doc.get("episode", 0)),
        seed=int(doc.get("seed", 0)),
        policies=policies,
    )


def cmd_eval(checkpoints_dir: str, game_path: str, mode: str, out_dir: str, tol: float, seed: int, episodes: int) -> int:
    game = games.load_game(game_path)
    paths = sorted(
        os.path.join(checkpoints_dir, f)
        for f in os.listdir(checkpoints_dir)
        if f.endswith(".json")
    )
    checkpoints = []
    for path in paths:
        try:
            checkpoints.append(load_checkpoint(game, path))
        except (ValueError, KeyError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    if not checkpoints:
        raise ConfigError("checkpoints", "no loadable checkpoints found")
    checkpoints.sort(key=lambda c: c.episode)
    report = evaluation.EvalReport(config={"mode": mode, "game": game_path}, seeds=[seed])
    if mode in ("roundrobin", "trend"):
        if len(checkpoints) < 2:
            raise ConfigError("checkpoints", f"mode {mode!r} needs at least 2 checkpoints")
        table, rr_raw, rr_norm = evaluation.round_robin(checkpoints, game, episodes, seed)
        report.tables["roundrobin"] = table
        report.extras["rr_raw"] = [float(v) for v in rr_raw]
        report.extras["rr_norm"] = [float(v) for v in rr_norm]
        if mode == "trend":
            report.extras["trend_fraction"] = evaluation.optimization_trend(table)
    elif mode == "nashconv":
        report.curves["nashconv"] = evaluation.nashconv_curve(checkpoints, game, tol)
    elif mode == "vsbot":
        bot = games.scripted_bot_pair(game)
        report.curves["vsbot"] = evaluation.vs_bot_curve(checkpoints, game, bot, episodes, seed)
    else:
        raise ConfigError("mode", "must be one of ['nashconv', 'roundrobin', 'trend', 'vsbot']")
    report.write(out_dir)
    print(f"eval: wrote {mode} report to {out_dir}")
    return 0


def cmd_ablate(config_path: str, out_dir: str, seed_override: int | None = None) -> int:
    config = _load_run_config(config_path, seed_override)
    if config.buffer_sizes is None:
        raise ConfigError("buffer_sizes", "missing required field")
    game = build_game(config.game_spec)
    train_config = config.train
    if train_config.checkpoint_every is None:
        train_config = replace(train_config, checkpoint_every=max(1, train_config.episodes // 5))
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), config.echo_document())
    report = evaluation.ablate_buffer(game, config.buffer_sizes, train_config)
    report.write(out_dir)
    print(f"ablate: final normalized RR returns {report.extras['final_rr_norm']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fm3q", description="Two-team minimax Q-learning runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a method from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default="runs/train")
    p_train.add_argument("--seed", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="solve a tabular game exactly")
    p_oracle.add_argument("--game", required=True)
    p_oracle.add_argument("--tol", type=float, default=1e-8)
    p_oracle.add_argument("--out", default="runs/oracle")

    p_eval = sub.add_parser("eval", help="evaluate saved checkpoints")
    p_eval.add_argument("--checkpoints", required=True)
    p_eval.add_argument("--game", required=True)
    p_eval.add_argument("--mode", required=True, choices=["roundrobin", "nashconv", "trend", "vsbot"])
    p_eval.add_argument("--out", default="runs/eval")
    p_eval.add_argument("--tol", type=float, default=1e-8)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--episodes", type=int, default=4)

    p_ablate = sub.add_parser("ablate", help="replay-buffer size ablation")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--out", default="runs/ablate")
    p_ablate.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed)
        if args.command == "oracle":
            return cmd_oracle(args.game, args.tol, args.out)
        if args.command == "eval":
            return cmd_eval(args.checkpoints, args.game, args.mode, args.out, args.tol, args.seed, args.episodes)
        if args.command == "ablate":
            return cmd_ablate(args.config, args.out, args.seed)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
