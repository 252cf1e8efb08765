"""The three fm3q benchmark workloads.

Each workload builds its inputs from the workload seed (`setup`), runs whole
jobs (`job`) and turns the jobs of one run into metrics (`summarize`). A job
is one unit a user waits for: a training seed's criterion-5/6 pipeline, a
CLI train-and-evaluate session, or an exact-oracle pass over two games. Jobs
carry their own output checks and a digest of their outputs, so a traced
run can be compared with an untraced one.

Every workload reports the same end-to-end metrics. `learn_per_s`,
`judge_per_s` and `reference_per_s` name a role that each workload fills
with its own stage; `Summary.figures` keeps the per-workload names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from fm3q import baselines, cli, evaluation, games, learner, oracle


def derive_seed(seed: int, *tags) -> int:
    """32-bit seed for the stream named by (workload seed, tags...)."""
    return zlib.crc32(repr((int(seed),) + tags).encode("utf-8"))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode("utf-8"))
    return h.hexdigest()


@dataclass
class Job:
    index: int
    seed: int
    wall: float
    digest: str
    checks: list  # (name, passed)
    stats: dict = field(default_factory=dict)


@dataclass
class Summary:
    job_s: float
    learn_per_s: float
    judge_per_s: float
    reference_per_s: float
    figures: list  # (name, value, unit) under the workload's own metric names
    checks: list


def _rate(jobs, work: str, seconds: str) -> float:
    """One stage's total work over its total time across the run's jobs."""
    return sum(j.stats[work] for j in jobs) / sum(j.stats[seconds] for j in jobs)


def _mean_wall(jobs) -> float:
    return sum(j.wall for j in jobs) / len(jobs)


# ---------------------------------------------------------------------------
# saddle_train


#: The frozen acceptance game and the learner settings pinned for it; these
#: mirror the values in tests/conftest.py.
ACCEPTANCE_GAME = dict(seed=3, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8, min_margin=0.08)
ACCEPTANCE_LEARNER = dict(
    updates_per_round=10, buffer_mode="full", learning_rate=2e-3, hidden_layers=(64,), mix_hidden_dim=32
)


@dataclass
class SaddleInputs:
    seed: int
    game: games.TabularGame
    solution: oracle.OracleSolution
    bar: float


class SaddleTrain:
    """Criterion-5/6 pipeline on the acceptance game, one training seed per job.

    150 episodes grow the batches to B = 465 rows, past the ~300 the
    roadmap profile used. At 100 episodes 2 of 16 probed seeds never reached
    the NashConv bar, which this workload counts as a failure; at 150 all
    probed seeds did.
    """

    name = "saddle_train"
    episodes = 150
    every = 10  # NashConv and checkpoint cadence
    min_jobs = 2  # job 1 repeats job 0's training seed

    def setup(self, seed: int, work_dir: str) -> SaddleInputs:
        game = games.random_saddle_game(**ACCEPTANCE_GAME)
        solution = oracle.solve_superb_q(game, tol=1e-10)
        return SaddleInputs(seed, game, solution, 0.05 * game.r_max / (1.0 - game.gamma))

    def train_seed(self, inputs: SaddleInputs, index: int) -> int:
        return derive_seed(inputs.seed, self.name, max(0, index - 1))

    def job(self, inputs: SaddleInputs, index: int) -> Job:
        game = inputs.game
        seed = self.train_seed(inputs, index)
        config = learner.TrainConfig(
            episodes=self.episodes,
            seed=seed,
            eval_every=self.every,
            checkpoint_every=self.every,
            **ACCEPTANCE_LEARNER,
        )
        evals = []
        eval_s = 0.0
        start = time.perf_counter()

        def eval_fn(fq, episode):
            nonlocal eval_s
            t = time.perf_counter()
            value = oracle.nashconv_of_pair(game, learner.GreedyPolicyPair(fq))
            now = time.perf_counter()
            eval_s += now - t
            evals.append((episode, value, now - start))
            return {"nashconv": value}

        result = learner.train(game, config, eval_fn=eval_fn)
        train_s = time.perf_counter() - start
        checkpoints = [
            evaluation.Checkpoint("fm3q", episode, seed, learner.GreedyPolicyPair(result.fq.with_params(params)))
            for episode, params in result.snapshots
        ]
        table, _, _ = evaluation.round_robin(checkpoints, game, seed=seed)
        trend = evaluation.optimization_trend(table)
        t = time.perf_counter()
        iql = baselines.selfplay_independent_train(
            game,
            baselines.IndependentQConfig(
                episodes=self.episodes,
                updates_per_round=ACCEPTANCE_LEARNER["updates_per_round"],
                buffer_capacity=2000,
                backend="tabular",
                alpha=0.1,
                seed=seed,
            ),
        )
        iql_s = time.perf_counter() - t
        iql_nashconv = oracle.nashconv_of_pair(game, iql.policies)
        wall = time.perf_counter() - start
        reached = [elapsed for _, value, elapsed in evals if value <= inputs.bar]
        digest = _digest(
            [row["loss"] for row in result.metrics],
            [value for _, value, _ in evals],
            table.mean_return.tolist(),
            trend,
            iql_nashconv,
        )
        return Job(
            index,
            seed,
            wall,
            digest,
            [(f"job{index}.reaches_nashconv_bar", bool(reached))],
            {
                "episodes": result.episodes_run,
                "learn_s": train_s - eval_s,
                "evals": len(evals),
                "eval_s": eval_s,
                "iql_episodes": self.episodes,
                "iql_s": iql_s,
                "time_to_nashconv_s": reached[0] if reached else None,
            },
        )

    def summarize(self, inputs: SaddleInputs, jobs: list) -> Summary:
        checks = [("oracle_confirms_pure_saddle", inputs.solution.has_pure_saddle(1e-9))]
        by_seed: dict[int, list] = {}
        for j in jobs:
            by_seed.setdefault(j.seed, []).append(j)
        for seed, same in by_seed.items():
            if len(same) > 1:
                checks.append((f"seed{seed}.repeat_digest_identical", len({j.digest for j in same}) == 1))
        first_runs = [same[0].stats["time_to_nashconv_s"] for same in by_seed.values()]
        reached = [t for t in first_runs if t is not None]
        learn = _rate(jobs, "episodes", "learn_s")
        judge = _rate(jobs, "evals", "eval_s")
        reference = _rate(jobs, "iql_episodes", "iql_s")
        figures = [
            ("train_episodes_per_s", learn, "1/s"),
            ("time_to_nashconv_s", statistics.median(reached) if reached else float("nan"), "s"),
            ("iql_episodes_per_s", reference, "1/s"),
            ("nashconv_evals_per_s", judge, "1/s"),
        ]
        return Summary(_mean_wall(jobs), learn, judge, reference, figures, checks)

    def trace_checks(self, inputs, jobs, tracer) -> list:
        return []


# ---------------------------------------------------------------------------
# grid_cli


@dataclass
class GridInputs:
    seed: int
    work_dir: str
    game_path: str
    horizon: int


class GridCli:
    """`fm3q train`, then `fm3q eval` in roundrobin and vsbot modes, on grid
    keep-away, all through `cli.main` in this process."""

    name = "grid_cli"
    episodes = 20
    checkpoint_every = 4
    eval_episodes = 4  # per ordered pair, and per side against the bot
    min_jobs = 1

    @property
    def checkpoints(self) -> int:
        return self.episodes // self.checkpoint_every

    def setup(self, seed: int, work_dir: str) -> GridInputs:
        game = games.grid_keepaway_game(games.GridConfig(side=5, horizon=30))
        path = os.path.join(work_dir, "game.json")
        games.save_game(game, path)
        return GridInputs(seed, work_dir, path, game.horizon)

    def job(self, inputs: GridInputs, index: int) -> Job:
        seed = derive_seed(inputs.seed, self.name, index)
        job_dir = os.path.join(inputs.work_dir, f"job{index}")
        shutil.rmtree(job_dir, ignore_errors=True)
        os.makedirs(job_dir)
        config_path = os.path.join(job_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "game": {"kind": "file", "path": inputs.game_path},
                    "method": "fm3q",
                    "episodes": self.episodes,
                    "learning_rate": 2e-3,
                    "hidden_layers": [64],
                    "mix_hidden_dim": 32,
                    "checkpoint_every": self.checkpoint_every,
                    "seed": seed,
                },
                fh,
            )
        run_dir = os.path.join(job_dir, "run")
        ckpt_dir = os.path.join(run_dir, "checkpoints")
        commands = {
            "train": ["train", "--config", config_path, "--out", run_dir],
            **{
                mode: [
                    "eval", "--checkpoints", ckpt_dir, "--game", inputs.game_path, "--mode", mode,
                    "--out", os.path.join(job_dir, mode), "--seed", str(seed),
                    "--episodes", str(self.eval_episodes),
                ]
                for mode in ("roundrobin", "vsbot")
            },
        }
        codes, seconds = {}, {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for step_name, argv in commands.items():
                t = time.perf_counter()
                codes[step_name] = cli.main(argv)
                seconds[step_name] = time.perf_counter() - t
        wall = time.perf_counter() - start
        checks = [(f"job{index}.{name}.exit_code_0", code == 0) for name, code in codes.items()]
        count = self.checkpoints
        rr_episodes = count * (count - 1) * self.eval_episodes
        bot_episodes = 2 * count * self.eval_episodes
        digest = ""
        if all(code == 0 for code in codes.values()):
            with open(os.path.join(job_dir, "roundrobin", "report.json"), encoding="utf-8") as fh:
                rr = json.load(fh)
            with open(os.path.join(job_dir, "vsbot", "report.json"), encoding="utf-8") as fh:
                bot = json.load(fh)
            table = rr["tables"]["roundrobin"]
            mean = np.asarray(table["mean_return"])
            ckpt_names = sorted(os.listdir(ckpt_dir))
            # each cell averages both role assignments of one pairing, so the
            # table is antisymmetric up to the order of one float sum
            checks.append((f"job{index}.matches_zero_sum", float(np.max(np.abs(mean + mean.T))) <= 1e-12))
            checks.append((f"job{index}.checkpoint_count", len(ckpt_names) == count))
            played = int(np.sum(table["matches"])) // 2 + sum(p["matches"] for p in bot["curves"]["vsbot"])
            checks.append((f"job{index}.episodes_played", played == rr_episodes + bot_episodes))
            files = []
            for name in ["metrics.csv"] + [os.path.join("checkpoints", n) for n in ckpt_names]:
                with open(os.path.join(run_dir, name), "rb") as fh:
                    files.append(fh.read())
            digest = _digest(*files, table, rr["extras"], bot["curves"])
        shutil.rmtree(job_dir, ignore_errors=True)
        return Job(
            index,
            seed,
            wall,
            digest,
            checks,
            {
                "episodes": self.episodes,
                "train_s": seconds["train"],
                "rr_steps": rr_episodes * inputs.horizon,
                "rr_s": seconds["roundrobin"],
                "bot_steps": bot_episodes * inputs.horizon,
                "bot_s": seconds["vsbot"],
                "steps": (self.episodes + rr_episodes + bot_episodes) * inputs.horizon,
            },
        )

    def summarize(self, inputs: GridInputs, jobs: list) -> Summary:
        learn = _rate(jobs, "episodes", "train_s")
        judge = _rate(jobs, "rr_steps", "rr_s")
        reference = _rate(jobs, "bot_steps", "bot_s")
        play_steps = sum(j.stats["rr_steps"] + j.stats["bot_steps"] for j in jobs)
        play_s = sum(j.stats["rr_s"] + j.stats["bot_s"] for j in jobs)
        figures = [
            ("train_episodes_per_s", learn, "1/s"),
            ("play_steps_per_s", play_steps / play_s, "1/s"),
            ("roundrobin_play_steps_per_s", judge, "1/s"),
            ("vsbot_play_steps_per_s", reference, "1/s"),
        ]
        return Summary(_mean_wall(jobs), learn, judge, reference, figures, [])

    def trace_checks(self, inputs, jobs, tracer) -> list:
        steps = tracer.totals().get("games.step", (0, 0.0))[0]
        matches = tracer.observed["evaluation.play_match"]
        return [
            ("traced_step_count", steps == sum(j.stats["steps"] for j in jobs)),
            (
                "traced_matches_zero_sum",
                all(np.array_equal(m.pro_returns + m.ant_returns, np.zeros(m.episodes)) for m in matches),
            ),
        ]


# ---------------------------------------------------------------------------
# oracle_exact


@dataclass
class OracleInputs:
    seed: int
    games: dict  # label -> TabularGame
    pairs: dict  # label -> list of (pro joint policy, ant joint policy)
    dataset: learner.TabularDataset


class OracleExact:
    """Minimax value iteration, NashConv and exact-operator sweeps on two
    games at the top of the enumeration guard (81 x 81 joint actions), one
    with deterministic and one with stochastic transitions."""

    name = "oracle_exact"
    shape = dict(n_states=40, n=4, m=4, actions_per_agent=3, gamma=0.8)
    tol = 1e-8
    sweep_target = 1e-6
    max_sweeps = 1000
    random_pairs = 7
    min_jobs = 1

    def setup(self, seed: int, work_dir: str) -> OracleInputs:
        det = games.random_deterministic_game(seed=derive_seed(seed, "det"), **self.shape)
        sto = games.random_tabular_game(seed=derive_seed(seed, "sto"), **self.shape)
        rng = np.random.default_rng(derive_seed(seed, "pairs"))
        pairs = {}
        for label, game in (("det", det), ("sto", sto)):
            chosen = [oracle.joint_policies_from_pair(game, games.myopic_bot_pair(game))]
            for _ in range(self.random_pairs):
                chosen.append(
                    (
                        rng.integers(game.pro_joint_count, size=game.n_states),
                        rng.integers(game.ant_joint_count, size=game.n_states),
                    )
                )
            pairs[label] = chosen
        dataset = learner.TabularDataset.full_coverage(det)
        return OracleInputs(seed, {"det": det, "sto": sto}, pairs, dataset)

    def job(self, inputs: OracleInputs, index: int) -> Job:
        start = time.perf_counter()
        checks, parts, stats = [], [], {}
        solutions = {}
        nashconv_s, nashconvs = 0.0, []
        for label, game in inputs.games.items():
            t = time.perf_counter()
            solution = oracle.solve_superb_q(game, tol=self.tol)
            stats[f"vi_s_{label}"] = time.perf_counter() - t
            stats[f"vi_iters_{label}"] = solution.iterations
            solutions[label] = solution
            checks.append((f"job{index}.{label}.oracle_residual_below_tol", solution.residual < self.tol))
            parts += [solution.q_star.tobytes(), solution.iterations]
            for pro, ant in inputs.pairs[label]:
                t = time.perf_counter()
                nashconvs.append(oracle.nashconv(game, pro, ant, self.tol))
                nashconv_s += time.perf_counter() - t
        checks.append((f"job{index}.nashconv_not_below_minus_tol", min(nashconvs) >= -self.tol))
        game, q_star = inputs.games["det"], solutions["det"].q_star
        fq = learner.TabularFactorizedQ.zeros(game)
        # extended precision keeps the residual-ratio check clear of float64
        # rounding near the stopping size, as in acceptance criterion 2
        fq.q_tot = np.zeros(game.R.shape, dtype=np.longdouble)
        previous, ratios_ok, sweeps, sweep_s, distance = None, True, 0, 0.0, np.inf
        while sweeps < self.max_sweeps and distance > self.sweep_target:
            t = time.perf_counter()
            nxt = learner.exact_operator_apply(fq, inputs.dataset)
            sweep_s += time.perf_counter() - t
            sweeps += 1
            residual = float(np.max(np.abs(nxt.q_tot - fq.q_tot)))
            if previous is not None and residual > (game.gamma + 1e-9) * previous:
                ratios_ok = False
            previous, fq = residual, nxt
            distance = float(np.max(np.abs(fq.q_tot.astype(np.float64) - q_star)))
        checks.append((f"job{index}.sweep_residual_ratio_within_gamma", ratios_ok))
        checks.append((f"job{index}.sweeps_reach_q_star", distance <= self.sweep_target))
        wall = time.perf_counter() - start
        digest = _digest(*parts, nashconvs, sweeps, fq.q_tot.tobytes())
        stats.update(
            nashconvs=len(nashconvs), nashconv_s=nashconv_s, sweeps=sweeps, sweep_s=sweep_s,
            vi_iters=sum(s.iterations for s in solutions.values()),
            vi_s=stats["vi_s_det"] + stats["vi_s_sto"],
        )
        return Job(index, inputs.seed, wall, digest, checks, stats)

    def summarize(self, inputs: OracleInputs, jobs: list) -> Summary:
        learn = _rate(jobs, "sweeps", "sweep_s")
        judge = _rate(jobs, "nashconvs", "nashconv_s")
        reference = _rate(jobs, "vi_iters", "vi_s")
        figures = [
            ("vi_iters_per_s", reference, "1/s"),
            ("vi_iters_per_s.det", _rate(jobs, "vi_iters_det", "vi_s_det"), "1/s"),
            ("vi_iters_per_s.sto", _rate(jobs, "vi_iters_sto", "vi_s_sto"), "1/s"),
            ("nashconv_evals_per_s", judge, "1/s"),
            ("exact_sweeps_per_s", learn, "1/s"),
        ]
        return Summary(_mean_wall(jobs), learn, judge, reference, figures, [])

    def trace_checks(self, inputs, jobs, tracer) -> list:
        return []


WORKLOADS = {w.name: w for w in (SaddleTrain(), GridCli(), OracleExact())}
