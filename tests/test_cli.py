"""End-to-end tests of the command-line surface."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from fm3q import cli, games, oracle
from fm3q.cli import main


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def smoke_config(tmp_path, **overrides):
    doc = {
        "game": {
            "kind": "random_deterministic",
            "seed": 2,
            "n_states": 2,
            "n": 1,
            "m": 1,
            "actions_per_agent": 2,
            "gamma": 0.5,
            "horizon": 4,
        },
        "method": "fm3q",
        "episodes": 1,
        "hidden_layers": [8],
        "mix_hidden_dim": 4,
        "checkpoint_every": 1,
        "seed": 0,
    }
    doc.update(overrides)
    return write_json(tmp_path / "config.json", doc)


def test_missing_required_field_names_the_path(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"method": "fm3q", "episodes": 1})
    code = main(["train", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "game" in capsys.readouterr().err


def test_schema_error_on_wrong_type(tmp_path, capsys):
    path = smoke_config(tmp_path, episodes="many")
    code = main(["train", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "episodes" in capsys.readouterr().err


def test_refuses_non_exploratory_epsilon(tmp_path, capsys):
    path = smoke_config(tmp_path, epsilon_end=0.0)
    code = main(["train", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exploratory" in capsys.readouterr().err


def test_train_smoke_writes_metrics_and_checkpoint(tmp_path):
    path = smoke_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus one episode
    assert lines[0].startswith("episode,loss,epsilon,buffer_size,batch_size")
    ckpts = os.listdir(out / "checkpoints")
    assert len(ckpts) == 1
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["config"]["episodes"] == 1


def test_train_same_config_and_seed_reproduces_metrics_byte_identically(tmp_path):
    path = smoke_config(tmp_path, episodes=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", path, "--out", str(out_a)]) == 0
    assert main(["train", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_train_seed_override_changes_the_run(tmp_path):
    path = smoke_config(tmp_path, episodes=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", path, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["train", "--config", path, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_train_iql_method(tmp_path):
    path = smoke_config(tmp_path, method="iql", episodes=2)  # checkpoint_every 1
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert sorted(os.listdir(out / "checkpoints")) == ["ckpt_ep000001.json", "ckpt_ep000002.json"]


@pytest.mark.parametrize("method", ["iql", "jminimax"])
def test_baselines_honour_checkpoint_and_eval_cadence(tmp_path, method):
    path = smoke_config(tmp_path, method=method, episodes=6, checkpoint_every=2, eval_every=3)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "checkpoints")) == [f"ckpt_ep{e:06d}.json" for e in (2, 4, 6)]
    for name in os.listdir(out / "checkpoints"):
        doc = json.loads((out / "checkpoints" / name).read_text())
        assert (doc["method"], doc["episode"]) == (method, int(name[7:13]))
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["episode"] for row in rows if row.get("nashconv")] == ["3", "6"]


def test_oracle_command_gamma_zero(tmp_path, capsys):
    g = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    game_path = tmp_path / "game.json"
    games.save_game(g, game_path)
    out = tmp_path / "oracle"
    assert main(["oracle", "--game", str(game_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "iterations=1" in printed
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["v_star"][0] == pytest.approx(1.0)


def test_oracle_command_reports_the_saddle_gap_and_warns_without_a_pure_saddle(tmp_path, capsys):
    pennies = games.matrix_team_game([[1.0, -1.0], [-1.0, 1.0]], 1, 1)
    saddle = games.matrix_team_game([[2.0, 1.0], [1.0, 0.0]], 1, 1)
    for label, g in (("pennies", pennies), ("saddle", saddle)):
        games.save_game(g, tmp_path / f"{label}.json")
        out = tmp_path / label
        assert main(["oracle", "--game", str(tmp_path / f"{label}.json"), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        written = json.dumps(oracle.solve_superb_q(g).to_document(), indent=2, sort_keys=True)
        assert (out / "oracle.json").read_text() == written
        if label == "pennies":
            assert "max saddle gap=2.000e+00" in captured.out
            assert "no pure saddle in state(s) 0" in captured.err
        else:
            assert "max saddle gap=0.000e+00" in captured.out
            assert captured.err == ""


def test_oracle_command_constant_reward_prints_geometric_value(tmp_path, capsys):
    base = games.random_tabular_game(seed=1, n_states=2, n=1, m=1, actions_per_agent=2, gamma=0.5)
    const = games.TabularGame(base.P, np.full_like(base.R, 0.4), (2,), (2,), 0.5)
    game_path = tmp_path / "game.json"
    games.save_game(const, game_path)
    assert main(["oracle", "--game", str(game_path), "--out", str(tmp_path / "o")]) == 0
    assert "0.800000" in capsys.readouterr().out  # 0.4 / (1 - 0.5)


def test_oracle_command_on_the_acceptance_game_reports_residual(tmp_path, capsys):
    from conftest import acceptance_game

    game_path = tmp_path / "game.json"
    games.save_game(acceptance_game(), game_path)
    assert main(["oracle", "--game", str(game_path), "--tol", "1e-8",
                 "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr().out
    residual = float(printed.split("residual=")[1].split()[0])
    assert residual < 1e-8


def test_eval_roundrobin_needs_two_checkpoints(tmp_path, capsys):
    path = smoke_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    g = games.random_deterministic_game(seed=2, n_states=2, n=1, m=1,
                                        actions_per_agent=2, gamma=0.5, horizon=4)
    game_path = tmp_path / "game.json"
    games.save_game(g, game_path)
    code = main([
        "eval", "--checkpoints", str(out / "checkpoints"),
        "--game", str(game_path), "--mode", "roundrobin",
        "--out", str(tmp_path / "eval"),
    ])
    # exactly one checkpoint on disk
    assert code == 1
    assert "at least 2" in capsys.readouterr().err


@pytest.fixture
def saddle_setup(tmp_path):
    g = games.random_saddle_game(seed=1, n_states=4, n=2, m=2, actions_per_agent=2, gamma=0.8)
    game_path = tmp_path / "game.json"
    games.save_game(g, game_path)
    return g, str(game_path)


def test_eval_nashconv_of_oracle_checkpoint_is_zero(tmp_path, saddle_setup):
    g, game_path = saddle_setup
    sol = oracle.solve_superb_q(g, tol=1e-10)
    pair = sol.policy_pair(g)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    doc = {"version": 1, "kind": "state_tables", "method": "oracle", "episode": 0, "seed": 0}
    doc.update(pair.to_document())
    write_json(ckpt_dir / "ckpt_ep000000.json", doc)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoints", str(ckpt_dir), "--game", game_path,
                 "--mode", "nashconv", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["curves"]["nashconv"][0]["value"]) <= 1e-6


def test_eval_trend_monotone_cohort_reports_one(tmp_path):
    g = games.matrix_team_game([[1.0, 1.0], [-1.0, -1.0]], 1, 1)
    game_path = write_json(tmp_path / "game.json", games.game_to_document(g))
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    for episode, (pro, ant) in enumerate([((1,), (0,)), ((0,), (0,))]):
        doc = {
            "version": 1, "kind": "state_tables", "method": "scripted",
            "episode": episode, "seed": 0,
            "pro": [[pro[0]]], "ant": [[ant[0]]],
        }
        write_json(ckpt_dir / f"ckpt_ep{episode:06d}.json", doc)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoints", str(ckpt_dir), "--game", game_path,
                 "--mode", "trend", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["extras"]["trend_fraction"] == 1.0


def test_eval_vsbot_mode_writes_curve(tmp_path, saddle_setup):
    g, game_path = saddle_setup
    sol = oracle.solve_superb_q(g, tol=1e-10)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    doc = {"version": 1, "kind": "state_tables", "method": "oracle", "episode": 5, "seed": 0}
    doc.update(sol.policy_pair(g).to_document())
    write_json(ckpt_dir / "ckpt_ep000005.json", doc)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoints", str(ckpt_dir), "--game", game_path,
                 "--mode", "vsbot", "--out", str(out)]) == 0
    assert (out / "curve_vsbot.csv").exists()


def test_ablate_rejects_non_increasing_sizes(tmp_path, capsys):
    path = smoke_config(tmp_path, buffer_sizes={"small": 50, "large": 20, "full": None})
    code = main(["ablate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "increasing" in capsys.readouterr().err


def test_ablate_smoke_writes_report(tmp_path):
    path = smoke_config(
        tmp_path,
        episodes=4,
        checkpoint_every=2,
        buffer_sizes={"small": 4, "large": 8, "full": None},
    )
    out = tmp_path / "out"
    assert main(["ablate", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "final_rr_norm" in report["extras"]


def test_unknown_game_kind_is_a_schema_error(tmp_path, capsys):
    path = smoke_config(tmp_path, game={"kind": "chess"})
    assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "game.kind" in capsys.readouterr().err


def test_runtime_failure_exits_two(tmp_path, capsys):
    # schema-valid config whose method cannot run on the chosen game
    path = smoke_config(tmp_path, method="jminimax",
                        game={"kind": "grid", "side": 3, "horizon": 5})
    assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "tabular" in capsys.readouterr().err


def test_eval_skips_unloadable_checkpoints_with_a_warning(tmp_path, capsys, saddle_setup):
    g, game_path = saddle_setup
    sol = oracle.solve_superb_q(g, tol=1e-10)
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    good = {"version": 1, "kind": "state_tables", "method": "oracle", "episode": 1, "seed": 0}
    good.update(sol.policy_pair(g).to_document())
    write_json(ckpt_dir / "ckpt_ep000001.json", good)
    write_json(ckpt_dir / "broken.json", {"kind": "mystery"})
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoints", str(ckpt_dir), "--game", game_path,
                 "--mode", "nashconv", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "skipping" in err and "broken.json" in err


def test_unknown_top_level_key_is_a_schema_error(tmp_path, capsys):
    path = smoke_config(tmp_path, learning_rte=0.01)
    assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "learning_rte" in capsys.readouterr().err


def test_echoed_config_is_accepted_and_reproduces_the_run(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", smoke_config(tmp_path, episodes=2), "--out", str(out_a)]) == 0
    echoed = json.loads((out_a / "config.json").read_text())["config"]
    path = write_json(tmp_path / "echoed.json", echoed)
    assert main(["train", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


#: sha256 of metrics.csv and of the one checkpoint for each baseline at the
#: configs below; any change to a baseline's arithmetic or draw order shows.
BASELINE_GOLDEN = {
    "iql": (
        "4ba3473863740bfc08efdcda37b51fec36f2cdd23bf24550c886ab1205bc51ee",
        "8141b32839bde8070ddd79fb76d81e67976fcb3af17979f4538aa2b0e2332004",
    ),
    "jminimax": (
        "48192442b61e308b20830e27eea62851c80b26a3abb9a3530360886de46e3abd",
        "f06246fd4605742376db8b1ae2b33a3ac6c544beff0eee64169fc0f6fd1d45a2",
    ),
}


@pytest.mark.parametrize("method", sorted(BASELINE_GOLDEN))
def test_baseline_outputs_match_their_golden_hashes(tmp_path, method):
    game = {"kind": "random_deterministic", "seed": 2, "n_states": 3, "n": 2, "m": 1,
            "actions_per_agent": 2, "gamma": 0.7, "horizon": 5}
    settings = {
        "iql": {"episodes": 20, "alpha": 0.2, "eval_every": 5, "buffer_capacity": 30, "seed": 2},
        "jminimax": {"episodes": 30, "alpha": 0.5, "epsilon_decay_fraction": 0.5, "seed": 9},
    }[method]
    path = write_json(tmp_path / "config.json", {"game": game, "method": method, **settings})
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    (ckpt,) = sorted((out / "checkpoints").iterdir())
    digests = tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (out / "metrics.csv", ckpt)
    )
    assert digests == BASELINE_GOLDEN[method]


def test_iql_refuses_non_exploratory_epsilon_start(tmp_path, capsys):
    path = smoke_config(tmp_path, method="iql", epsilon_start=0.0)
    assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "epsilon_start" in capsys.readouterr().err


def test_window_two_with_tabular_nashconv_evals_is_refused_before_training(tmp_path, capsys):
    path = smoke_config(tmp_path, episodes=4, history_window=2, eval_every=2)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 1
    assert "history_window" in capsys.readouterr().err
    assert not out.exists()


GOLDEN_GAME = {"kind": "random_deterministic", "seed": 2, "n_states": 3, "n": 2, "m": 1,
               "actions_per_agent": 2, "gamma": 0.7, "horizon": 5}

#: Config overrides, then sha256 of metrics.csv and of the last checkpoint.
#: The small buffer holds 16 of the run's 60 steps, so its ring wraps; the
#: neural IQL buffers hold 12 of 50.
TRAIN_GOLDEN = {
    "fm3q-full": (
        {"method": "fm3q", "episodes": 12, "updates_per_round": 4, "eval_every": 4,
         "checkpoint_every": 6, "seed": 3},
        (
            "7bb9ab6b537f06760dcd954b4e1eaf7aadb585e2808186dac3c88ad5aaeb7519",
            "a3c7caa5b459d671ddafed7d6ea39d94d52e65ea05f6b33f9439eefd77be068e",
        ),
    ),
    "fm3q-small": (
        {"method": "fm3q", "episodes": 12, "updates_per_round": 4, "buffer_mode": "small",
         "buffer_capacity": 16, "checkpoint_every": 6, "seed": 5},
        (
            "9fa60ff426c5f1f21b209c8b33db4ec119e801e0868ec57754196d47cff2b2d7",
            "632c0cacdb8743325e042ebbc590dd45d92e7981cd9a5bf7221e313af5e17b10",
        ),
    ),
    "iql-neural": (
        {"method": "iql", "backend": "neural", "episodes": 10, "updates_per_round": 4,
         "buffer_capacity": 12, "eval_every": 5, "seed": 4},
        (
            "93accc72ab92d099ea79912e70b5e7736f63f3022550cbc5fd557dfbd7ed8d96",
            "578124259b3a4ddfea1f28227a59111efd96b740aba6389bb1bcd181bfe8c4ca",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(TRAIN_GOLDEN))
def test_training_outputs_match_their_golden_hashes(tmp_path, name):
    overrides, golden = TRAIN_GOLDEN[name]
    doc = {"game": GOLDEN_GAME, "hidden_layers": [8], "mix_hidden_dim": 4, **overrides}
    path = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    last = sorted((out / "checkpoints").iterdir())[-1]
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out / "metrics.csv", last))
    assert digests == golden
