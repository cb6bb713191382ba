"""Experiment harness: cell grammar, config resolution, run artifacts,
sweeps, and the command-line front-end."""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spotrl import harness
from spotrl.cli import main
from spotrl.envs.blockworld import BlockWorld
from spotrl.envs.gridworld import GridWorld
from spotrl.qfunction import LinearQ, TabularQ
from spotrl.rewards import REWARD_KINDS, ConfigError, RewardConfig
from spotrl.trainer import (TERMINATION_COMPLETE, TERMINATION_LIMIT, AgentConfig, evaluate,
                            run_training)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# -- cell grammar -----------------------------------------------------------


def test_parse_cell_grammar():
    assert harness.parse_cell("spotq+trial_progress") == (True, True, "trial_progress")
    assert harness.parse_cell("none+base") == (False, False, "base")
    assert harness.parse_cell("mask") == (True, False, "base")
    assert harness.parse_cell("progress") == (False, False, "progress")
    assert harness.parse_cell("sr+mask") == (True, False, "sr")  # order-free


def test_parse_cell_errors():
    with pytest.raises(ConfigError):
        harness.parse_cell("mask+none")
    with pytest.raises(ConfigError):
        harness.parse_cell("base+sr")
    with pytest.raises(ConfigError):
        harness.parse_cell("turbo+base")


def test_cell_label_round_trips_every_cell():
    for policy in ((False, False), (True, False), (True, True)):
        for kind in REWARD_KINDS:
            label = harness.cell_label(policy[0], policy[1], kind)
            assert harness.parse_cell(label) == (policy[0], policy[1], kind)


# -- flat config text -------------------------------------------------------


def test_parse_config_text():
    text = """
    # a comment line
    env = blockworld
    budget = 500   # trailing comment
    task=row

    cells = none+base, spotq+sr
    """
    assert harness.parse_config_text(text) == {
        "env": "blockworld",
        "budget": "500",
        "task": "row",
        "cells": "none+base, spotq+sr",
    }


def test_parse_config_text_rejects_bare_words():
    with pytest.raises(ConfigError):
        harness.parse_config_text("env blockworld")


# -- run-config resolution --------------------------------------------------


def test_gridworld_defaults(monkeypatch):
    monkeypatch.delenv(harness.OUTPUT_ROOT_VAR, raising=False)
    rc = harness.resolve_run_config({"cell": "spotq+progress", "seed": "3"})
    assert rc.environment == "gridworld"
    assert (rc.use_mask, rc.use_spotq, rc.reward_kind) == (True, True, "progress")
    assert rc.budget == 200_000
    assert rc.learning_rate == 0.3
    assert rc.train_steps_per_action == 8
    assert rc.per_exponent == 0.25
    assert rc.replay_capacity == 50_000
    assert (rc.epsilon_start, rc.epsilon_end, rc.epsilon_decay_steps) == (0.5, 0.1, 100_000)
    assert (rc.validation_every, rc.validation_trials) == (10_000, 30)
    assert rc.stop_on_convergence is True
    assert rc.type_filter_prob == 0.95
    assert (rc.learn_discount, rc.trial_discount) == (0.9, 0.65)
    assert rc.weights == {"forward": 1.0, "turn_left": 1.0, "turn_right": 1.0}
    assert (rc.eval_trials, rc.eval_seed_offset) == (200, 1_000)
    assert rc.out == str(Path("runs") / "spotq+progress-s3")
    assert rc.run_id == "spotq+progress-s3"


def test_blockworld_defaults():
    rc = harness.resolve_run_config({"env": "blockworld", "cell": "none+sr",
                                     "out": "x"})
    assert rc.budget == 20_000
    assert rc.learning_rate == 0.2
    assert rc.train_steps_per_action == 1
    assert rc.replay_capacity == 100_000
    assert (rc.epsilon_start, rc.epsilon_end, rc.epsilon_decay_steps) == (0.5, 0.05, None)
    assert (rc.validation_every, rc.validation_trials) == (2_000, 30)
    assert (rc.learn_discount, rc.trial_discount) == (0.65, 0.65)
    assert rc.weights == {"grasp": 1.0, "place": 2.5, "push": 0.5}
    assert (rc.eval_trials, rc.eval_seed_offset) == (100, 3_000)
    assert rc.task == "stack"


def test_resolution_errors():
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"env": "marsworld"})
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"env": "blockworld", "task": "tower", "out": "x"})
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"budget_typo": "5", "out": "x"})
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"budget": "abc", "out": "x"})
    with pytest.raises(ConfigError):  # sweep-only key in a run config
        harness.resolve_run_config({"cells": "none+base", "out": "x"})
    with pytest.raises(ConfigError):  # an override must name an action type
        harness.resolve_run_config({"weight.": "2.0", "out": "x"})
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"weight.place": "heavy", "out": "x"})


def test_weight_overrides_merge():
    rc = harness.resolve_run_config({"env": "blockworld", "weight.place": "3.5", "out": "x"})
    assert rc.weights == {"grasp": 1.0, "place": 3.5, "push": 0.5}
    with pytest.raises(ConfigError):
        harness.resolve_run_config({"env": "blockworld", "weight.poke": "0.25", "out": "x"})


@pytest.mark.parametrize("env,atype", [("blockworld", "grap"), ("gridworld", "push"),
                                       ("gridworld", "Forward")])
def test_a_weight_for_an_action_type_the_env_lacks_exits_2(env, atype, tmp_path, capsys):
    """A misspelled or foreign action type would train on the default
    weight while config.txt records the override beside it."""
    out = tmp_path / "run"
    argv = ["train", "--env", env, "--budget", "0", "--out", str(out),
            "--set", f"weight.{atype}=2"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown action type {atype!r}")
    assert not out.exists()


def test_discounted_kind_gets_its_own_trial_discount():
    rc = harness.resolve_run_config({"cell": "none+discounted", "out": "x"})
    assert rc.trial_discount == harness.DISCOUNTED_KIND_TRIAL_DISCOUNT
    rc = harness.resolve_run_config({"cell": "none+discounted",
                                     "trial_discount": "0.5", "out": "x"})
    assert rc.trial_discount == 0.5  # explicit settings always win
    rc = harness.resolve_run_config({"cell": "none+trial_progress", "out": "x"})
    assert rc.trial_discount == 0.65


def test_flat_items_round_trip():
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "spotq+trial_progress", "seed": "7",
        "task": "row", "budget": "1234", "weight.place": "1.75",
        "epsilon_decay_steps": "none", "log_steps": "false", "out": "somewhere",
    })
    rebuilt = harness.resolve_run_config(dict(rc.flat_items()))
    assert rebuilt == rc


# config.txt as run_single writes it, for two configs; the text was
# recorded before RunConfig became the one declaration of the run settings.
GOLDEN_CONFIGS = [
    ({"out": "x"}, """\
action_limit = none
budget = 200000
cell = none+base
env = gridworld
epsilon_decay_steps = 100000
epsilon_end = 0.1
epsilon_start = 0.5
eval_seed_offset = 1000
eval_trials = 200
goal_size = 4
learn_discount = 0.9
learning_rate = 0.3
log_steps = True
num_blocks = 4
out = x
per_exponent = 0.25
replay_capacity = 50000
seed = 0
stop_on_convergence = True
task = stack
train_steps_per_action = 8
trial_discount = 0.65
type_filter_prob = 0.95
validation_every = 10000
validation_trials = 30
weight.forward = 1.0
weight.turn_left = 1.0
weight.turn_right = 1.0
"""),
    ({"env": "blockworld", "cell": "spotq+trial_progress", "seed": "7", "task": "row",
      "weight.place": "1.75", "weight.grasp": "0.25", "epsilon_decay_steps": "none",
      "log_steps": "false", "out": "x"}, """\
action_limit = none
budget = 20000
cell = spotq+trial_progress
env = blockworld
epsilon_decay_steps = none
epsilon_end = 0.05
epsilon_start = 0.5
eval_seed_offset = 3000
eval_trials = 100
goal_size = 4
learn_discount = 0.65
learning_rate = 0.2
log_steps = False
num_blocks = 4
out = x
per_exponent = 0.25
replay_capacity = 100000
seed = 7
stop_on_convergence = True
task = row
train_steps_per_action = 1
trial_discount = 0.65
type_filter_prob = 0.95
validation_every = 2000
validation_trials = 30
weight.grasp = 0.25
weight.place = 1.75
weight.push = 0.5
"""),
]


@pytest.mark.parametrize("values,text", GOLDEN_CONFIGS)
def test_config_text_matches_the_recorded_bytes(values, text):
    rc = harness.resolve_run_config(values)
    assert "".join(f"{key} = {value}\n" for key, value in rc.flat_items()) == text


# A value different from both environments' defaults for every flat config
# key apart from env and weight.<type>.
NON_DEFAULT = {
    "action_limit": "17", "budget": "321", "cell": "mask+trial_sr",
    "epsilon_decay_steps": "4321", "epsilon_end": "0.125", "epsilon_start": "0.375",
    "eval_seed_offset": "77", "eval_trials": "9", "goal_size": "3",
    "learn_discount": "0.5", "learning_rate": "0.0625", "log_steps": "False",
    "num_blocks": "5", "out": "elsewhere", "per_exponent": "1.5",
    "replay_capacity": "999", "seed": "11", "stop_on_convergence": "False",
    "task": "row", "train_steps_per_action": "3", "trial_discount": "0.25",
    "type_filter_prob": "0.5", "validation_every": "123", "validation_trials": "7",
}


@pytest.mark.parametrize("env", harness.ENVIRONMENTS)
def test_every_flat_key_round_trips_a_non_default_value(env):
    """Each key, set alone, moves only its own flat item, and the flat
    items resolve back to the same RunConfig; so do all keys at once."""
    default = dict(harness.resolve_run_config({"env": env, "out": "x"}).flat_items())
    assert set(NON_DEFAULT) == {k for k in default
                                if k != "env" and not k.startswith("weight.")}
    weight = next(k for k in default if k.startswith("weight."))  # a type the env has
    for key, raw in [*NON_DEFAULT.items(), (weight, "0.125")]:
        assert default.get(key) != raw
        rc = harness.resolve_run_config({"env": env, "out": "x", key: raw})
        flat = dict(rc.flat_items())
        assert flat.pop(key) == raw
        assert flat == {k: v for k, v in default.items() if k != key}
        assert harness.resolve_run_config(dict(rc.flat_items())) == rc
    rc = harness.resolve_run_config({"env": env, **NON_DEFAULT})
    assert {k: v for k, v in rc.flat_items() if k in NON_DEFAULT} == NON_DEFAULT
    assert harness.resolve_run_config(dict(rc.flat_items())) == rc


def test_agent_config_maps_every_setting():
    """agent_config() carries each reference default into the trainer's
    config, none of them left at AgentConfig's own default."""
    grid = harness.resolve_run_config({"out": "x"})
    assert grid.agent_config() == AgentConfig(
        reward=RewardConfig(weights={"forward": 1.0, "turn_left": 1.0, "turn_right": 1.0},
                            trial_discount=0.65, learn_discount=0.9, reward_kind="base"),
        seed=0, training_action_budget=200_000, epsilon_start=0.5, epsilon_end=0.1,
        epsilon_decay_steps=100_000, learning_rate=0.3, train_steps_per_action=8,
        use_mask=False, use_spotq=False, validation_every=10_000, validation_trials=30,
        stop_on_convergence=True, replay_capacity=50_000, per_exponent=0.25,
        type_filter_prob=0.95,
    )
    block = harness.resolve_run_config({"env": "blockworld", "cell": "spotq+trial_progress",
                                        "seed": "3", "out": "x"})
    assert block.agent_config() == AgentConfig(
        reward=RewardConfig(weights={"grasp": 1.0, "place": 2.5, "push": 0.5},
                            trial_discount=0.65, learn_discount=0.65,
                            reward_kind="trial_progress"),
        seed=3, training_action_budget=20_000, epsilon_start=0.5, epsilon_end=0.05,
        epsilon_decay_steps=None, learning_rate=0.2, train_steps_per_action=1,
        use_mask=True, use_spotq=True, validation_every=2_000, validation_trials=30,
        stop_on_convergence=True, replay_capacity=100_000, per_exponent=0.25,
        type_filter_prob=0.95,
    )


def test_per_environment_defaults_share_no_value():
    """A value both environments use is a RunConfig field default instead."""
    shared = harness.GRIDWORLD_DEFAULTS.keys() & harness.BLOCKWORLD_DEFAULTS.keys()
    assert all(harness.GRIDWORLD_DEFAULTS[k] != harness.BLOCKWORLD_DEFAULTS[k]
               for k in shared)


def test_output_root_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv(harness.OUTPUT_ROOT_VAR, str(tmp_path / "exp"))
    assert harness.output_root() == tmp_path / "exp"
    rc = harness.resolve_run_config({"cell": "mask+sr", "seed": "2"})
    assert rc.out == str(tmp_path / "exp" / "mask+sr-s2")


# -- experiment specs -------------------------------------------------------


def test_resolve_experiment_spec():
    spec = harness.resolve_experiment_spec({
        "env": "blockworld", "cells": "none+base, spotq+sr", "seeds": "0 1",
        "budget": "500", "out": "x",
    })
    assert [(rc.cell, rc.seed) for rc in spec.runs] == [
        ("none+base", 0), ("none+base", 1), ("spotq+sr", 0), ("spotq+sr", 1)]
    assert [rc.out for rc in spec.runs] == [
        str(Path("x") / cell / f"seed_{s}")
        for cell in ("none+base", "spotq+sr") for s in (0, 1)
    ]
    assert all(rc.budget == 500 and rc.environment == "blockworld" for rc in spec.runs)
    assert (spec.out, spec.workers) == ("x", None)


def test_experiment_spec_errors():
    base = {"env": "blockworld", "cells": "none+base", "seeds": "0 1", "out": "x"}
    with pytest.raises(ConfigError):
        harness.resolve_experiment_spec({k: v for k, v in base.items() if k != "cells"})
    with pytest.raises(ConfigError):
        harness.resolve_experiment_spec({k: v for k, v in base.items() if k != "seeds"})
    with pytest.raises(ConfigError):
        harness.resolve_experiment_spec({**base, "seeds": "3"})  # min/max needs two
    with pytest.raises(ConfigError):
        harness.resolve_experiment_spec({**base, "seeds": "3 3"})
    with pytest.raises(ConfigError):  # one output directory per cell
        harness.resolve_experiment_spec({**base, "cells": "none+base,none"})
    for key, value in (("seed", "3"), ("cell", "spotq+sr")):  # the sweep sets both
        with pytest.raises(ConfigError, match=f"not '{key}'"):
            harness.resolve_experiment_spec({**base, key: value})
    with pytest.raises(ConfigError):  # override typos fail before training
        harness.resolve_experiment_spec({**base, "bugdet": "5"})
    with pytest.raises(ConfigError):
        harness.resolve_experiment_spec({**base, "workers": "many"})
    for workers in ("0", "-1"):  # not "auto" or "serial" in disguise
        with pytest.raises(ConfigError):
            harness.resolve_experiment_spec({**base, "workers": workers})


def test_summarize_cell_and_table_cells():
    results = {
        0: {"completion_rate": 0.5, "mean_efficiency": 0.2, "convergence_actions": 2000},
        1: {"completion_rate": 1.0, "mean_efficiency": 0.4, "convergence_actions": None},
    }
    cs = harness.summarize_cell("mask+sr", [0, 1], results, {})
    assert (cs["completion_rate_min"], cs["completion_rate_max"]) == (0.5, 1.0)
    assert (cs["efficiency_min"], cs["efficiency_max"]) == (0.2, 0.4)
    assert (cs["convergence_actions_min"], cs["convergence_actions_max"]) == (2000, 2000)
    assert (cs["seeds_completed"], cs["seeds_converged"]) == (2, 1)
    (row,) = harness.sweep_table_rows([cs])
    assert row == ("no", "yes", "sr", "50.0-100.0", "20.0-40.0", "2000-none")

    crashed = harness.summarize_cell("none+base", [0, 1],
                                     {}, {0: "boom\nValueError: x", 1: "t\nE: y"})
    assert crashed["completion_rate_min"] is None
    assert crashed["failures"] == {"0": "ValueError: x", "1": "E: y"}
    (row,) = harness.sweep_table_rows([crashed])
    assert row[3] == "error" and row[5] == "error"



def test_sweep_table_convergence_cell_when_every_seed_converged():
    """With every seed converged the cell is one count for equal values and
    a low-high range otherwise, with no 'none' end."""
    results = {
        0: {"completion_rate": 1.0, "mean_efficiency": 0.5, "convergence_actions": 2000},
        1: {"completion_rate": 1.0, "mean_efficiency": 0.5, "convergence_actions": 2000},
    }
    cs = harness.summarize_cell("spotq+progress", [0, 1], results, {})
    assert (cs["seeds_completed"], cs["seeds_converged"]) == (2, 2)
    assert harness.sweep_table_rows([cs])[0][5] == "2000"
    results[1]["convergence_actions"] = 4000
    cs = harness.summarize_cell("spotq+progress", [0, 1], results, {})
    assert harness.sweep_table_rows([cs])[0][5] == "2000-4000"

def test_format_aligned():
    text = harness.format_aligned(("a", "long"), [("xx", "y"), ("z", "wwwww")])
    lines = text.splitlines()
    assert lines[0] == "a   long"
    assert lines[1] == "--  -----"
    assert lines[2] == "xx  y"
    assert lines[3] == "z   wwwww"
    assert text.endswith("\n")


# -- one full run and its artifacts ----------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One real block-world training run shared by the artifact tests."""
    out = tmp_path_factory.mktemp("run") / "artifacts"
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "spotq+trial_progress", "seed": "0",
        "budget": "4000", "validation_every": "1000", "validation_trials": "5",
        "eval_trials": "20", "out": str(out),
    })
    payload = harness.run_single(rc)
    return rc, Path(rc.out), payload


def test_run_artifacts_exist(trained_run):
    _, run_dir, _ = trained_run
    names = {p.name for p in run_dir.iterdir()}
    assert {"config.txt", "steps.csv", "trials.csv", "validation.csv",
            "eval_trials.csv", "summary.json", "qtable.txt"} <= names


def test_config_artifact_reproduces_the_run(trained_run):
    rc, run_dir, _ = trained_run
    values = harness.parse_config_text((run_dir / "config.txt").read_text())
    assert harness.resolve_run_config(values) == rc


def test_csv_headers(trained_run):
    _, run_dir, _ = trained_run
    assert read_csv(run_dir / "steps.csv")[0] == list(harness.STEP_COLUMNS)
    assert read_csv(run_dir / "trials.csv")[0] == list(harness.TRIAL_COLUMNS)
    assert read_csv(run_dir / "validation.csv")[0] == list(harness.VALIDATION_COLUMNS)
    assert read_csv(run_dir / "eval_trials.csv")[0] == list(harness.TRIAL_COLUMNS)


def test_summary_recomputable_from_csvs(trained_run):
    """Every summary metric can be recovered from the CSV artifacts alone."""
    rc, run_dir, payload = trained_run
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary == payload

    _, eval_rows = read_csv(run_dir / "eval_trials.csv")
    assert len(eval_rows) == 20
    completed = [r for r in eval_rows if r[1] == "1"]
    assert summary["completion_rate"] == len(completed) / len(eval_rows)
    mean_eff = (sum(float(r[4]) for r in completed) / len(completed)
                if completed else 0.0)
    assert summary["mean_efficiency"] == pytest.approx(mean_eff, abs=1e-12)

    _, trial_rows = read_csv(run_dir / "trials.csv")
    assert summary["training_trials"] == len(trial_rows)
    assert [int(r[0]) for r in trial_rows] == list(range(len(trial_rows)))

    _, val_rows = read_csv(run_dir / "validation.csv")
    perfect = [int(r[1]) for r in val_rows if r[2] == r[3]]
    expected_convergence = perfect[0] if perfect else None
    assert summary["convergence_actions"] == expected_convergence


def test_steps_csv_matches_trials(trained_run):
    """steps.csv rows group into the trials.csv action counts; only a
    budget- or stop-cut final trial may appear without a trial row, and its
    propagated-reward column stays blank."""
    rc, run_dir, _ = trained_run
    _, step_rows = read_csv(run_dir / "steps.csv")
    _, trial_rows = read_csv(run_dir / "trials.csv")
    actions_by_trial = {}
    for row in step_rows:
        assert row[0] == rc.run_id
        actions_by_trial.setdefault(int(row[1]), []).append(row)
    finished = {int(r[0]): int(r[2]) for r in trial_rows}
    for trial_id, rows in actions_by_trial.items():
        steps = [int(r[2]) for r in rows]
        assert steps == list(range(len(steps)))
        if trial_id in finished:
            assert len(rows) == finished[trial_id]
            assert all(r[8] != "" for r in rows)  # propagated rewards filled
        else:
            assert all(r[8] == "" for r in rows)  # unfinished: never filled
    unfinished = set(actions_by_trial) - set(finished)
    assert len(unfinished) <= 1


def test_qtable_artifact_round_trips(trained_run):
    """Reloading qtable.txt rebuilds a Q-function that evaluates identically."""
    rc, run_dir, payload = trained_run
    q, loaded = harness.load_qdump(run_dir / "qtable.txt")
    assert isinstance(q, LinearQ)
    assert q.kind == "linear"
    assert loaded.environment == "blockworld"
    assert loaded.cell == "spotq+trial_progress"
    assert q.records()
    summary, _ = evaluate(q, rc.make_env, rc.eval_trials,
                          seed=rc.eval_seed_offset + rc.seed, use_mask=rc.use_mask)
    assert summary["completion_rate"] == payload["completion_rate"]
    assert summary["mean_efficiency"] == payload["mean_efficiency"]


def test_partial_trial_logs_blank_trial_reward(tmp_path):
    """A budget cut mid-trial leaves steps logged with a blank propagated
    reward and no trials.csv row."""
    rc = harness.resolve_run_config({
        "cell": "mask+base", "seed": "0", "budget": "40", "validation_every": "0",
        "eval_trials": "1", "out": str(tmp_path / "cut"),
    })
    harness.run_single(rc)
    _, step_rows = read_csv(Path(rc.out) / "steps.csv")
    _, trial_rows = read_csv(Path(rc.out) / "trials.csv")
    assert len(step_rows) == 40
    finished = {int(r[0]) for r in trial_rows}
    blank = [r for r in step_rows if int(r[1]) not in finished]
    assert blank and all(r[8] == "" for r in blank)


def test_a_rerun_leaves_no_file_of_the_run_before(tmp_path):
    """Re-running into the same directory drops the earlier run's
    error.txt, and its steps.csv when the new run logs no steps."""
    values = {"env": "blockworld", "cell": "none+base", "seed": "1", "budget": "60",
              "validation_every": "0", "eval_trials": "2", "out": str(tmp_path / "run")}
    harness.run_single(harness.resolve_run_config(values))
    run_dir = tmp_path / "run"
    (run_dir / "error.txt").write_text("Traceback: an earlier crash\n")
    harness.run_single(harness.resolve_run_config({**values, "log_steps": "false"}))
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "config.txt", "eval_trials.csv", "qtable.txt", "summary.json", "trials.csv",
        "validation.csv"]


def test_log_steps_off_skips_the_file(tmp_path):
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "none+base", "seed": "1", "budget": "60",
        "validation_every": "0", "eval_trials": "2", "log_steps": "false",
        "out": str(tmp_path / "nolog"),
    })
    harness.run_single(rc)
    assert not (Path(rc.out) / "steps.csv").exists()
    assert (Path(rc.out) / "trials.csv").exists()


class Appended:
    """Observer that forwards each call to a RunLogger and records the rows
    the call appended to the logger's stream, beside the steps it was given."""

    def __init__(self, logger, stream):
        self.logger = logger
        self.stream = stream
        self.calls = []

    def _forward(self, method, *args, traces=()):
        start = len(self.stream.getvalue())
        method(*args)
        rows = list(csv.reader(io.StringIO(self.stream.getvalue()[start:])))
        steps = [(t.experience.trial_id, t.experience.step_index) for t in traces]
        self.calls.append((method.__name__, steps, rows))

    def on_trial(self, record, traces):
        self._forward(self.logger.on_trial, record, traces, traces=traces)

    def on_partial_trial(self, traces):
        self._forward(self.logger.on_partial_trial, traces, traces=traces)

    def on_validation(self, *args):
        self._forward(self.logger.on_validation, *args)


def test_step_log_streams_each_trial_as_it_ends():
    """The header goes out first; each finished or budget-cut trial's rows
    are appended when its observer call comes, and nothing else appends.
    The logger keeps no step rows of its own."""
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "spotq+trial_progress", "seed": "2",
        "budget": "300", "validation_every": "100", "validation_trials": "2",
        "out": "unused",
    })
    stream = io.StringIO()
    logger = harness.RunLogger(rc.run_id, stream)
    assert stream.getvalue() == ",".join(harness.STEP_COLUMNS) + "\n"
    observer = Appended(logger, stream)
    run_training(rc.make_env, rc.agent_config(), q=rc.make_q(), observer=observer)

    names = [name for name, _, _ in observer.calls]
    assert names.count("on_validation") == 3 and names[-1] == "on_partial_trial"
    assert names.count("on_trial") >= 2
    for name, steps, rows in observer.calls:
        assert [(int(r[1]), int(r[2])) for r in rows] == steps
        assert all(r[0] == rc.run_id for r in rows)
        # A finished trial's rows carry its propagated reward; a cut one's stay blank.
        assert all((r[8] == "") == (name == "on_partial_trial") for r in rows)
    assert sum(len(rows) for _, _, rows in observer.calls) == 300
    assert len(logger.validation_rows) == 3
    # Nothing the logger holds grows with the steps: no collection in it is
    # longer than its validation rows.
    held = [v for v in vars(logger).values() if isinstance(v, (list, tuple, dict, set))]
    assert held and max(map(len, held)) == 3


def test_a_failed_run_keeps_its_finished_trials_rows(tmp_path, monkeypatch):
    """Training that raises mid-trial leaves steps.csv holding the header and
    the rows of every trial that finished before the fault, byte for byte
    as the unbroken run wrote them."""
    values = {"cell": "mask+progress", "seed": "0", "budget": "300",
              "validation_every": "0", "eval_trials": "1"}
    full = harness.resolve_run_config({**values, "out": str(tmp_path / "full")})
    harness.run_single(full)
    full_text = (tmp_path / "full" / "steps.csv").read_text()
    _, trial_rows = read_csv(tmp_path / "full" / "trials.csv")

    fault_at = 150
    step = GridWorld.step
    calls = itertools.count(1)

    def failing_step(self, action):
        if next(calls) == fault_at:
            raise RuntimeError("env fault")
        return step(self, action)

    monkeypatch.setattr(GridWorld, "step", failing_step)
    cut = harness.resolve_run_config({**values, "out": str(tmp_path / "cut")})
    with pytest.raises(RuntimeError, match="env fault"):
        harness.run_single(cut)
    ends = list(itertools.accumulate(int(r[2]) for r in trial_rows))
    finished_actions = max(end for end in ends if end < fault_at)
    assert finished_actions > 0
    lines = full_text.splitlines(keepends=True)
    assert (tmp_path / "cut" / "steps.csv").read_text() == "".join(lines[:1 + finished_actions])
    assert not (tmp_path / "cut" / "trials.csv").exists()


# -- command-line interface -------------------------------------------------


def test_cli_train_flags_and_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("env = blockworld\nbudget = 9999\nvalidation_every = 0\n"
                   "eval_trials = 3\nlog_steps = false\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--budget", "150",
                 "--cell", "spotq+progress", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    values = harness.parse_config_text((out / "config.txt").read_text())
    assert values["budget"] == "150"  # the flag beat the file
    assert values["cell"] == "spotq+progress"
    assert "run spotq+progress-s2" in capsys.readouterr().out


def test_cli_train_set_overrides(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--env", "blockworld", "--cell", "mask+sr",
                 "--budget", "80", "--out", str(out),
                 "--set", "validation_every=0", "--set", "eval_trials=2",
                 "--set", "log_steps=false", "--set", "weight.place=9.0"])
    assert code == 0
    values = harness.parse_config_text((out / "config.txt").read_text())
    assert values["weight.place"] == "9.0"


def test_cli_config_errors_exit_2(tmp_path, capsys):
    """Each bad argument exits 2 with its own first stderr line."""
    missing = tmp_path / "missing.txt"
    cases = [
        (["train", "--cell", "mask+banana", "--out", str(tmp_path)],
         "error: unknown cell token 'banana' in 'mask+banana'"),
        (["train", "--set", "nonsense", "--out", str(tmp_path)],
         "error: --set expects KEY=VALUE, got 'nonsense'"),
        (["eval", "--model", str(missing)], f"error: model file not found: {missing}"),
        (["sweep", "--cells", "none+base", "--seeds", "0", "--out", str(tmp_path)],
         "error: a sweep needs at least two seeds (min/max reporting)"),
        (["sweep", "--cells", "none+base", "--seeds", "0,0", "--out", str(tmp_path)],
         "error: duplicate seeds in sweep"),
        (["sweep", "--cells", "none+base,none+base", "--seeds", "0,1",
          "--set", "seed=3", "--out", str(tmp_path)],
         "error: sweeps take 'seeds' (a list), not 'seed'"),
        (["sweep", "--env", "blockworld", "--cells", "none+base", "--seeds", "0,1",
          "--set", "cell=spotq+sr", "--out", str(tmp_path / "cell")],
         "error: sweeps take 'cells' (a list), not 'cell'"),
        (["train", "--set", "log_steps=maybe", "--out", str(tmp_path / "bool")],
         "error: not a boolean: 'maybe'"),
        (["sweep", "--cells", ",", "--seeds", "0,1", "--out", str(tmp_path / "cells")],
         "error: a sweep needs at least one cell"),
    ]
    for argv, first_line in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines()[0] == first_line
    for name in ("cell", "bool", "cells"):
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("settings", [
    ("epsilon_end=2",),
    ("replay_capacity=0",),
    ("learning_rate=0",),
    ("learning_rate=1.5",),
    ("learning_rate=nan",),
    ("learning_rate=inf",),
    ("weight.place=nan",),
    ("weight.place=inf",),
    ("per_exponent=inf",),
    ("per_exponent=-1",),
    ("type_filter_prob=2",),
    ("type_filter_prob=nan",),
    ("weight.place=-1",),
    ("train_steps_per_action=-1",),
    ("validation_every=-5",),
    ("validation_trials=0",),
    ("eval_trials=0",),
    ("epsilon_decay_steps=0",),
    ("num_blocks=20",),
    ("goal_size=9",),
    ("goal_size=1",),
    ("task=row", "num_blocks=3"),
    ("task=row", "num_blocks=13"),
    ("task=row", "goal_size=3", "num_blocks=12"),
    ("task=row", "goal_size=5", "num_blocks=5"),
    ("task=clear", "num_blocks=0"),
    ("action_limit=0",),
    ("budget=-5",),
    ("num_blocks=16",),
])
def test_cli_rejects_settings_no_run_can_use(settings, tmp_path, capsys):
    """A setting that would crash training, or run it to a meaningless
    result, exits 2 with an error line before any artifact is written."""
    argv = ["train", "--env", "blockworld", "--out", str(tmp_path / "run")]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_cli_io_errors_exit_3(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["train", "--env", "blockworld", "--cell", "none+base",
                 "--budget", "10", "--out", str(blocker / "sub"),
                 "--set", "validation_every=0", "--set", "eval_trials=1",
                 "--set", "log_steps=false"])
    assert code == 3
    assert capsys.readouterr().err.splitlines()[0].startswith(
        "error: cannot write run artifacts: ")



def test_cli_unreadable_config_file_exits_2(tmp_path, capsys):
    """A missing config file, and one that is not UTF-8 text, exit 2 with
    an error line for both train and sweep."""
    (tmp_path / "binary.conf").write_bytes(b"env = \xff\xfe\n")
    out = tmp_path / "run"
    for command in ("train", "sweep"):
        for name in ("missing.conf", "binary.conf"):
            code = main([command, "--config", str(tmp_path / name), "--out", str(out)])
            assert code == 2, (command, name)
            assert capsys.readouterr().err.startswith("error: cannot read config file")
            assert not out.exists()


def test_cli_sweep_out_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["sweep", "--cells", "none+base", "--seeds", "0,1", "--budget", "10",
                 "--workers", "1", "--out", str(blocker / "sub"),
                 "--set", "validation_every=0", "--set", "eval_trials=1",
                 "--set", "log_steps=false"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: cannot write sweep artifacts")

def test_cli_eval_writes_json_and_csv(trained_run, tmp_path, capsys):
    _, run_dir, payload = trained_run
    out = tmp_path / "checks" / "eval.json"
    code = main(["eval", "--model", str(run_dir / "qtable.txt"),
                 "--trials", "10", "--seed", "3000", "--out", str(out)])
    assert code == 0
    written = json.loads(out.read_text())
    assert written["use_mask"] is True  # inherited from the model's cell
    assert written["trials"] == 10
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == list(harness.TRIAL_COLUMNS)
    assert len(rows) == 10
    printed = json.loads(capsys.readouterr().out)
    assert printed == written

    code = main(["eval", "--model", str(run_dir / "qtable.txt"),
                 "--trials", "5", "--no-mask", "--out", str(tmp_path / "nm.json")])
    assert code == 0
    assert json.loads((tmp_path / "nm.json").read_text())["use_mask"] is False
    capsys.readouterr()


def test_cli_eval_refuses_an_out_the_csv_would_overwrite(trained_run, tmp_path, capsys):
    """The trial CSV goes beside the JSON under a .csv suffix, so an --out
    that already ends in .csv exits 2 before anything is evaluated."""
    _, run_dir, _ = trained_run
    out = tmp_path / "res.csv"
    code = main(["eval", "--model", str(run_dir / "qtable.txt"), "--trials", "2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out}")
    assert not out.exists()


def test_cli_eval_fixed_scenario_replay(trained_run, tmp_path, capsys):
    """--scenario replays one serialized arrangement; repeat runs match."""
    _, run_dir, _ = trained_run
    env = BlockWorld(task="stack")
    env.reset(11)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(env.to_text())
    outputs = []
    for name in ("a.json", "b.json"):
        code = main(["eval", "--model", str(run_dir / "qtable.txt"),
                     "--trials", "6", "--seed", "4", "--scenario", str(scenario),
                     "--out", str(tmp_path / name)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / name).read_text())
        outputs.append((payload["completion_rate"], payload["mean_efficiency"],
                        payload["success_rates"]))
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def trained_row_run(tmp_path_factory):
    """A tiny row-task run whose qtable header holds non-default task,
    goal size and block count."""
    out = tmp_path_factory.mktemp("row") / "run"
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "mask+trial_progress", "task": "row",
        "goal_size": "3", "num_blocks": "5", "budget": "300",
        "validation_every": "0", "eval_trials": "8", "log_steps": "false",
        "out": str(out),
    })
    return rc, harness.run_single(rc)


@pytest.fixture
def built_worlds(monkeypatch):
    """(task, goal_size, num_blocks) of every BlockWorld constructed."""
    built = []
    init = BlockWorld.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.task, self.goal_size, self.num_blocks))

    monkeypatch.setattr(BlockWorld, "__init__", recording_init)
    return built


def test_load_qdump_rebuilds_the_header_env(trained_row_run, built_worlds):
    rc, payload = trained_row_run
    q, _ = harness.load_qdump(Path(rc.out) / "qtable.txt")
    assert built_worlds == [("row", 3, 5)]
    summary, _ = evaluate(q, rc.make_env, rc.eval_trials,
                          seed=rc.eval_seed_offset + rc.seed, use_mask=rc.use_mask)
    assert {k: summary[k] for k in ("completion_rate", "mean_efficiency", "success_rates")} \
        == {k: payload[k] for k in ("completion_rate", "mean_efficiency", "success_rates")}


def test_cli_eval_rebuilds_the_header_env(trained_row_run, built_worlds, tmp_path, capsys):
    """Plain eval draws layouts from the header's task, goal size and block
    count (so it repeats the run's own evaluation); --scenario loads the
    arrangement into a world with those settings."""
    rc, payload = trained_row_run
    model = str(Path(rc.out) / "qtable.txt")
    assert main(["eval", "--model", model, "--trials", str(rc.eval_trials),
                 "--seed", str(rc.eval_seed_offset + rc.seed),
                 "--out", str(tmp_path / "plain.json")]) == 0
    plain = json.loads((tmp_path / "plain.json").read_text())
    assert {k: plain[k] for k in ("completion_rate", "mean_efficiency", "success_rates")} \
        == {k: payload[k] for k in ("completion_rate", "mean_efficiency", "success_rates")}
    assert built_worlds and set(built_worlds) == {("row", 3, 5)}

    source = BlockWorld(task="row", goal_size=3, num_blocks=5)
    source.reset(11)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(source.to_text())
    built_worlds.clear()
    assert main(["eval", "--model", model, "--trials", "4", "--scenario", str(scenario),
                 "--out", str(tmp_path / "scenario.json")]) == 0
    capsys.readouterr()
    assert built_worlds and set(built_worlds) == {("row", 3, 5)}
    _, rows = read_csv(tmp_path / "scenario.csv")
    assert {r[3] for r in rows} == {"3"}  # a row of 3 takes 3 ideal actions


@pytest.fixture(scope="module")
def trained_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid") / "run"
    rc = harness.resolve_run_config({
        "cell": "mask+base", "seed": "0", "budget": "200", "validation_every": "0",
        "eval_trials": "2", "log_steps": "false", "out": str(out),
    })
    harness.run_single(rc)
    return Path(rc.out)


def test_cli_eval_repeats_an_action_limited_run(tmp_path, capsys):
    """The header records a set action_limit, so eval at the run's own eval
    seed and trial count writes the run's eval_trials.csv rows."""
    run = tmp_path / "run"
    assert main(["train", "--env", "gridworld", "--budget", "200", "--out", str(run),
                 "--set", "action_limit=12", "--set", "eval_trials=5",
                 "--set", "validation_every=0", "--set", "log_steps=false"]) == 0
    assert main(["eval", "--model", str(run / "qtable.txt"), "--seed", "1000",
                 "--trials", "5", "--out", str(tmp_path / "eval.json")]) == 0
    capsys.readouterr()
    assert read_csv(tmp_path / "eval.csv") == read_csv(run / "eval_trials.csv")
    assert any(r[2] == "12" for r in read_csv(run / "eval_trials.csv")[1])


def test_cli_eval_fixed_grid_replay(trained_grid, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("#####\n#>..#\n#..G#\n#####\n")
    outputs = []
    for name in ("a.json", "b.json"):
        code = main(["eval", "--model", str(trained_grid / "qtable.txt"),
                     "--trials", "8", "--seed", "6", "--scenario", str(grid),
                     "--out", str(tmp_path / name)])
        assert code == 0
        capsys.readouterr()
        outputs.append(json.loads((tmp_path / name).read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0]["completion_rate"] == 1.0  # tiny open grid: mask walks in


def test_cli_eval_grid_replays_the_file_layout(trained_grid, tmp_path, capsys):
    """Every --scenario trial on a grid model starts on the file's layout:
    each CSV row holds that layout's ideal count, not one of a generated
    9x9 layout."""
    text = "#########\n#.......#\n#.^.L...#\n#...L..G#\n#########\n"
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    for mask in ("--mask", "--no-mask"):
        assert main(["eval", "--model", str(trained_grid / "qtable.txt"), "--trials", "6",
                     mask, "--scenario", str(grid), "--out", str(tmp_path / "eval.json")]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "eval.csv")
        assert len(rows) == 6
        assert {r[3] for r in rows} == {str(GridWorld.from_text(text).ideal_actions())}


def test_cli_eval_bad_start_files_exit_2(trained_run, trained_grid, tmp_path, capsys):
    """A malformed --scenario file exits 2 with an error, not a
    traceback: a scenario that already completes the task or names too few
    blocks to complete it, and a grid with a second agent glyph and goal,
    count as malformed."""
    block_model = trained_run[1] / "qtable.txt"
    cases = [(block_model, "cell 9 9: 0\ngripper: empty\n"),
             (block_model, "cell -1 0: 0\ngripper: empty\n"),
             (block_model, "cell 0 0: 0\ngripper: 0\n"),
             (block_model, "cell 0 0: 7\ngripper: empty\n"),
             (block_model, "cell 0 0: 0 1 2 3\ngripper: empty\n"),
             (block_model, "gripper: empty\n"),
             (trained_grid / "qtable.txt", ">.G\n"),
             (trained_grid / "qtable.txt", "#####\n#>>G#\n#G..#\n#####\n")]
    for model, text in cases:
        start = tmp_path / "start.txt"
        start.write_text(text)
        out = tmp_path / "eval.json"
        code = main(["eval", "--model", str(model), "--scenario", str(start),
                     "--out", str(out)])
        assert code == 2, text
        assert capsys.readouterr().err.startswith("error: bad scenario file")
        assert not out.exists()



def test_cli_eval_zero_trials_exits_2(trained_grid, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = main(["eval", "--model", str(trained_grid / "qtable.txt"), "--trials", "0",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --trials must be at least 1")
    assert not out.exists()


def test_cli_eval_unreadable_scenario_exits_2(trained_grid, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = main(["eval", "--model", str(trained_grid / "qtable.txt"),
                 "--scenario", str(tmp_path / "missing.txt"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read scenario file")
    assert not out.exists()


def test_cli_eval_unreachable_grid_goal_exits_2(trained_grid, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("#######\n#>.#..#\n#..#.G#\n#######\n")
    out = tmp_path / "eval.json"
    code = main(["eval", "--model", str(trained_grid / "qtable.txt"),
                 "--scenario", str(grid), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad scenario file: start unreachable")
    assert not out.exists()


def test_cli_eval_skips_blank_model_lines_and_refuses_bad_values(trained_grid, tmp_path,
                                                                  capsys):
    """A blank line in a model file is skipped, so the model loads as the
    file without it does; a record whose value is not a number exits 2."""
    model = trained_grid / "qtable.txt"
    header, *records = model.read_text().splitlines()
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("\n".join([header, "", *records, "  "]) + "\n")
    assert harness.load_qdump(spaced)[0].records() == harness.load_qdump(model)[0].records()
    assert main(["eval", "--model", str(spaced), "--trials", "2",
                 "--out", str(tmp_path / "spaced.json")]) == 0
    capsys.readouterr()

    key, action, _ = records[-1].split("\t")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([header, *records[:-1], f"{key}\t{action}\t[1]"]) + "\n")
    assert main(["eval", "--model", str(bad), "--trials", "2",
                 "--out", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse model file: bad value '[1]'")
    assert not (tmp_path / "bad.json").exists()


def test_cli_eval_out_under_a_file_exits_3(trained_grid, tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["eval", "--model", str(trained_grid / "qtable.txt"), "--trials", "2",
                 "--out", str(blocker / "eval.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {blocker / 'eval.json'}")
    assert captured.out == ""

def test_cli_eval_grid_needs_a_gridworld_model(trained_run, tmp_path, capsys):
    """A grid file with a block-world model exits 2 with an error, not a traceback."""
    _, run_dir, _ = trained_run
    grid = tmp_path / "grid.txt"
    grid.write_text("#####\n#>..#\n#..G#\n#####\n")
    out = tmp_path / "eval.json"
    code = main(["eval", "--model", str(run_dir / "qtable.txt"), "--scenario", str(grid),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario file: unparseable state line '#####'")
    assert not out.exists()


def test_cli_eval_scenario_needs_a_blockworld_model(trained_grid, tmp_path, capsys):
    """A block scenario with a grid-world model exits 2 with an error, not a traceback."""
    env = BlockWorld(task="stack")
    env.reset(11)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(env.to_text())
    out = tmp_path / "eval.json"
    code = main(["eval", "--model", str(trained_grid / "qtable.txt"),
                 "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario file: unknown cell character 'c'")
    assert not out.exists()


def first_row_with(text, key=None, action=None):
    """``text`` with its first record's key or action column replaced."""
    header, first, *rest = text.splitlines()
    k, a, v = first.split("\t")
    row = f"{k if key is None else key}\t{a if action is None else action}\t{v}"
    return "\n".join([header, row, *rest]) + "\n"


def header_with(text, old, new):
    assert old in text.splitlines()[0]
    return text.replace(old, new, 1)


@pytest.mark.parametrize("model, fault", [
    ("grid", lambda t: first_row_with(t, action=-1)),
    ("grid", lambda t: first_row_with(t, action=7)),
    ("grid", lambda t: first_row_with(t, key="(((")),
    ("block", lambda t: first_row_with(t, key="(((")),
    ("grid", lambda t: first_row_with(t, key="[1, 2]")),
    ("block", lambda t: first_row_with(t, key="[1, 2]")),
    ("grid", lambda t: header_with(t, "n_actions=3", "n_actions=5")),
], ids=["action=-1", "action=7", "grid-key=(((", "block-key=(((", "grid-key=[1, 2]",
        "block-key=[1, 2]", "n_actions=5"])
def test_cli_eval_rejects_a_malformed_model(model, fault, request, tmp_path, capsys):
    """A record whose action is outside the env's actions or whose key is
    not a hashable literal, and a header whose n_actions is not the env's,
    exit 2 with an error before anything is evaluated, not a traceback or
    a silently misread model."""
    if model == "grid":
        source = request.getfixturevalue("trained_grid") / "qtable.txt"
    else:
        source = request.getfixturevalue("trained_run")[1] / "qtable.txt"
    bad = tmp_path / "qtable.txt"
    bad.write_text(fault(source.read_text()))
    out = tmp_path / "eval.json"
    assert main(["eval", "--model", str(bad), "--trials", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse model file")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["bogus+base", "mask+bogus", "none+mask+base"])
def test_cli_eval_rejects_a_bad_header_cell(cell, trained_grid, tmp_path, capsys):
    """The header's cell is read with the one cell grammar (parse_cell), so
    a token it rejects exits 2 instead of evaluating under a mask guessed
    from the token's first part."""
    bad = tmp_path / "qtable.txt"
    bad.write_text(header_with((trained_grid / "qtable.txt").read_text(),
                               "cell=mask+base", f"cell={cell}"))
    out = tmp_path / "eval.json"
    assert main(["eval", "--model", str(bad), "--trials", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: model header: ")
    assert not out.exists()


def test_cli_sweep_end_to_end(tmp_path, capsys):
    """A tiny two-cell sweep writes per-run artifacts, per-cell summaries,
    and the combined table — and reruns reproduce the table byte-for-byte."""
    args = ["sweep", "--env", "blockworld",
            "--cells", "none+base,spotq+trial_progress", "--seeds", "0,1",
            "--budget", "300", "--workers", "1",
            "--set", "eval_trials=4", "--set", "validation_every=0",
            "--set", "log_steps=false"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "SPOT-Q" in stdout

    header, rows = read_csv(out1 / "sweep.csv")
    assert header == list(harness.SWEEP_COLUMNS)
    assert len(rows) == 2
    assert rows[0][:3] == ["no", "no", "base"]
    assert rows[1][:3] == ["yes", "yes", "trial_progress"]
    assert all(r[5] == "none" for r in rows)  # no validation: nothing converges

    for cell in ("none+base", "spotq+trial_progress"):
        cs = json.loads((out1 / cell / "summary.json").read_text())
        assert cs["seeds_completed"] == 2 and cs["failures"] == {}
        assert cs["completion_rate_min"] <= cs["completion_rate_max"]
        for seed in (0, 1):
            run_summary = json.loads(
                (out1 / cell / f"seed_{seed}" / "summary.json").read_text())
            assert run_summary["cell"] == cell and run_summary["seed"] == seed

    first_line = (out1 / "sweep.txt").read_text().splitlines()[0]
    assert first_line.split() == list(harness.SWEEP_COLUMNS)

    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_a_crash_whose_error_file_cannot_be_written_prints_its_traceback(tmp_path, capsys):
    """A run whose directory path is a file crashes and cannot write its
    error.txt: the sweep exits 1 with that run's traceback on stderr. A run
    that crashes later (its qtable.txt path is a directory) writes its
    error.txt, and stderr points at it; no pointer names a missing file."""
    out = tmp_path / "sweep"
    (out / "none+base").mkdir(parents=True)
    (out / "none+base" / "seed_1").write_text("not a run directory\n")
    (out / "mask+base" / "seed_0" / "qtable.txt").mkdir(parents=True)
    code = main(["sweep", "--env", "blockworld", "--cells", "none+base,mask+base",
                 "--seeds", "0,1", "--budget", "60", "--workers", "1",
                 "--set", "eval_trials=2", "--set", "validation_every=0",
                 "--set", "log_steps=false", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback (most recent call last):" in err
    assert "FileExistsError" in err
    assert str(out / "none+base" / "seed_1") in err
    written = out / "mask+base" / "seed_0" / "error.txt"
    assert list(out.rglob("error.txt")) == [written]
    assert "IsADirectoryError" in written.read_text()
    assert re.findall(r"see (\S*error\.txt)", err) == [str(written)]
    for cell in ("none+base", "mask+base"):
        cs = json.loads((out / cell / "summary.json").read_text())
        assert list(cs["failures"]) == ["1" if cell == "none+base" else "0"]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# file -> (env, task, cells, seeds, budget) of the reference ablations
REFERENCE_SWEEPS = {
    "gridworld_ablation.conf": ("gridworld", None, "spotq+progress,mask+base,none+base",
                                (0, 1, 2, 3, 4), 200_000),
    "blockworld_ablation.conf": ("blockworld", "stack",
                                 "none+base,none+sr,spotq+progress,spotq+trial_progress",
                                 (0, 1, 2), 20_000),
}


def test_every_shipped_config_is_checked():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.conf")) == sorted(REFERENCE_SWEEPS)


@pytest.mark.parametrize("name", sorted(REFERENCE_SWEEPS))
def test_shipped_ablation_configs(name, tmp_path, capsys):
    """Each shipped config names its ablation's reference cells, seeds and
    budget, and runs as a sweep with small overrides."""
    env, task, cells, seeds, budget = REFERENCE_SWEEPS[name]
    path = CONFIG_DIR / name
    spec = harness.resolve_experiment_spec(harness.parse_config_text(path.read_text()))
    assert [(rc.cell, rc.seed) for rc in spec.runs] == [
        (cell, seed) for cell in cells.split(",") for seed in seeds]
    assert {(rc.environment, rc.task if rc.environment == "blockworld" else None, rc.budget)
            for rc in spec.runs} == {(env, task, budget)}

    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--budget", "50", "--seeds", "0,1",
                 "--workers", "1", "--set", "eval_trials=2", "--set", "validation_every=0",
                 "--set", "log_steps=false", "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_csv(out / "sweep.csv")
    assert [row[:3] for row in rows] == [
        ["yes" if use_spotq else "no", "yes" if use_mask else "no", kind]
        for use_mask, use_spotq, kind in map(harness.parse_cell, cells.split(","))]


def test_a_parallel_sweep_writes_the_serial_table(tmp_path, capsys):
    """Two worker processes give the same sweep table as one."""
    args = ["sweep", "--env", "blockworld", "--cells", "none+base,mask+base",
            "--seeds", "0,1", "--budget", "100", "--set", "eval_trials=2",
            "--set", "validation_every=0", "--set", "log_steps=false"]
    for workers in ("1", "2"):
        assert main(args + ["--workers", workers, "--out", str(tmp_path / workers)]) == 0
    capsys.readouterr()
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == \
        (tmp_path / "2" / "sweep.csv").read_bytes()


def test_each_sweep_run_is_the_train_run_of_its_cell_and_seed(tmp_path, capsys):
    """A sweep is its runs: each run directory it writes holds, byte for
    byte, what `spotrl train` writes for the same cell, seed and settings,
    except for the out line of config.txt."""
    def lines(path):
        rows = path.read_bytes().splitlines(keepends=True)
        return [r for r in rows if not r.startswith(b"out = ")] \
            if path.name == "config.txt" else rows

    cells, seeds = ("none+sr", "spotq+progress"), (0, 1)
    settings = ["--env", "blockworld", "--budget", "120", "--set", "eval_trials=3",
                "--set", "validation_every=40", "--set", "validation_trials=2"]
    assert main(["sweep", "--cells", ",".join(cells), "--seeds", "0,1", "--workers", "1",
                 "--out", str(tmp_path / "sweep")] + settings) == 0
    for cell, seed in itertools.product(cells, seeds):
        trained = tmp_path / "train" / f"{cell}-s{seed}"
        assert main(["train", "--cell", cell, "--seed", str(seed), "--out", str(trained)]
                    + settings) == 0
        swept = tmp_path / "sweep" / cell / f"seed_{seed}"
        names = sorted(p.name for p in trained.iterdir())
        assert sorted(p.name for p in swept.iterdir()) == names
        assert "config.txt" in names and "steps.csv" in names
        for name in names:
            assert lines(swept / name) == lines(trained / name), (cell, seed, name)
    capsys.readouterr()


def test_a_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch, capsys):
    """Asked for 200 workers, a two-run sweep sizes its pool at two; a worker
    count below 1 exits 2 before anything runs."""
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    args = ["sweep", "--env", "blockworld", "--cells", "none+base", "--seeds", "0,1",
            "--budget", "50", "--set", "eval_trials=2", "--set", "validation_every=0",
            "--set", "log_steps=false"]
    assert main(args + ["--workers", "200", "--out", str(tmp_path / "capped")]) == 0
    assert sizes == [2]
    for workers in ("0", "-1"):
        assert main(args + ["--workers", workers, "--out", str(tmp_path / workers)]) == 2
        assert not (tmp_path / workers).exists()
    assert sizes == [2]
    capsys.readouterr()


def test_importing_the_harness_leaves_multiprocessing_out():
    """Only a parallel sweep needs multiprocessing, so importing the
    harness (as every run does) does not pay for it."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, spotrl.harness; print(sorted({'multiprocessing', 'socket'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_the_runtime_imports_without_sortedcontainers():
    """The package runs on the standard library alone; sortedcontainers is
    only the test mirrors' independent reference."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; sys.modules['sortedcontainers'] = None; "
            "import spotrl.cli, spotrl.harness, spotrl.trainer, spotrl.replay")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_the_package_runs_as_a_module():
    """``python -m spotrl`` is the CLI, as ``python -m spotrl.cli`` is."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "spotrl", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "train" in out.stdout


def test_block_training_writes_the_same_artifacts_under_python_O(tmp_path):
    """A short block-world run writes byte-identical artifacts with asserts
    stripped (python -O) and without. The comparison runs in this process,
    since -O would strip it too."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, flags in (("plain", []), ("optimized", ["-O"])):
        subprocess.run([sys.executable, *flags, "-m", "spotrl.cli", "train",
                        "--env", "blockworld", "--cell", "spotq+trial_progress",
                        "--seed", "3", "--budget", "300", "--out", str(tmp_path / name)],
                       env=env, capture_output=True, check=True, timeout=300)
    for artifact in ("qtable.txt", "trials.csv", "summary.json"):
        assert (tmp_path / "optimized" / artifact).read_bytes() == \
            (tmp_path / "plain" / artifact).read_bytes(), artifact
