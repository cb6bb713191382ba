"""The benchmark's workloads and the checks on the artifacts each run writes.

Every workload is one ablation cell run through the public API
(``harness.resolve_run_config`` -> ``harness.run_single``), closed loop, one
run at a time in one process. The benchmark's ``--seed`` is the run seed, so
it alone decides every layout, exploration draw and replay draw.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Artifacts whose bytes decide correctness; steps.csv only where logged.
DIGESTED = ("qtable.txt", "trials.csv", "eval_trials.csv", "summary.json", "steps.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    values: dict   # raw config values for harness.resolve_run_config
    smoke: dict    # overrides that shrink the run to seconds

    def config_values(self, seed: int, smoke: bool, out: Path) -> dict[str, str]:
        values = dict(self.values)
        if smoke:
            values.update(self.smoke)
        values["seed"] = str(seed)
        values["out"] = str(out)
        return values


WORKLOADS = {w.name: w for w in (
    Workload(
        name="grid-replay",
        why="gridworld none+base, 8 replay updates per action, no mask: replay sampling, "
            "targets and tabular reads do the work while mask and SPOT-Q are bypassed",
        values={"env": "gridworld", "cell": "none+base", "budget": "10000",
                "validation_every": "0", "stop_on_convergence": "false",
                "log_steps": "false"},
        smoke={"budget": "600", "eval_trials": "20"},
    ),
    Workload(
        name="block-spotq",
        why="blockworld spotq+trial_progress, LinearQ over 96 actions, 1 update per action: "
            "action scans, feature keys, masks and SPOT-Q targets dominate, replay is light",
        values={"env": "blockworld", "cell": "spotq+trial_progress", "budget": "2000",
                "stop_on_convergence": "false", "log_steps": "false"},
        smoke={"budget": "300", "validation_every": "150", "validation_trials": "5",
               "eval_trials": "10"},
    ),
    Workload(
        name="grid-converge-eval",
        why="gridworld spotq+progress, validation every 2000 actions, stops at the first fully "
            "solved round (20k cap), steps.csv logged, then greedy evaluation on 500 layouts",
        values={"env": "gridworld", "cell": "spotq+progress", "budget": "20000",
                "validation_every": "2000", "eval_trials": "500"},
        smoke={"budget": "1500", "validation_every": "500", "validation_trials": "5",
               "eval_trials": "50"},
    ),
)}


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every digested artifact the run wrote."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DIGESTED if (out / name).exists()}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def training_actions(rc, summary: dict) -> int:
    """Actions the training loop executed: it stops at the converging
    validation round when early stopping is on, else at the budget."""
    conv = summary["convergence_actions"]
    return conv if rc.stop_on_convergence and conv is not None else rc.budget


def replay_updates(rc, summary: dict, out: Path) -> int:
    """Replayed updates the run made: train_steps_per_action per action once
    the buffer holds a sample-eligible experience. Instant reward kinds are
    eligible from the first push; trial kinds once trial 0 is finalized."""
    actions = training_actions(rc, summary)
    first = 1
    if rc.reward_config().uses_trial_reward:
        first = int(_rows(out / "trials.csv")[0]["actions"])
    return rc.train_steps_per_action * max(0, actions - first)


def eval_actions(out: Path) -> int:
    """Greedy actions taken over all evaluation trials."""
    return sum(int(r["actions"]) for r in _rows(out / "eval_trials.csv"))


def check_artifacts(rc, summary: dict, out: Path) -> list[str]:
    """Consistency of the written files with each other and with summary.json."""
    errors = []
    on_disk = json.loads((out / "summary.json").read_text())
    if on_disk != json.loads(json.dumps(summary)):
        errors.append("summary.json differs from the returned summary")
    trials = _rows(out / "trials.csv")
    if len(trials) != summary["training_trials"]:
        errors.append(f"trials.csv has {len(trials)} rows, summary says "
                      f"{summary['training_trials']}")
    evals = _rows(out / "eval_trials.csv")
    if len(evals) != rc.eval_trials:
        errors.append(f"eval_trials.csv has {len(evals)} rows, expected {rc.eval_trials}")
    done = [r for r in evals if r["completed"] == "1"]
    if evals and len(done) / len(evals) != summary["completion_rate"]:
        errors.append("completion_rate does not match eval_trials.csv")
    mean_eff = sum(float(r["efficiency"]) for r in done) / len(done) if done else 0.0
    if mean_eff != summary["mean_efficiency"]:
        errors.append("mean_efficiency does not match eval_trials.csv")
    actions = training_actions(rc, summary)
    if rc.log_steps:
        n_steps = len(_rows(out / "steps.csv"))
        if n_steps != actions:
            errors.append(f"steps.csv has {n_steps} rows, expected {actions}")
    conv = summary["convergence_actions"]
    full = [int(r["actions"]) for r in _rows(out / "validation.csv")
            if r["completed"] == r["trials"]]
    if (full[0] if full else None) != conv:
        errors.append(f"convergence_actions {conv} does not match validation.csv")
    return errors


def check_reload(harness, rc, summary: dict, out: Path) -> list[str]:
    """qtable.txt must rebuild a Q-function whose greedy evaluation repeats
    the run's own evaluation exactly."""
    q, _ = harness.load_qdump(out / "qtable.txt")
    again, _ = harness.evaluate(q, rc.make_env, rc.eval_trials,
                                seed=rc.eval_seed_offset + rc.seed, use_mask=rc.use_mask)
    keys = ("completion_rate", "mean_efficiency", "success_rates")
    if any(again[k] != summary[k] for k in keys):
        return ["evaluation of the reloaded qtable.txt differs from summary.json"]
    return []
