"""Experiment front-end: resolved run configurations, artifact files, and
ablation sweeps over (mask, masked-target learning, reward kind) cells.

Configuration is a flat ``key = value`` text file; command-line flags
override file values. Each run (one cell, one seed) writes its artifacts to
its own directory:

- ``config.txt``     resolved flat config (re-parseable; reruns reproduce)
- ``steps.csv``      per-step log: run_id, trial_id, step, action_type,
                     action_id, masked_policy_flag, success, instant_reward,
                     trial_reward, progress, epsilon
- ``trials.csv``     per-training-trial log: trial_id, completed, actions,
                     ideal, efficiency, termination
- ``validation.csv`` greedy-probe results: round, actions, completed, trials
- ``eval_trials.csv`` held-out greedy evaluation, same columns as trials.csv
- ``summary.json``   run-level metrics, all recomputable from the CSVs
- ``qtable.txt``     Q-function as sorted text records

A sweep additionally writes one ``summary.json`` per cell (min/max across
seeds: ``completion_rate_min``/``_max``, ``efficiency_min``/``_max``,
``convergence_actions_min``/``_max``) and a combined table, ``sweep.csv``
plus aligned ``sweep.txt``, with columns SPOT-Q, Mask, Reward, Trials%,
Efficiency%, Actions-to-convergence.

Cells are named by '+'-joined tokens: a policy token (``none`` — no mask;
``mask`` — masked action selection; ``spotq`` — mask plus the masked
zero-reward training target) and a reward kind (``base``, ``sr``,
``progress``, ``trial_sr``, ``trial_progress``, ``discounted``), e.g.
``spotq+trial_progress``. Per-environment defaults below reproduce the
reference ablations; any field can be overridden per run.
"""
from __future__ import annotations

import csv
import json
import os
import random
import traceback
from dataclasses import dataclass, field, fields as dataclass_fields
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Optional

from .envs.blockworld import TASKS, BlockWorld
from .envs.gridworld import GridWorld
from .qfunction import LinearQ, QFunction, TabularQ, dump_qfunction, parse_qdump
from .rewards import REWARD_KINDS, ConfigError, RewardConfig
from .trainer import AgentConfig, StepTrace, TrialRecord, evaluate, run_training

ENVIRONMENTS = ("gridworld", "blockworld")

OUTPUT_ROOT_VAR = "SPOTRL_OUTPUT_ROOT"

STEP_COLUMNS = (
    "run_id", "trial_id", "step", "action_type", "action_id",
    "masked_policy_flag", "success", "instant_reward", "trial_reward",
    "progress", "epsilon",
)
TRIAL_COLUMNS = ("trial_id", "completed", "actions", "ideal", "efficiency", "termination")
VALIDATION_COLUMNS = ("round", "actions", "completed", "trials")
SWEEP_COLUMNS = ("SPOT-Q", "Mask", "Reward", "Trials%", "Efficiency%",
                 "Actions-to-convergence")

# Per-environment defaults: the settings the reference ablations run at.
GRIDWORLD_DEFAULTS = dict(
    budget=200_000,
    learning_rate=0.3,
    train_steps_per_action=8,
    per_exponent=0.25,
    replay_capacity=50_000,
    epsilon_start=0.5,
    epsilon_end=0.1,
    epsilon_decay_steps=100_000,
    validation_every=10_000,
    validation_trials=30,
    stop_on_convergence=True,
    type_filter_prob=0.95,
    learn_discount=0.9,
    trial_discount=0.65,
    weights={"forward": 1.0, "turn_left": 1.0, "turn_right": 1.0},
    eval_trials=200,
    eval_seed_offset=1_000,
)
BLOCKWORLD_DEFAULTS = dict(
    budget=20_000,
    learning_rate=0.2,
    train_steps_per_action=1,
    per_exponent=0.25,
    replay_capacity=100_000,
    epsilon_start=0.5,
    epsilon_end=0.05,
    epsilon_decay_steps=None,
    validation_every=2_000,
    validation_trials=30,
    stop_on_convergence=True,
    type_filter_prob=0.95,
    learn_discount=0.65,
    trial_discount=0.65,
    weights={"grasp": 1.0, "place": 2.5, "push": 0.5},
    eval_trials=100,
    eval_seed_offset=3_000,
)

# The no-shaping baseline discounts a terminal-only reward all the way back
# to the first step, so it defaults to a gentler discount than the
# trial-propagation kinds (0.65 over a dozen steps leaves the early steps
# essentially reward-free).
DISCOUNTED_KIND_TRIAL_DISCOUNT = 0.9


def output_root() -> Path:
    """Directory run outputs default under; overridden by $SPOTRL_OUTPUT_ROOT."""
    return Path(os.environ.get(OUTPUT_ROOT_VAR, "runs"))


# -- cell naming ----------------------------------------------------------

def parse_cell(token: str) -> tuple[bool, bool, str]:
    """'+'-joined cell token -> (use_mask, use_spotq, reward_kind).

    Policy tokens: none / mask / spotq (spotq implies mask). The reward
    token defaults to 'base' when absent.
    """
    use_mask = False
    use_spotq = False
    kind: Optional[str] = None
    policy_seen = False
    for part in token.split("+"):
        part = part.strip()
        if part in ("none", "mask", "spotq"):
            if policy_seen:
                raise ConfigError(f"cell {token!r} names two policy tokens")
            policy_seen = True
            use_mask = part != "none"
            use_spotq = part == "spotq"
        elif part in REWARD_KINDS:
            if kind is not None:
                raise ConfigError(f"cell {token!r} names two reward kinds")
            kind = part
        else:
            raise ConfigError(f"unknown cell token {part!r} in {token!r}")
    return use_mask, use_spotq, kind if kind is not None else "base"


def cell_label(use_mask: bool, use_spotq: bool, reward_kind: str) -> str:
    policy = "spotq" if use_spotq else ("mask" if use_mask else "none")
    return f"{policy}+{reward_kind}"


# -- flat config files ----------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; blank lines skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_optional_int(text: str) -> Optional[int]:
    if text.strip().lower() in ("none", ""):
        return None
    return int(text)


def _parse_int_list(text: str) -> list[int]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return [int(p) for p in parts]


def _parse_str_list(text: str) -> list[str]:
    return [p for chunk in text.split(",") for p in chunk.split()]


# key -> converter from config-file string; `cell`, `weights` and the sweep
# keys get special handling in the resolvers.
_SCALAR_KEYS: dict[str, Callable[[str], object]] = {
    "env": str,
    "task": str,
    "seed": int,
    "budget": int,
    "out": str,
    "learning_rate": float,
    "train_steps_per_action": int,
    "per_exponent": float,
    "replay_capacity": int,
    "epsilon_start": float,
    "epsilon_end": float,
    "epsilon_decay_steps": _parse_optional_int,
    "validation_every": int,
    "validation_trials": int,
    "stop_on_convergence": _parse_bool,
    "type_filter_prob": float,
    "learn_discount": float,
    "trial_discount": float,
    "eval_trials": int,
    "eval_seed_offset": int,
    "log_steps": _parse_bool,
    "action_limit": _parse_optional_int,
    "goal_size": int,
    "num_blocks": int,
}
_SWEEP_KEYS: dict[str, Callable[[str], object]] = {
    "cells": _parse_str_list,
    "seeds": _parse_int_list,
    "workers": _parse_optional_int,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one training run (one cell, one seed)."""

    environment: str
    use_mask: bool
    use_spotq: bool
    reward_kind: str
    seed: int
    out: str
    budget: int
    learning_rate: float
    train_steps_per_action: int
    per_exponent: float
    replay_capacity: int
    epsilon_start: float
    epsilon_end: float
    epsilon_decay_steps: Optional[int]
    validation_every: int
    validation_trials: int
    stop_on_convergence: bool
    type_filter_prob: float
    learn_discount: float
    trial_discount: float
    weights: dict = field(default_factory=dict)
    eval_trials: int = 100
    eval_seed_offset: int = 0
    task: str = "stack"
    goal_size: int = 4
    num_blocks: int = 4
    action_limit: Optional[int] = None
    log_steps: bool = True

    @property
    def cell(self) -> str:
        return cell_label(self.use_mask, self.use_spotq, self.reward_kind)

    @property
    def run_id(self) -> str:
        return f"{self.cell}-s{self.seed}"

    def reward_config(self) -> RewardConfig:
        return RewardConfig(
            weights=dict(self.weights),
            trial_discount=self.trial_discount,
            learn_discount=self.learn_discount,
            reward_kind=self.reward_kind,
        )

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            reward=self.reward_config(),
            seed=self.seed,
            training_action_budget=self.budget,
            epsilon_start=self.epsilon_start,
            epsilon_end=self.epsilon_end,
            epsilon_decay_steps=self.epsilon_decay_steps,
            learning_rate=self.learning_rate,
            train_steps_per_action=self.train_steps_per_action,
            use_mask=self.use_mask,
            use_spotq=self.use_spotq,
            validation_every=self.validation_every,
            validation_trials=self.validation_trials,
            stop_on_convergence=self.stop_on_convergence,
            replay_capacity=self.replay_capacity,
            per_exponent=self.per_exponent,
            type_filter_prob=self.type_filter_prob,
        )

    def make_env(self):
        if self.environment == "gridworld":
            if self.action_limit is not None:
                return GridWorld(action_limit=self.action_limit)
            return GridWorld()
        kwargs = dict(task=self.task, goal_size=self.goal_size,
                      num_blocks=self.num_blocks)
        if self.action_limit is not None:
            kwargs["action_limit"] = self.action_limit
        return BlockWorld(**kwargs)

    def make_q(self) -> QFunction:
        env = self.make_env()
        if self.environment == "gridworld":
            return TabularQ(env.n_actions)
        return block_q(env)

    def flat_items(self) -> list[tuple[str, str]]:
        """The config as sorted flat key=value pairs (round-trips through
        parse_config_text + resolve_run_config)."""
        items: dict[str, str] = {
            "env": self.environment,
            "cell": self.cell,
        }
        for f in dataclass_fields(self):
            if f.name in ("environment", "use_mask", "use_spotq", "reward_kind",
                          "weights"):
                continue
            value = getattr(self, f.name)
            items[f.name] = "none" if value is None else str(value)
        for atype in sorted(self.weights):
            items[f"weight.{atype}"] = repr(self.weights[atype])
        return sorted(items.items())


def resolve_run_config(values: dict[str, str], base_out: Optional[str] = None) -> RunConfig:
    """Merge raw string settings over per-environment defaults.

    ``values`` maps config keys to unparsed strings (from a config file
    and/or command-line overrides, already merged with flags winning).
    Unknown keys, unknown environments/cells/tasks, and unparseable values
    raise ConfigError.
    """
    values = dict(values)
    env_name = values.pop("env", "gridworld")
    if env_name not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment {env_name!r} (expected one of {ENVIRONMENTS})")
    defaults = GRIDWORLD_DEFAULTS if env_name == "gridworld" else BLOCKWORLD_DEFAULTS

    use_mask, use_spotq, reward_kind = parse_cell(values.pop("cell", "none+base"))

    resolved: dict[str, object] = dict(defaults)
    weights = dict(resolved.pop("weights"))
    trial_discount_set = "trial_discount" in values
    for key, raw in values.items():
        if key.startswith("weight."):
            atype = key[len("weight."):]
            if not atype:
                raise ConfigError("empty action type in weight override")
            weights[atype] = float(raw)
        elif key in _SCALAR_KEYS:
            try:
                resolved[key] = _SCALAR_KEYS[key](raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
        elif key in _SWEEP_KEYS:
            raise ConfigError(f"{key!r} is a sweep setting, not a run setting")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if reward_kind == "discounted" and not trial_discount_set:
        resolved["trial_discount"] = DISCOUNTED_KIND_TRIAL_DISCOUNT
    if env_name == "blockworld" and resolved.get("task", "stack") not in TASKS:
        raise ConfigError(f"unknown task {resolved['task']!r} (expected one of {TASKS})")

    seed = int(resolved.pop("seed", 0))
    out = resolved.pop("out", None) or base_out
    if out is None:
        out = str(output_root() / f"{cell_label(use_mask, use_spotq, reward_kind)}-s{seed}")
    task = resolved.pop("task", "stack")
    try:
        return RunConfig(
            environment=env_name,
            use_mask=use_mask,
            use_spotq=use_spotq,
            reward_kind=reward_kind,
            seed=seed,
            out=str(out),
            weights=weights,
            task=task,
            **resolved,
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# -- run artifacts --------------------------------------------------------

class RunLogger:
    """Observer for run_training that accumulates the CSV rows."""

    def __init__(self, run_id: str, log_steps: bool = True):
        self.run_id = run_id
        self.log_steps = log_steps
        self.step_rows: list[tuple] = []
        self.validation_rows: list[tuple] = []

    def _format_steps(self, traces: list[StepTrace]) -> None:
        if not self.log_steps:
            return
        for t in traces:
            e = t.experience
            self.step_rows.append((
                self.run_id,
                e.trial_id,
                e.step_index,
                e.action_type,
                e.action_id,
                int(t.masked_policy),
                int(e.success),
                repr(e.instant_reward),
                "" if e.trial_reward is None else repr(e.trial_reward),
                repr(t.progress),
                repr(t.epsilon),
            ))

    def on_trial(self, record: TrialRecord, traces: list[StepTrace]) -> None:
        self._format_steps(traces)

    def on_partial_trial(self, traces: list[StepTrace]) -> None:
        # Budget-cut trial: steps are logged, the trial reward stays blank
        # and no trial row is recorded (the trial never finished).
        self._format_steps(traces)

    def on_validation(self, round_index: int, action_count: int, completed: int) -> None:
        self.validation_rows.append((round_index, action_count, completed))


def write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def trial_csv_rows(records: list[TrialRecord]) -> list[tuple]:
    return [
        (r.trial_id, int(r.completed), r.actions_taken, r.ideal_actions,
         repr(r.efficiency), r.termination)
        for r in records
    ]


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run_single(rc: RunConfig) -> dict:
    """Train one cell×seed, evaluate it, and write the run's artifact files.

    Returns the summary dict that is also written to summary.json.
    """
    run_dir = Path(rc.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    logger = RunLogger(rc.run_id, log_steps=rc.log_steps)
    cfg = rc.agent_config()
    q, records, convergence = run_training(rc.make_env, cfg, q=rc.make_q(),
                                           observer=logger)
    summary, eval_records = evaluate(
        q, rc.make_env, rc.eval_trials,
        seed=rc.eval_seed_offset + rc.seed, use_mask=rc.use_mask,
    )

    with open(run_dir / "config.txt", "w") as f:
        for key, value in rc.flat_items():
            f.write(f"{key} = {value}\n")
    if rc.log_steps:
        write_csv(run_dir / "steps.csv", STEP_COLUMNS, logger.step_rows)
    write_csv(run_dir / "trials.csv", TRIAL_COLUMNS, trial_csv_rows(records))
    write_csv(run_dir / "validation.csv", VALIDATION_COLUMNS,
               [(*row, cfg.validation_trials) for row in logger.validation_rows])
    write_csv(run_dir / "eval_trials.csv", TRIAL_COLUMNS, trial_csv_rows(eval_records))
    with open(run_dir / "qtable.txt", "w") as f:
        f.write(dump_qfunction(q, qdump_header(rc)))

    payload = {
        "run_id": rc.run_id,
        "environment": rc.environment,
        "task": rc.task if rc.environment == "blockworld" else None,
        "cell": rc.cell,
        "use_mask": rc.use_mask,
        "use_spotq": rc.use_spotq,
        "reward_kind": rc.reward_kind,
        "seed": rc.seed,
        "training_trials": len(records),
        "convergence_actions": convergence,
        "completion_rate": summary["completion_rate"],
        "mean_efficiency": summary["mean_efficiency"],
        "success_rates": summary["success_rates"],
        "eval_trials": rc.eval_trials,
    }
    write_json(run_dir / "summary.json", payload)
    return payload


def qdump_header(rc: RunConfig) -> dict[str, str]:
    """Header fields stored in qtable.txt so eval can rebuild the setup.

    Values must be single whitespace-free tokens (the header is one
    space-separated line).
    """
    return {
        "environment": rc.environment,
        "task": rc.task,
        "cell": rc.cell,
        "seed": str(rc.seed),
        "goal_size": str(rc.goal_size),
        "num_blocks": str(rc.num_blocks),
    }


def block_q(env: BlockWorld) -> LinearQ:
    """The block world's Q-function: linear over ``env.features``."""
    return LinearQ(env.n_actions, env.features)


def load_qdump(path: Path) -> tuple[QFunction, dict[str, str]]:
    """Rebuild a Q-function (and its header fields) from a qtable.txt."""
    fields, rows = parse_qdump(path.read_text())
    if fields.get("kind") == "linear":
        env = BlockWorld(
            task=fields.get("task", "stack"),
            goal_size=int(fields.get("goal_size", 4)),
            num_blocks=int(fields.get("num_blocks", 4)),
        )
        q: QFunction = block_q(env)
    else:
        q = TabularQ(int(fields["n_actions"]))
    q.load_records(rows)
    return q, fields


class FixedLayout:
    """Environment wrapper that pins the current layout: reset re-places the
    agent but never redraws, so every trial replays the same map."""

    def __init__(self, env):
        self._env = env

    def reset(self, seed: Optional[int] = None):
        return self._env.reset(None)

    def __getattr__(self, name):
        return getattr(self._env, name)


class FixedScenario:
    """Block-world wrapper that pins a serialized arrangement: every reset
    restores the same stacks and gripper contents (reseeding only the
    topple/scatter draws), so trials replay one scripted scenario."""

    def __init__(self, env):
        self._env = env
        self._stacks = [list(s) for s in env.stacks]
        self._gripper = env.gripper
        self._removed = set(env.removed)

    def reset(self, seed: Optional[int] = None):
        env = self._env
        if seed is not None:
            env.rng = random.Random(seed)
        env.stacks = [list(s) for s in self._stacks]
        env.gripper = self._gripper
        env.removed = set(self._removed)
        env.step_count = 0
        env.terminal = False
        return env.state()

    def __getattr__(self, name):
        return getattr(self._env, name)


# -- sweeps ---------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """An ablation sweep: every cell run on every seed."""

    environment: str
    cells: tuple[tuple[bool, bool, str], ...]
    seeds: tuple[int, ...]
    out: str
    workers: Optional[int] = None
    overrides: tuple[tuple[str, str], ...] = ()  # raw config overrides

    def __post_init__(self):
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.environment!r}")
        if not self.cells:
            raise ConfigError("a sweep needs at least one cell")
        if len(self.seeds) < 2:
            raise ConfigError("a sweep needs at least two seeds (min/max reporting)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in sweep")

    def run_configs(self) -> list[RunConfig]:
        out_root = Path(self.out)
        rcs = []
        for use_mask, use_spotq, kind in self.cells:
            label = cell_label(use_mask, use_spotq, kind)
            for seed in self.seeds:
                values = dict(self.overrides)
                values.update({
                    "env": self.environment,
                    "cell": label,
                    "seed": str(seed),
                    "out": str(out_root / label / f"seed_{seed}"),
                })
                rcs.append(resolve_run_config(values))
        return rcs


def resolve_experiment_spec(values: dict[str, str], base_out: Optional[str] = None) -> ExperimentSpec:
    """Build an ExperimentSpec from raw flat settings (file + flag merge)."""
    values = dict(values)
    env_name = values.pop("env", "gridworld")
    cells_raw = values.pop("cells", None)
    if cells_raw is None:
        raise ConfigError("a sweep needs 'cells'")
    seeds_raw = values.pop("seeds", None)
    if seeds_raw is None:
        raise ConfigError("a sweep needs 'seeds'")
    out = values.pop("out", None) or base_out or str(output_root() / "sweep")
    workers = _parse_optional_int(values.pop("workers", "none"))
    try:
        cells = tuple(parse_cell(tok) for tok in _parse_str_list(cells_raw))
        seeds = tuple(_parse_int_list(seeds_raw))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad sweep setting: {exc}") from None
    # Remaining keys are per-run overrides shared by every cell; validate
    # them now so a typo fails before any training starts.
    for key, raw in values.items():
        probe = {"env": env_name, key: raw}
        resolve_run_config(probe)
    return ExperimentSpec(
        environment=env_name,
        cells=cells,
        seeds=seeds,
        out=str(out),
        workers=workers,
        overrides=tuple(sorted(values.items())),
    )


def _run_single_safe(rc: RunConfig) -> tuple[str, int, dict | str]:
    """Pool worker: never raises; failures come back as formatted tracebacks."""
    try:
        return (rc.cell, rc.seed, run_single(rc))
    except Exception:
        tb = traceback.format_exc()
        try:
            run_dir = Path(rc.out)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "error.txt").write_text(tb)
        except OSError:
            pass
        return (rc.cell, rc.seed, tb)


def _min_max(values: list[float]) -> tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    return min(values), max(values)


def summarize_cell(label: str, cell_def: tuple[bool, bool, str], seeds: tuple[int, ...],
                   results: dict[int, dict], failures: dict[int, str]) -> dict:
    """Min/max metrics across a cell's seeds.

    ``convergence_actions_min``/``_max`` range over the seeds that converged
    and are null when none did; failed seeds are excluded from every metric
    and listed under ``failures``.
    """
    use_mask, use_spotq, kind = cell_def
    comp = [results[s]["completion_rate"] for s in seeds if s in results]
    eff = [results[s]["mean_efficiency"] for s in seeds if s in results]
    conv = [results[s]["convergence_actions"] for s in seeds
            if s in results and results[s]["convergence_actions"] is not None]
    comp_min, comp_max = _min_max(comp)
    eff_min, eff_max = _min_max(eff)
    conv_min, conv_max = _min_max(conv)
    return {
        "cell": label,
        "use_mask": use_mask,
        "use_spotq": use_spotq,
        "reward_kind": kind,
        "seeds": list(seeds),
        "seeds_completed": len(comp),
        "seeds_converged": len(conv),
        "completion_rate_min": comp_min,
        "completion_rate_max": comp_max,
        "efficiency_min": eff_min,
        "efficiency_max": eff_max,
        "convergence_actions_min": conv_min,
        "convergence_actions_max": conv_max,
        "failures": {str(s): failures[s].strip().splitlines()[-1] for s in sorted(failures)},
    }


def _pct(value: Optional[float]) -> str:
    return "error" if value is None else f"{100.0 * value:.1f}"


def _range_cell(lo: Optional[float], hi: Optional[float], fmt) -> str:
    if lo is None:
        return fmt(None)
    if lo == hi:
        return fmt(lo)
    return f"{fmt(lo)}-{fmt(hi)}"


def _conv_cell(cs: dict) -> str:
    """Convergence column: a range over the converged seeds, with 'none'
    standing in for any seed that never converged."""
    if cs["completion_rate_min"] is None:
        return "error" if cs["failures"] else "none"
    lo, hi = cs["convergence_actions_min"], cs["convergence_actions_max"]
    if lo is None:
        return "none"
    all_converged = cs["seeds_converged"] == cs["seeds_completed"]
    if not all_converged:
        return f"{int(lo)}-none"
    if lo == hi:
        return str(int(lo))
    return f"{int(lo)}-{int(hi)}"


def sweep_table_rows(cell_summaries: list[dict]) -> list[tuple[str, ...]]:
    rows = []
    for cs in cell_summaries:
        rows.append((
            "yes" if cs["use_spotq"] else "no",
            "yes" if cs["use_mask"] else "no",
            cs["reward_kind"],
            _range_cell(cs["completion_rate_min"], cs["completion_rate_max"], _pct),
            _range_cell(cs["efficiency_min"], cs["efficiency_max"], _pct),
            _conv_cell(cs),
        ))
    return rows


def format_aligned(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """Space-padded text table with a dashed header rule."""
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(columns), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def run_sweep(spec: ExperimentSpec) -> tuple[int, list[dict]]:
    """Run every cell×seed, write per-cell summaries and the combined table.

    Returns (number of failed runs, cell summaries). The table goes to
    ``<out>/sweep.csv`` and ``<out>/sweep.txt``.
    """
    out_root = Path(spec.out)
    out_root.mkdir(parents=True, exist_ok=True)
    rcs = spec.run_configs()
    workers = spec.workers or min(len(rcs), os.cpu_count() or 1)
    if workers > 1 and len(rcs) > 1:
        with get_context("fork").Pool(workers) as pool:
            outcomes = pool.map(_run_single_safe, rcs)
    else:
        outcomes = [_run_single_safe(rc) for rc in rcs]

    by_cell: dict[str, dict[int, dict]] = {}
    failures_by_cell: dict[str, dict[int, str]] = {}
    for label, seed, outcome in outcomes:
        if isinstance(outcome, dict):
            by_cell.setdefault(label, {})[seed] = outcome
        else:
            failures_by_cell.setdefault(label, {})[seed] = outcome

    cell_summaries = []
    for cell_def in spec.cells:
        label = cell_label(*cell_def)
        cs = summarize_cell(label, cell_def, spec.seeds,
                            by_cell.get(label, {}), failures_by_cell.get(label, {}))
        (out_root / label).mkdir(parents=True, exist_ok=True)
        write_json(out_root / label / "summary.json", cs)
        cell_summaries.append(cs)

    rows = sweep_table_rows(cell_summaries)
    write_csv(out_root / "sweep.csv", SWEEP_COLUMNS, rows)
    (out_root / "sweep.txt").write_text(format_aligned(SWEEP_COLUMNS, rows))
    n_failed = sum(len(f) for f in failures_by_cell.values())
    return n_failed, cell_summaries
