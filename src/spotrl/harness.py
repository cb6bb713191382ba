"""Experiment front-end: resolved run configurations, artifact files, and
ablation sweeps over (mask, masked-target learning, reward kind) cells.

Configuration is a flat ``key = value`` text file; command-line flags
override file values. Every ``RunConfig`` field is a config key of the same
name, except that ``env`` sets ``environment``, ``cell`` sets the policy
flags and reward kind, and ``weight.<action type>`` sets one entry of
``weights``. A default shared by both environments is declared on its field;
``GRIDWORLD_DEFAULTS``/``BLOCKWORLD_DEFAULTS`` hold only the reference
ablations' values that differ. Each run (one cell, one seed) writes its
artifacts to its own directory:

- ``config.txt``     resolved flat config (re-parseable; reruns reproduce)
- ``steps.csv``      per-step log: run_id, trial_id, step, action_type,
                     action_id, masked_policy_flag, success, instant_reward,
                     trial_reward, progress, epsilon; written as each trial
                     ends, so a failed run keeps its finished trials' rows
- ``trials.csv``     per-training-trial log: trial_id, completed, actions,
                     ideal, efficiency, termination
- ``validation.csv`` greedy-probe results: round, actions, completed, trials
- ``eval_trials.csv`` greedy evaluation on seeds disjoint from training's (start
                     layouts can repeat), same columns as trials.csv
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
``spotq+trial_progress``.
"""
from __future__ import annotations

import csv
import json
import os
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, fields as dataclass_fields, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, Optional, TextIO

from .envs import BlockWorld, Env, GridWorld
from .envs.blockworld import check_settings as check_block_settings
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

# The reference ablations' settings that differ between the environments.
GRIDWORLD_DEFAULTS = dict(
    budget=200_000,
    learning_rate=0.3,
    train_steps_per_action=8,
    replay_capacity=50_000,
    epsilon_end=0.1,
    epsilon_decay_steps=100_000,
    validation_every=10_000,
    learn_discount=0.9,
    weights={"forward": 1.0, "turn_left": 1.0, "turn_right": 1.0},
    eval_trials=200,
    eval_seed_offset=1_000,
)
BLOCKWORLD_DEFAULTS = dict(
    budget=20_000,
    learning_rate=0.2,
    train_steps_per_action=1,
    replay_capacity=100_000,
    epsilon_end=0.05,
    epsilon_decay_steps=None,
    validation_every=2_000,
    learn_discount=0.65,
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


def _parse_str_list(text: str) -> list[str]:
    return [p for chunk in text.split(",") for p in chunk.split()]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in _parse_str_list(text)]


# Config-file string -> value, by RunConfig field annotation.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "Optional[int]": _parse_optional_int,
}
# RunConfig fields set by the `env`, `cell` and `weight.*` keys.
_NON_KEY_FIELDS = ("environment", "use_mask", "use_spotq", "reward_kind", "weights")
# Sweep-only keys, rejected in a run config.
_SWEEP_KEYS = ("cells", "seeds", "workers")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully resolved settings for one training run (one cell, one seed).
    Fields without a default come from the per-environment defaults."""

    environment: str
    use_mask: bool
    use_spotq: bool
    reward_kind: str
    seed: int = 0
    out: str
    budget: int
    learning_rate: float
    train_steps_per_action: int
    per_exponent: float = 0.25
    replay_capacity: int
    epsilon_start: float = 0.5
    epsilon_end: float
    epsilon_decay_steps: Optional[int]
    validation_every: int
    validation_trials: int = 30
    stop_on_convergence: bool = True
    type_filter_prob: float = 0.95
    learn_discount: float
    trial_discount: float = 0.65
    weights: dict
    eval_trials: int
    eval_seed_offset: int
    task: str = "stack"
    goal_size: int = 4
    num_blocks: int = 4
    action_limit: Optional[int] = None
    log_steps: bool = True

    def __post_init__(self):
        """Reject what no run can use: an unknown environment, no evaluation
        trial, an action limit below 1 or below the fewest actions every
        generated start needs, or a setting the trainer, its reward config or
        the block world rejects."""
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.environment!r} "
                              f"(expected one of {ENVIRONMENTS})")
        if self.eval_trials < 1:
            raise ConfigError("eval_trials must be at least 1")
        if self.action_limit is not None and self.action_limit < 1:
            raise ConfigError("action_limit must be at least 1")
        self.agent_config()  # raises ConfigError on settings the trainer rejects
        if self.environment == "blockworld":
            try:
                check_block_settings(self.task, self.goal_size, self.num_blocks)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.action_limit is not None:
            env = self.make_env()
            if isinstance(env, GridWorld):  # one forward action per cell crossed
                fewest = sum(abs(g - s) for s, g in zip(env.start, env.goal))
            else:  # a generated row start can be one push from done
                fewest = 0 if env.task == "row" else env.ideal_actions()
            if self.action_limit < fewest:
                raise ConfigError(f"action_limit {self.action_limit} is below the {fewest} "
                                  "actions every generated start needs")

    @property
    def cell(self) -> str:
        return cell_label(self.use_mask, self.use_spotq, self.reward_kind)

    @property
    def run_id(self) -> str:
        return f"{self.cell}-s{self.seed}"

    def reward_config(self) -> RewardConfig:
        return RewardConfig(**{name: getattr(self, name) for name in _REWARD_FIELDS})

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            reward=self.reward_config(),
            training_action_budget=self.budget,
            **{name: getattr(self, name) for name in _AGENT_FIELDS},
        )

    def make_env(self, text: Optional[str] = None) -> Env:
        """A fresh env, or with ``text`` one built by its ``from_text`` (so
        every reset replays that start)."""
        kwargs: dict = {} if self.action_limit is None else {"action_limit": self.action_limit}
        if self.environment == "gridworld":
            cls = GridWorld
        else:
            cls = BlockWorld
            kwargs.update(task=self.task, goal_size=self.goal_size, num_blocks=self.num_blocks)
        return cls(**kwargs) if text is None else cls.from_text(text, **kwargs)

    def make_q(self) -> QFunction:
        env = self.make_env()
        if self.environment == "gridworld":
            return TabularQ(env.n_actions)
        return LinearQ(env)

    def flat_items(self) -> list[tuple[str, str]]:
        """The config as sorted flat key=value pairs (round-trips through
        parse_config_text + resolve_run_config)."""
        items: dict[str, str] = {
            "env": self.environment,
            "cell": self.cell,
        }
        for key in _KEY_PARSERS:
            value = getattr(self, key)
            items[key] = "none" if value is None else str(value)
        for atype in sorted(self.weights):
            items[f"weight.{atype}"] = repr(self.weights[atype])
        return sorted(items.items())


# Config key -> converter from its config-file string.
_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    f.name: _CONVERTERS[f.type] for f in dataclass_fields(RunConfig)
    if f.name not in _NON_KEY_FIELDS
}
# RunConfig settings a qtable.txt header records beside environment.
_HEADER_KEYS = ("cell", "seed", "task", "goal_size", "num_blocks", "action_limit")
# AgentConfig fields that RunConfig holds under the same name.
_AGENT_FIELDS = tuple(f.name for f in dataclass_fields(AgentConfig)
                      if f.name not in ("reward", "training_action_budget"))
# RewardConfig fields, all held by RunConfig under the same name.
_REWARD_FIELDS = tuple(f.name for f in dataclass_fields(RewardConfig))


def resolve_run_config(values: dict[str, str]) -> RunConfig:
    """Merge raw string settings over per-environment defaults.

    ``values`` maps config keys to unparsed strings (from a config file
    and/or command-line overrides, already merged with flags winning).
    Unknown keys, unknown environments/cells/tasks, a ``weight.<type>`` whose
    type the environment's default weights do not name, unparseable values and
    values out of range (see RunConfig.__post_init__) raise ConfigError.
    Without ``out`` the run goes to ``output_root() / run_id``.
    """
    values = dict(values)
    env_name = values.pop("env", "gridworld")
    if env_name not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment {env_name!r} (expected one of {ENVIRONMENTS})")
    defaults = GRIDWORLD_DEFAULTS if env_name == "gridworld" else BLOCKWORLD_DEFAULTS

    use_mask, use_spotq, reward_kind = parse_cell(values.pop("cell", "none+base"))

    resolved: dict[str, object] = dict(defaults)
    weights = dict(resolved.pop("weights"))
    for key, raw in values.items():
        try:
            if key.startswith("weight."):
                atype = key[len("weight."):]
                if atype not in weights:
                    raise ConfigError(f"unknown action type {atype!r} in {key!r} "
                                      f"(expected one of {tuple(sorted(weights))})")
                weights[atype] = float(raw)
            elif key in _KEY_PARSERS:
                resolved[key] = _KEY_PARSERS[key](raw)
            elif key in _SWEEP_KEYS:
                raise ConfigError(f"{key!r} is a sweep setting, not a run setting")
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    if reward_kind == "discounted" and "trial_discount" not in values:
        resolved["trial_discount"] = DISCOUNTED_KIND_TRIAL_DISCOUNT

    out = resolved.pop("out", None)
    rc = RunConfig(
        environment=env_name,
        use_mask=use_mask,
        use_spotq=use_spotq,
        reward_kind=reward_kind,
        out=str(out or ""),
        weights=weights,
        **resolved,
    )
    return rc if out else replace(rc, out=str(output_root() / rc.run_id))


# -- run artifacts --------------------------------------------------------

class RunLogger:
    """Observer for run_training: writes each finished or budget-cut trial's
    steps.csv rows to ``steps`` as soon as the trial ends (no step log when
    ``steps`` is None), and keeps the validation rows."""

    def __init__(self, run_id: str, steps: Optional[TextIO] = None):
        self.run_id = run_id
        self._steps = None
        if steps is not None:
            self._steps = csv.writer(steps, lineterminator="\n")
            self._steps.writerow(STEP_COLUMNS)
        self.validation_rows: list[tuple] = []

    def _write_steps(self, traces: list[StepTrace]) -> None:
        if self._steps is None:
            return
        run_id = self.run_id
        self._steps.writerows(
            (run_id, e.trial_id, e.step_index, e.action_type, e.action_id,
             int(t.masked_policy), int(e.success), repr(e.instant_reward),
             "" if e.trial_reward is None else repr(e.trial_reward),
             repr(t.progress), repr(t.epsilon))
            for t in traces for e in (t.experience,))

    def on_trial(self, record: TrialRecord, traces: list[StepTrace]) -> None:
        self._write_steps(traces)

    def on_partial_trial(self, traces: list[StepTrace]) -> None:
        # Budget-cut trial: steps are logged, the trial reward stays blank
        # and no trial row is recorded (the trial never finished).
        self._write_steps(traces)

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
    # A re-run into the same directory leaves nothing of the run before it.
    (run_dir / "error.txt").unlink(missing_ok=True)
    if not rc.log_steps:
        (run_dir / "steps.csv").unlink(missing_ok=True)
    cfg = rc.agent_config()
    steps_file = open(run_dir / "steps.csv", "w", newline="") if rc.log_steps else nullcontext()
    with steps_file as steps:
        logger = RunLogger(rc.run_id, steps)
        q, records, convergence = run_training(rc.make_env, cfg, q=rc.make_q(),
                                               observer=logger)
    summary, eval_records = evaluate(
        q, rc.make_env, rc.eval_trials,
        seed=rc.eval_seed_offset + rc.seed, use_mask=rc.use_mask,
    )

    with open(run_dir / "config.txt", "w") as f:
        for key, value in rc.flat_items():
            f.write(f"{key} = {value}\n")
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
        "eval_trials": rc.eval_trials,
        **summary,
    }
    write_json(run_dir / "summary.json", payload)
    return payload


def qdump_header(rc: RunConfig) -> dict[str, str]:
    """Header fields stored in qtable.txt so load_qdump can rebuild the
    setup; an unset (None) setting is left out. Values must be single
    whitespace-free tokens (the header is one space-separated line)."""
    header = {"environment": rc.environment}
    for key in _HEADER_KEYS:
        if getattr(rc, key) is not None:
            header[key] = str(getattr(rc, key))
    return header


def load_qdump(path: Path) -> tuple[QFunction, RunConfig]:
    """Rebuild a Q-function from a qtable.txt, with the RunConfig its header
    names (see qdump_header): every setting it leaves out is the
    environment's default."""
    fields, rows = parse_qdump(path.read_text())
    values = {"env": fields.get("environment", "gridworld")}
    values.update((key, fields[key]) for key in _HEADER_KEYS if key in fields)
    rc = resolve_run_config(values)
    q = rc.make_q()
    if (fields.get("kind"), fields.get("n_actions")) != (q.kind, str(q.n_actions)):
        raise ValueError(f"header kind={fields.get('kind')} n_actions={fields.get('n_actions')}"
                         f" does not match the {rc.environment} env's"
                         f" {q.kind} Q over {q.n_actions} actions")
    q.load_records(rows)
    return q, rc


# -- sweeps ---------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """An ablation sweep as its resolved runs: one RunConfig per cell and
    seed, cell-major, each writing under ``<out>/<cell>/seed_<seed>``.
    ``workers`` is the process count (None: one per CPU)."""

    runs: tuple[RunConfig, ...]
    out: str
    workers: Optional[int] = None


def resolve_experiment_spec(values: dict[str, str]) -> ExperimentSpec:
    """Resolve raw flat settings (file + flag merge) into a sweep's runs.
    Every key but ``cells``, ``seeds``, ``workers`` and ``out`` is a run
    setting shared by every cell×seed; ``cell`` and ``seed`` are rejected."""
    for key in ("cell", "seed"):
        if key in values:
            raise ConfigError(f"sweeps take '{key}s' (a list), not '{key}'")
    values = dict(values)
    cells_raw = values.pop("cells", None)
    if cells_raw is None:
        raise ConfigError("a sweep needs 'cells'")
    seeds_raw = values.pop("seeds", None)
    if seeds_raw is None:
        raise ConfigError("a sweep needs 'seeds'")
    out = values.pop("out", None) or str(output_root() / "sweep")
    cells = [cell_label(*parse_cell(tok)) for tok in _parse_str_list(cells_raw)]
    try:
        seeds = _parse_int_list(seeds_raw)
        workers = _parse_optional_int(values.pop("workers", "none"))
    except ValueError as exc:
        raise ConfigError(f"bad sweep setting: {exc}") from None
    if not cells:
        raise ConfigError("a sweep needs at least one cell")
    if len(seeds) < 2:
        raise ConfigError("a sweep needs at least two seeds (min/max reporting)")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds in sweep")
    if len(set(cells)) != len(cells):
        raise ConfigError("duplicate cells in sweep")
    if workers is not None and workers < 1:
        raise ConfigError("workers must be at least 1 (or none: one per CPU)")
    runs = tuple(
        resolve_run_config({**values, "cell": cell, "seed": str(seed),
                            "out": str(Path(out) / cell / f"seed_{seed}")})
        for cell in cells for seed in seeds)
    return ExperimentSpec(runs, out, workers)


def _run_single_safe(rc: RunConfig) -> dict | tuple[str, bool]:
    """Pool worker: never raises. A crash comes back as its formatted
    traceback and whether that was written to the run's ``error.txt``."""
    try:
        return run_single(rc)
    except Exception:
        tb = traceback.format_exc()
        try:
            run_dir = Path(rc.out)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "error.txt").write_text(tb)
        except OSError:
            return tb, False
        return tb, True


def summarize_cell(label: str, seeds: list[int], results: dict[int, dict],
                   failures: dict[int, str]) -> dict:
    """Min/max metrics across a cell's seeds.

    ``convergence_actions_min``/``_max`` range over the seeds that converged
    and are null when none did; failed seeds are excluded from every metric
    and listed under ``failures``.
    """
    use_mask, use_spotq, kind = parse_cell(label)
    done = [results[s] for s in seeds if s in results]
    conv = [r["convergence_actions"] for r in done if r["convergence_actions"] is not None]
    cs = {
        "cell": label,
        "use_mask": use_mask,
        "use_spotq": use_spotq,
        "reward_kind": kind,
        "seeds": list(seeds),
        "seeds_completed": len(done),
        "seeds_converged": len(conv),
        "failures": {str(s): failures[s].strip().splitlines()[-1] for s in sorted(failures)},
    }
    for name, values in (("completion_rate", [r["completion_rate"] for r in done]),
                         ("efficiency", [r["mean_efficiency"] for r in done]),
                         ("convergence_actions", conv)):
        cs[f"{name}_min"] = min(values, default=None)
        cs[f"{name}_max"] = max(values, default=None)
    return cs


def _pct(value: Optional[float]) -> str:
    return "error" if value is None else f"{100.0 * value:.1f}"


def _range_cell(lo: Optional[float], hi: Optional[float], fmt) -> str:
    """``fmt(lo)``, or a ``lo-hi`` range; a None ``lo`` comes with a None ``hi``."""
    if lo == hi:
        return fmt(lo)
    return f"{fmt(lo)}-{fmt(hi)}"


def _count(value: Optional[int]) -> str:
    return "none" if value is None else str(int(value))


def _conv_cell(cs: dict) -> str:
    """Convergence column: a range over the converged seeds, with 'none'
    standing in for any seed that never converged."""
    if cs["completion_rate_min"] is None:
        return "error" if cs["failures"] else "none"
    all_converged = cs["seeds_converged"] == cs["seeds_completed"]
    return _range_cell(cs["convergence_actions_min"],
                       cs["convergence_actions_max"] if all_converged else None, _count)


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


def run_sweep(spec: ExperimentSpec) -> tuple[list[tuple[RunConfig, str, bool]], str]:
    """Run every cell×seed, write per-cell summaries and the combined table
    (``<out>/sweep.csv`` and ``<out>/sweep.txt``); ``spec.runs`` is
    cell-major, so each cell's runs form one group. Returns (crashes, the
    ``sweep.txt`` text); a crash is (run, traceback, whether the traceback
    was written to the run's ``error.txt``).
    """
    out_root = Path(spec.out)
    out_root.mkdir(parents=True, exist_ok=True)
    workers = min(len(spec.runs), spec.workers or os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing adds ~15 ms to importing this module.
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            outcomes = pool.map(_run_single_safe, spec.runs)
    else:
        outcomes = [_run_single_safe(rc) for rc in spec.runs]

    crashes, rows = [], []
    for label, runs in groupby(zip(spec.runs, outcomes), key=lambda pair: pair[0].cell):
        seeds, results, failures = [], {}, {}
        for rc, outcome in runs:
            seeds.append(rc.seed)
            if isinstance(outcome, dict):
                results[rc.seed] = outcome
            else:
                failures[rc.seed] = outcome[0]
                crashes.append((rc, *outcome))
        cs = summarize_cell(label, seeds, results, failures)
        (out_root / label).mkdir(parents=True, exist_ok=True)
        write_json(out_root / label / "summary.json", cs)
        rows += sweep_table_rows([cs])

    write_csv(out_root / "sweep.csv", SWEEP_COLUMNS, rows)
    table = format_aligned(SWEEP_COLUMNS, rows)
    (out_root / "sweep.txt").write_text(table)
    return crashes, table
