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
``spotq+trial_progress``.
"""
from __future__ import annotations

import csv
import json
import os
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, fields as dataclass_fields, replace
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
        """Reject what no run can use: no evaluation trial, an action limit
        below 1, or a setting the trainer, its reward config or the block
        world rejects."""
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
# RunConfig fields a qtable.txt header records beside environment and cell.
_HEADER_KEYS = ("seed", "task", "goal_size", "num_blocks")
# AgentConfig fields that RunConfig holds under the same name.
_AGENT_FIELDS = tuple(f.name for f in dataclass_fields(AgentConfig)
                      if f.name not in ("reward", "training_action_budget"))


def resolve_run_config(values: dict[str, str], base_out: Optional[str] = None) -> RunConfig:
    """Merge raw string settings over per-environment defaults.

    ``values`` maps config keys to unparsed strings (from a config file
    and/or command-line overrides, already merged with flags winning).
    Unknown keys, unknown environments/cells/tasks, unparseable values and
    values out of range (see RunConfig.__post_init__) raise ConfigError.
    Without ``out`` (or ``base_out``) the run goes to ``output_root() / run_id``.
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
                if not atype:
                    raise ConfigError("empty action type in weight override")
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

    out = resolved.pop("out", None) or base_out
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


def header_run_config(fields: dict[str, str]) -> RunConfig:
    """The run settings a qtable.txt header names (see qdump_header); every
    other setting is the environment's default."""
    values = {"env": fields.get("environment", "gridworld")}
    for key in _HEADER_KEYS:
        if key in fields:
            values[key] = fields[key]
    return resolve_run_config(values)


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
        "completion_rate": summary["completion_rate"],
        "mean_efficiency": summary["mean_efficiency"],
        "success_rates": summary["success_rates"],
        "eval_trials": rc.eval_trials,
    }
    write_json(run_dir / "summary.json", payload)
    return payload


def qdump_header(rc: RunConfig) -> dict[str, str]:
    """Header fields stored in qtable.txt so eval can rebuild the setup
    (header_run_config). Values must be single whitespace-free tokens (the
    header is one space-separated line)."""
    header = {"environment": rc.environment, "cell": rc.cell}
    for key in _HEADER_KEYS:
        header[key] = str(getattr(rc, key))
    return header


def load_qdump(path: Path) -> tuple[QFunction, dict[str, str]]:
    """Rebuild a Q-function (and its header fields) from a qtable.txt."""
    fields, rows = parse_qdump(path.read_text())
    q = header_run_config(fields).make_q()
    if (fields.get("kind"), fields.get("n_actions")) != (q.kind, str(q.n_actions)):
        raise ValueError(f"header kind={fields.get('kind')} n_actions={fields.get('n_actions')}"
                         f" does not match the {fields.get('environment')} env's"
                         f" {q.kind} Q over {q.n_actions} actions")
    q.load_records(rows)
    return q, fields


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
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be at least 1 (or none: one per CPU)")

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
    cells = tuple(parse_cell(tok) for tok in _parse_str_list(cells_raw))
    try:
        seeds = tuple(_parse_int_list(seeds_raw))
        workers = _parse_optional_int(values.pop("workers", "none"))
    except ValueError as exc:
        raise ConfigError(f"bad sweep setting: {exc}") from None
    # Remaining keys are per-run overrides shared by every cell; validate
    # them now so a typo fails before any training starts.
    resolve_run_config({**values, "env": env_name})
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
    workers = min(len(rcs), spec.workers or os.cpu_count() or 1)
    if workers > 1 and len(rcs) > 1:
        # Imported here: multiprocessing adds ~15 ms to importing this module.
        from multiprocessing import get_context

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
