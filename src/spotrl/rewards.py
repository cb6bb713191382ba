"""Reward shaping for multi-step tasks: success-gated base rewards,
progress gating and scaling, and trial-level reward propagation.

All functions here are pure: they see only :class:`StepOutcome` values and
plain reward sequences, never environment internals, so any environment
(and any test oracle) can drive them.

The reward family, from weakest to strongest shaping:

- ``base``: weight of the action's sub-task type, gated on per-action success.
- ``sr``: base reward additionally zeroed whenever the step reduced task
  progress ("situation removal" gating — a reversal earns nothing).
- ``progress``: sr reward scaled by the post-step progress, so later steps
  of a task earn more.
- ``trial_sr`` / ``trial_progress``: the corresponding instant reward,
  propagated backward through the finished trial (:func:`trial_backfill`)
  so early successful steps share in discounted future reward, with
  propagation cut at every zero-reward step and the final step doubled on
  task completion.
- ``discounted``: classic discounted return of a terminal-only reward
  (:func:`discounted_backfill`), the no-shaping baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

# Action types are plain strings (e.g. "grasp", "push", "place" for the
# block world; "forward", "turn_left", "turn_right" for the grid world).
ActionType = str

REWARD_KINDS = ("base", "sr", "progress", "trial_sr", "trial_progress", "discounted")

# Kinds whose final training signal is filled in per-trial, after the fact.
TRIAL_KINDS = ("trial_sr", "trial_progress", "discounted")

# Kinds that run without situation-removal resets during training.
NO_SITUATION_REMOVAL_KINDS = ("base", "discounted")


class ConfigError(ValueError):
    """Invalid reward/agent configuration."""


@dataclass(frozen=True)
class RewardConfig:
    """Which reward is computed and with what constants.

    Attributes:
        weights: sub-task weighting, one finite non-negative weight per action type.
        trial_discount: discount used by the trial-level backfills.
        learn_discount: discount used inside Q-learning targets.
        reward_kind: one of REWARD_KINDS.
    """

    weights: Mapping[ActionType, float] = field(default_factory=dict)
    trial_discount: float = 0.65
    learn_discount: float = 0.65
    reward_kind: str = "base"

    def __post_init__(self) -> None:
        if self.reward_kind not in REWARD_KINDS:
            raise ConfigError(f"unknown reward kind: {self.reward_kind!r}")
        if not (0.0 < self.trial_discount < 1.0):
            raise ConfigError("trial_discount must lie strictly in (0, 1)")
        if not (0.0 < self.learn_discount < 1.0):
            raise ConfigError("learn_discount must lie strictly in (0, 1)")
        for atype, w in self.weights.items():
            if not 0.0 <= w < math.inf:
                raise ConfigError(f"the weight for action type {atype!r} must be finite "
                                  f"and non-negative, not {w!r}")

    @property
    def uses_trial_reward(self) -> bool:
        return self.reward_kind in TRIAL_KINDS

    @property
    def situation_removal_active(self) -> bool:
        return self.reward_kind not in NO_SITUATION_REMOVAL_KINDS

    def weight(self, atype: ActionType) -> float:
        try:
            return self.weights[atype]
        except KeyError:
            raise ConfigError(f"no weight configured for action type {atype!r}") from None


@dataclass(frozen=True)
class StepOutcome:
    """What one executed action did, as seen by the reward functions.

    ``success`` is the environment's per-action success sensor;
    ``progress_before``/``progress_after`` are the task-progress scalar in
    [0, 1] around the step.
    """

    action_type: ActionType
    success: bool
    progress_before: float
    progress_after: float
    terminal: bool = False
    task_complete: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.progress_before <= 1.0 and 0.0 <= self.progress_after <= 1.0):
            raise ValueError("progress values must lie in [0, 1]")
        if self.task_complete and not self.terminal:
            raise ValueError("task_complete implies terminal")
        if self.task_complete and self.progress_after != 1.0:
            raise ValueError("task_complete implies progress_after == 1")


def base_reward(o: StepOutcome, cfg: RewardConfig) -> float:
    """Sub-task weight of the action if it succeeded, else 0."""
    return cfg.weight(o.action_type) if o.success else 0.0


def sr_indicator(o: StepOutcome) -> int:
    """1 iff the step did not reduce task progress."""
    return 1 if o.progress_after >= o.progress_before else 0


def sr_reward(o: StepOutcome, cfg: RewardConfig) -> float:
    """Base reward zeroed on progress reversal."""
    return base_reward(o, cfg) if sr_indicator(o) else 0.0


def progress_reward(o: StepOutcome, cfg: RewardConfig) -> float:
    """Reversal-gated reward scaled by post-step progress."""
    return o.progress_after * sr_reward(o, cfg)


def instant_reward(o: StepOutcome, cfg: RewardConfig) -> float:
    """The per-step reward recorded for cfg.reward_kind.

    Trial kinds record their underlying instant reward here; the trial-level
    value is filled in later by the backfills. The discounted baseline is
    terminal-only: the final step records the progress reward, every other
    step records 0.
    """
    kind = cfg.reward_kind
    if kind == "base":
        return base_reward(o, cfg)
    if kind in ("sr", "trial_sr"):
        return sr_reward(o, cfg)
    if kind in ("progress", "trial_progress"):
        return progress_reward(o, cfg)
    if kind == "discounted":
        return progress_reward(o, cfg) if o.terminal else 0.0
    raise ConfigError(f"unknown reward kind: {kind!r}")


def trial_backfill(instants: Sequence[float], completed: bool, discount: float) -> list[float]:
    """Propagate one finished trial's instant rewards backward.

    Backward recursion over the trial:

    - a step with instant reward 0 propagates nothing (output 0 there, and
      earlier steps cannot see past it);
    - the final step is doubled when the trial completed the task;
    - every other step earns its instant reward plus the discounted value of
      its successor.

    Returns a list the same length as ``instants``.
    """
    out = [0.0] * len(instants)
    for t in range(len(instants) - 1, -1, -1):
        r = instants[t]
        if r == 0.0:
            continue
        if t == len(instants) - 1:
            out[t] = 2.0 * r if completed else r
        else:
            out[t] = r + discount * out[t + 1]
    return out


def discounted_backfill(instants: Sequence[float], discount: float) -> list[float]:
    """Classic discounted return of a terminal-only reward sequence.

    The final entry is kept as-is and every earlier step receives the
    discounted value of its successor; intermediate entries of ``instants``
    are ignored (the baseline places all reward at the end, and there is no
    reversal cut here).
    """
    out = [0.0] * len(instants)
    if not instants:
        return out
    out[-1] = instants[-1]
    for t in range(len(instants) - 2, -1, -1):
        out[t] = discount * out[t + 1]
    return out


def backfill(instants: Sequence[float], completed: bool, cfg: RewardConfig) -> list[float]:
    """The trial-level reward sequence for cfg.reward_kind."""
    if cfg.reward_kind == "discounted":
        return discounted_backfill(instants, cfg.trial_discount)
    return trial_backfill(instants, completed, cfg.trial_discount)
