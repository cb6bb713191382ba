"""Masked Q-learning with situation-removal reward shaping, trial-reward
propagation, and surprise-prioritized replay, plus two desk-scale
environments and an ablation harness."""

from .envs import BlockWorld, GridWorld
from .qfunction import LinearQ, QFunction, TabularQ
from .replay import Experience, ReplayBuffer, train_step
from .rewards import (
    ConfigError,
    RewardConfig,
    StepOutcome,
    backfill,
    base_reward,
    discounted_backfill,
    instant_reward,
    progress_reward,
    sr_indicator,
    sr_reward,
    trial_backfill,
)
from .spotq import SpotQTargets, huber_loss, masked_argmax, targets
from .trainer import AgentConfig, TrialRecord, evaluate, run_training

__all__ = [
    "AgentConfig",
    "BlockWorld",
    "ConfigError",
    "Experience",
    "GridWorld",
    "LinearQ",
    "QFunction",
    "ReplayBuffer",
    "RewardConfig",
    "SpotQTargets",
    "StepOutcome",
    "TabularQ",
    "TrialRecord",
    "backfill",
    "base_reward",
    "discounted_backfill",
    "evaluate",
    "huber_loss",
    "instant_reward",
    "masked_argmax",
    "progress_reward",
    "run_training",
    "sr_indicator",
    "sr_reward",
    "targets",
    "trial_backfill",
    "train_step",
]
