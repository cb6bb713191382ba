"""The agent loop: action selection, situation removal, replay training,
validation probes, and greedy evaluation.

Per executed action, in deterministic interleaved order: select (epsilon-
greedy over the allowed set), step the environment, run k prioritized
replay updates on the buffer as it stood before this action (the replay
filter is anchored on the previously pushed sample), push the new
experience, apply one immediate update on it (on its instant reward: its
trial reward is not yet backfilled), then backfill trial rewards if the
trial just ended. Every random draw comes from a named derived stream, so
identical configs reproduce identical runs bit for bit.

During training only, and only for the shaped reward kinds, a situation-
removal check after each step can cut the trial short: the step's reward
is overridden to zero, its experience is marked terminal, and the trial
ends without the completion bonus.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Optional

from . import replay, seeding, spotq
from .envs import Env
from .qfunction import QFunction, TabularQ, draw_tie
from .replay import Experience, ReplayBuffer
from .rewards import ConfigError, RewardConfig, instant_reward
from .spotq import masked_argmax, masked_ties

TERMINATION_COMPLETE = "Complete"
TERMINATION_LIMIT = "ActionLimit"
TERMINATION_SR = "SituationRemoval"
TERMINATION_LAVA = "LavaDeath"


def termination_label(task_complete: bool, event: Optional[str]) -> str:
    """How a trial that the env ended (or that ran out of actions) ended."""
    if task_complete:
        return TERMINATION_COMPLETE
    return TERMINATION_LAVA if event == "lava" else TERMINATION_LIMIT


@dataclass(frozen=True)
class AgentConfig:
    reward: RewardConfig
    seed: int = 0
    training_action_budget: int = 10_000
    epsilon_start: float = 0.5
    epsilon_end: float = 0.05
    epsilon_decay_steps: Optional[int] = None  # default: 20% of the budget
    learning_rate: float = 0.2
    train_steps_per_action: int = 1
    use_mask: bool = False
    use_spotq: bool = False
    validation_every: int = 5_000
    validation_trials: int = 30
    stop_on_convergence: bool = False
    replay_capacity: int = 100_000
    per_exponent: float = 2.0
    type_filter_prob: float = 0.95

    def __post_init__(self):
        if self.use_spotq and not self.use_mask:
            raise ConfigError("use_spotq requires use_mask")
        if self.training_action_budget < 0:
            raise ConfigError("training_action_budget must be 0 or more")
        for eps in (self.epsilon_start, self.epsilon_end):
            if not 0.0 <= eps <= 1.0:
                raise ConfigError("epsilon must be in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.epsilon_decay_steps is not None and self.epsilon_decay_steps < 1:
            raise ConfigError("epsilon_decay_steps must be at least 1")
        if self.replay_capacity < 1:
            raise ConfigError("replay_capacity must be at least 1")
        if self.validation_trials < 1:
            raise ConfigError("validation_trials must be at least 1")
        if self.validation_every < 0:
            raise ConfigError("validation_every must be 0 (off) or more")
        if self.train_steps_per_action < 0:
            raise ConfigError("train_steps_per_action must be 0 or more")
        if not 0.0 <= self.per_exponent < math.inf:
            raise ConfigError("per_exponent must be finite and non-negative")
        if not 0.0 <= self.type_filter_prob <= 1.0:
            raise ConfigError("type_filter_prob must be in [0, 1]")

    def epsilon_at(self, action_count: int) -> float:
        decay = self.epsilon_decay_steps
        if decay is None:
            decay = max(1, int(0.2 * self.training_action_budget))
        frac = min(1.0, action_count / decay)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


@dataclass(slots=True)
class TrialRecord:
    trial_id: int
    actions_taken: int
    ideal_actions: int
    attempts: dict = field(default_factory=dict)
    successes: dict = field(default_factory=dict)
    termination: str = TERMINATION_LIMIT

    @property
    def completed(self) -> bool:
        return self.termination == TERMINATION_COMPLETE

    @property
    def efficiency(self) -> float:
        if not self.completed or self.actions_taken == 0:
            return 0.0
        return min(1.0, self.ideal_actions / self.actions_taken)


def trial_record(trial_id: int, ideal: int, termination: str, steps: list) -> TrialRecord:
    """The record of a finished trial, its per-type attempt and success
    counts (in first-seen order) taken from its steps: experiences in
    training, step outcomes in a greedy trial, each with ``action_type``
    and ``success``."""
    attempts: dict = {}
    successes: dict = {}
    for s in steps:
        attempts[s.action_type] = attempts.get(s.action_type, 0) + 1
        if s.success:
            successes[s.action_type] = successes.get(s.action_type, 0) + 1
    return TrialRecord(trial_id=trial_id, actions_taken=len(steps), ideal_actions=ideal,
                       attempts=attempts, successes=successes, termination=termination)


@dataclass(slots=True)
class StepTrace:
    """Per-step detail handed to observers for the step log; slotted, like
    the experience it wraps, since a trial keeps one per action."""
    experience: Experience
    epsilon: float
    masked_policy: bool
    progress: float


def select_action(
    q: QFunction,
    state,
    mask: Optional[list],
    epsilon: float,
    rng: random.Random,
    tie_rng: random.Random,
    n_actions: int,
) -> int:
    """Epsilon-greedy over the allowed set (the full set when mask is None)."""
    if rng.random() < epsilon:
        if mask is None:
            return rng.randrange(n_actions)
        allowed = list(compress(range(n_actions), mask))
        if not allowed:
            raise spotq.EmptyActionSpaceError("empty dynamic action space")
        return allowed[rng.randrange(len(allowed))]
    return masked_argmax(q, state, mask, tie_rng)


def masked_policy_flag(q: QFunction, state, mask: list) -> bool:
    """True when the mask is doing work: it allows none of ``q.ties``, so a
    disallowed action out-values every allowed one. Draw-free, for logging."""
    return True in mask and True not in map(mask.__getitem__, q.ties(state))


def check_allowed(mask: list, action: int) -> None:
    """Raise if a masked policy picked a disallowed action; unlike an
    assert, the check survives ``python -O``."""
    if not mask[action]:
        raise spotq.DisallowedActionError(
            f"masked policy executed disallowed action {action}")


def run_validation(q, env_factory: Callable[[], Env], cfg: AgentConfig, round_index: int) -> int:
    """Greedy-policy probe on fresh evaluation-range seeds; returns the
    number of completed trials. No learning, no situation removal."""
    stream = seeding.stream(cfg.seed, f"val-{round_index}")
    trials = probe(q, env_factory, cfg.validation_trials, cfg.use_mask, stream)
    return sum(t.completed for t in trials)


def probe(q, env_factory: Callable[[], Env], n_trials: int, use_mask: bool,
          rng: random.Random) -> list[TrialRecord]:
    """``n_trials`` greedy trials on one fresh env, sharing one tie memo."""
    env = env_factory()
    ties: dict = {}
    return [run_greedy_trial(q, env, use_mask, rng, ties) for _ in range(n_trials)]


def run_greedy_trial(q, env: Env, use_mask: bool, rng: random.Random,
                     ties: Optional[dict] = None) -> TrialRecord:
    """One greedy trial on a fresh evaluation-range seed.

    ``ties`` maps each state already acted in to its allowed tie tuple
    (``masked_ties``, or ``q.ties`` without the mask); a probe shares one
    across its trials, which is exact because Q does not change during a
    probe and a mask depends on the state alone. Every tied action is
    checked against the mask when its entry is made."""
    if ties is None:
        ties = {}
    state = env.reset(seeding.eval_env_seed(rng))
    ideal = env.ideal_actions()
    outcomes = []
    event = None
    while not env.terminal:
        tied = ties.get(state)
        if tied is None:
            if use_mask:
                mask = env.mask_for(state)
                tied = ties[state] = masked_ties(q, state, mask)
                for a in tied:
                    check_allowed(mask, a)
            else:
                tied = ties[state] = q.ties(state)
        state, outcome, event = env.step(draw_tie(tied, rng))
        outcomes.append(outcome)
    completed = bool(outcomes) and outcomes[-1].task_complete
    return trial_record(0, ideal, termination_label(completed, event), outcomes)


def run_training(
    env_factory: Callable[[], Env],
    cfg: AgentConfig,
    q: Optional[QFunction] = None,
    observer=None,
) -> tuple[QFunction, list[TrialRecord], Optional[int]]:
    """Train for cfg.training_action_budget actions; returns the learned Q,
    the finished-trial records, and the first action count at which every
    validation trial completed (None if that never happened).

    The observer, when given, is called as observer.on_trial(record, traces),
    observer.on_partial_trial(traces) for a budget-cut unfinished trial, and
    observer.on_validation(round_index, action_count, completed).
    """
    env = env_factory()
    if q is None:
        q = TabularQ(env.n_actions)
    rcfg = cfg.reward
    action_rng = seeding.stream(cfg.seed, "action")
    tie_rng = seeding.stream(cfg.seed, "ties")
    replay_rng = seeding.stream(cfg.seed, "replay")
    env_seed_rng = seeding.stream(cfg.seed, "env")
    buf = ReplayBuffer(
        rcfg,
        capacity=cfg.replay_capacity,
        per_exponent=cfg.per_exponent,
        type_filter_prob=cfg.type_filter_prob,
    )
    target_mask_fn = env.mask_for if cfg.use_spotq else None

    records: list[TrialRecord] = []
    convergence: Optional[int] = None
    actions_done = 0
    trial_id = 0
    validation_round = 0
    stop = False

    while actions_done < cfg.training_action_budget and not stop:
        state = env.reset(seeding.training_env_seed(env_seed_rng))
        ideal = env.ideal_actions()
        traces: list[StepTrace] = []
        termination: Optional[str] = None

        while termination is None and actions_done < cfg.training_action_budget and not stop:
            epsilon = cfg.epsilon_at(actions_done)
            mask = env.mask_for(state) if cfg.use_mask else None
            action = select_action(q, state, mask, epsilon, action_rng, tie_rng, env.n_actions)
            if mask is not None:
                check_allowed(mask, action)
            predicted = q.value(state, action)
            masked_flag = masked_policy_flag(q, state, mask) if mask is not None else False
            next_state, outcome, event = env.step(action)

            reward = env.instant_reward_override(outcome, rcfg.reward_kind)
            if reward is None:
                reward = instant_reward(outcome, rcfg)
            sr_cut = False
            if rcfg.situation_removal_active and not outcome.terminal:
                if env.situation_removal_check(outcome.progress_before, outcome.progress_after):
                    sr_cut = True
                    reward = 0.0
            terminal = outcome.terminal or sr_cut

            if buf.eligible > 0:
                for _ in range(cfg.train_steps_per_action):
                    replay.train_step(buf, q, target_mask_fn, rcfg, cfg.learning_rate,
                                      replay_rng, tie_rng)

            e = Experience(
                state=state,
                action_id=action,
                action_type=outcome.action_type,
                instant_reward=reward,
                trial_reward=None,
                predicted_q=predicted,
                success=outcome.success,
                trial_id=trial_id,
                step_index=len(traces),
                next_state=next_state,
                terminal=terminal,
            )
            buf.push(e)
            actions_done += 1
            replay.apply_update(e, q, target_mask_fn, rcfg, cfg.learning_rate, tie_rng)

            if terminal:
                buf.finalize_trial(trial_id, outcome.task_complete)
                termination = (TERMINATION_SR if sr_cut
                               else termination_label(outcome.task_complete, event))
            traces.append(StepTrace(e, epsilon, masked_flag, outcome.progress_after))

            if cfg.validation_every and actions_done % cfg.validation_every == 0:
                completed = run_validation(q, env_factory, cfg, validation_round)
                if observer is not None:
                    observer.on_validation(validation_round, actions_done, completed)
                validation_round += 1
                if completed == cfg.validation_trials and convergence is None:
                    convergence = actions_done
                    if cfg.stop_on_convergence:
                        stop = True
            state = next_state

        if termination is not None:
            record = trial_record(trial_id, ideal, termination,
                                  [t.experience for t in traces])
            records.append(record)
            if observer is not None:
                observer.on_trial(record, traces)
        elif observer is not None:
            observer.on_partial_trial(traces)
        trial_id += 1

    return q, records, convergence


def evaluate(
    q: QFunction,
    env_factory: Callable[[], Env],
    n_trials: int,
    seed: int,
    use_mask: bool = True,
) -> tuple[dict, list[TrialRecord]]:
    """Greedy-policy evaluation on fresh evaluation-range seeds.

    Efficiency is ideal/actual clamped to 1, averaged over completed trials
    only (0 when nothing completed). Also reports per-type success rates.
    """
    trials = [replace(t, trial_id=i) for i, t in enumerate(
        probe(q, env_factory, n_trials, use_mask, seeding.stream(seed, "eval")))]
    done = [t for t in trials if t.completed]
    attempts, successes = Counter(), Counter()
    for t in trials:
        attempts.update(t.attempts)
        successes.update(t.successes)
    summary = {
        "completion_rate": len(done) / n_trials if n_trials else 0.0,
        "mean_efficiency": (sum(t.efficiency for t in done) / len(done)) if done else 0.0,
        "success_rates": {k: successes[k] / attempts[k] for k in sorted(attempts)},
    }
    return summary, trials

