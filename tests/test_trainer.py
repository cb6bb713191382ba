"""Agent loop: schedules, masking during training, validation, evaluation."""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from spotrl import seeding, trainer
from spotrl.envs import Env
from spotrl.envs.blockworld import BlockWorld
from spotrl.envs.gridworld import GridWorld
from spotrl.qfunction import LinearQ, TabularQ
from spotrl.rewards import ConfigError, RewardConfig, trial_backfill
from spotrl.spotq import DisallowedActionError, EmptyActionSpaceError
from spotrl.trainer import (
    TERMINATION_COMPLETE,
    TERMINATION_LAVA,
    TERMINATION_LIMIT,
    TERMINATION_SR,
    AgentConfig,
    TrialRecord,
    evaluate,
    masked_policy_flag,
    run_greedy_trial,
    run_training,
    run_validation,
    select_action,
    termination_label,
)

from oracles import ChainEnv, CountingRandom, ForbiddenRandom, scan_pick

CHAIN_WEIGHTS = {"back": 1.0, "forward": 1.0}
GRID_WEIGHTS = {"forward": 1.0, "turn_left": 1.0, "turn_right": 1.0}
BLOCK_WEIGHTS = {"grasp": 1.0, "place": 2.5, "push": 0.5}


def chain_cfg(**kw):
    defaults = dict(
        reward=RewardConfig(weights=CHAIN_WEIGHTS, reward_kind="progress",
                            learn_discount=0.8),
        seed=1,
        training_action_budget=600,
        learning_rate=0.25,
        validation_every=0,
    )
    defaults.update(kw)
    return AgentConfig(**defaults)


class Collector:
    """Observer that keeps everything it is told."""

    def __init__(self):
        self.trials = []
        self.partials = []
        self.validations = []

    def on_trial(self, record, traces):
        self.trials.append((record, traces))

    def on_partial_trial(self, traces):
        self.partials.append(traces)

    def on_validation(self, round_index, action_count, completed):
        self.validations.append((round_index, action_count, completed))


# -- configuration ----------------------------------------------------------


def test_agent_config_validation():
    reward = RewardConfig(weights=CHAIN_WEIGHTS)
    with pytest.raises(ConfigError):
        AgentConfig(reward=reward, use_spotq=True)  # the extra targets need the mask
    with pytest.raises(ConfigError):
        AgentConfig(reward=reward, epsilon_start=1.5)
    AgentConfig(reward=reward, use_spotq=True, use_mask=True)


def test_epsilon_schedule():
    reward = RewardConfig(weights=CHAIN_WEIGHTS)
    cfg = AgentConfig(reward=reward, training_action_budget=10_000,
                      epsilon_start=0.5, epsilon_end=0.05,
                      epsilon_decay_steps=2_000)
    floor = 0.5 + 1.0 * (0.05 - 0.5)  # the interpolation's own endpoint value
    assert cfg.epsilon_at(0) == 0.5
    assert cfg.epsilon_at(1_000) == 0.5 + 0.5 * (0.05 - 0.5)
    assert cfg.epsilon_at(2_000) == floor
    assert cfg.epsilon_at(999_999) == floor  # frac clamps at 1 past the window
    assert floor == pytest.approx(0.05)
    # The default decay window is 20% of the budget.
    cfg = AgentConfig(reward=reward, training_action_budget=10_000,
                      epsilon_start=0.5, epsilon_end=0.05)
    assert cfg.epsilon_at(2_000) == floor
    assert cfg.epsilon_at(1_000) == 0.5 + 0.5 * (0.05 - 0.5)


def test_trial_record_efficiency():
    done = TERMINATION_COMPLETE
    r = TrialRecord(trial_id=0, actions_taken=12, ideal_actions=6, termination=done)
    assert r.efficiency == 0.5
    r = TrialRecord(trial_id=0, actions_taken=4, ideal_actions=6, termination=done)
    assert r.efficiency == 1.0  # better than ideal clamps at 1
    r = TrialRecord(trial_id=0, actions_taken=4, ideal_actions=6)
    assert r.efficiency == 0.0
    r = TrialRecord(trial_id=0, actions_taken=0, ideal_actions=6, termination=done)
    assert r.efficiency == 0.0


@pytest.mark.parametrize("termination", [TERMINATION_COMPLETE, TERMINATION_LIMIT,
                                         TERMINATION_SR, TERMINATION_LAVA])
def test_a_trial_record_is_complete_exactly_when_its_termination_says_so(termination):
    """A record's outcome is read off its termination, so no record can
    claim completion under another termination (or the reverse)."""
    r = TrialRecord(trial_id=0, actions_taken=5, ideal_actions=5, termination=termination)
    assert r.completed == (termination == TERMINATION_COMPLETE)
    assert r.efficiency == (1.0 if r.completed else 0.0)
    with pytest.raises(TypeError):
        TrialRecord(trial_id=0, completed=True, actions_taken=5, ideal_actions=5)


# -- primitives -------------------------------------------------------------


def test_select_action_exploration_draws():
    q = TabularQ(3)
    q.update("s", 2, 1.0, 1.0)
    rng = CountingRandom(0)
    # epsilon 0: one coin draw, then greedy (unique max: no tie draw).
    a = select_action(q, "s", None, 0.0, rng, CountingRandom(1), 3)
    assert a == 2 and rng.draws == 1
    # epsilon 1 with a mask: coin plus a uniform pick over the allowed set.
    rng = CountingRandom(0)
    a = select_action(q, "s", [False, True, False], 1.0, rng, CountingRandom(1), 3)
    assert a == 1 and rng.draws == 2
    # epsilon 1, no mask: uniform over everything; randrange does not call
    # random() so only the coin shows up in the count.
    picks = {select_action(q, "s", None, 1.0, random.Random(i), CountingRandom(1), 3)
             for i in range(30)}
    assert picks == {0, 1, 2}


@given(values=st.lists(st.integers(-2, 2), min_size=1, max_size=6),
       epsilon=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**16))
def test_select_action_all_true_mask_equals_no_mask(values, epsilon, seed):
    """An all-allowed mask picks the action no mask picks and leaves both
    rngs in the same state, ties included."""
    n = len(values)
    q = TabularQ(n)
    for a, v in enumerate(values):
        q.update("s", a, v / 2, 1.0)
    outcomes = []
    for mask in ([True] * n, None):
        rng, tie_rng = random.Random(seed), random.Random(seed + 1)
        action = select_action(q, "s", mask, epsilon, rng, tie_rng, n)
        outcomes.append((action, rng.getstate(), tie_rng.getstate()))
    assert outcomes[0] == outcomes[1]


@given(mask=st.lists(st.booleans(), min_size=96, max_size=96), seed=st.integers(0, 2**16))
def test_select_action_explores_as_the_comprehension_did(mask, seed):
    """With epsilon 1 the allowed set is listed by compress, and the pick
    and every draw are those of the per-action comprehension it replaced."""
    rng, old = random.Random(seed), random.Random(seed)
    assert old.random() < 1.0  # the epsilon coin: explore
    allowed = [a for a in range(96) if mask[a]]
    if not allowed:
        with pytest.raises(EmptyActionSpaceError):
            select_action(TabularQ(96), "s", mask, 1.0, rng, ForbiddenRandom(), 96)
        return
    expected = allowed[old.randrange(len(allowed))]
    assert select_action(TabularQ(96), "s", mask, 1.0, rng, ForbiddenRandom(), 96) == expected
    assert rng.getstate() == old.getstate()


def test_every_env_satisfies_the_env_protocol():
    for env in (GridWorld(), BlockWorld(), ChainEnv()):
        assert isinstance(env, Env)
    assert not isinstance(object(), Env)


def test_every_env_step_returns_state_outcome_event():
    chain = ChainEnv()
    chain.reset(0)
    state, outcome, event = chain.step(1)
    assert event is None and outcome.success
    grid = GridWorld.generate(0)
    state, outcome, event = grid.step(1)
    assert event is None and not outcome.success
    block = BlockWorld()
    block.reset(0)
    state, outcome, event = block.step(0)
    assert event is None and state == block.state()


def test_masked_policy_flag():
    q = TabularQ(3)
    q.update("s", 0, 1.0, 1.0)  # disallowed below
    q.update("s", 1, 0.5, 1.0)
    assert masked_policy_flag(q, "s", [False, True, True]) is True
    assert masked_policy_flag(q, "s", [True, True, False]) is False
    assert masked_policy_flag(q, "s", [True, True, True]) is False  # nothing masked
    assert masked_policy_flag(q, "s", [False, False, False]) is False


# -- training loop ----------------------------------------------------------


def test_training_is_bitwise_deterministic():
    """Identical configs reproduce the exact same Q-function, trial records
    and convergence point."""
    cfg = AgentConfig(
        reward=RewardConfig(weights=BLOCK_WEIGHTS, reward_kind="trial_progress"),
        seed=3,
        training_action_budget=1_500,
        learning_rate=0.2,
        use_mask=True,
        use_spotq=True,
        validation_every=500,
        validation_trials=5,
    )
    runs = [run_training(lambda: BlockWorld(task="stack"), cfg) for _ in range(2)]
    (q1, r1, c1), (q2, r2, c2) = runs
    assert q1.records() == q2.records()
    assert r1 == r2
    assert c1 == c2
    assert len(r1) > 0


def test_trial_accounting_invariants():
    """Observer-visible bookkeeping adds up: one trace per action, attempts
    match traces, terminations label completion correctly, trial ids grow."""
    cfg = AgentConfig(
        reward=RewardConfig(weights=GRID_WEIGHTS, reward_kind="progress",
                            learn_discount=0.9),
        seed=5,
        training_action_budget=2_000,
        use_mask=True,
        validation_every=1_000,
        validation_trials=5,
    )
    observer = Collector()
    q, records, convergence = run_training(lambda: GridWorld(), cfg, observer=observer)
    assert [r.trial_id for r, _ in observer.trials] == sorted(
        r.trial_id for r, _ in observer.trials)
    assert records == [r for r, _ in observer.trials]
    total_actions = sum(len(t) for _, t in observer.trials)
    total_actions += sum(len(t) for t in observer.partials)
    assert total_actions == 2_000
    assert len(observer.partials) <= 1
    for record, traces in observer.trials:
        assert len(traces) == record.actions_taken
        assert sum(record.attempts.values()) == record.actions_taken
        for k, v in record.successes.items():
            assert v <= record.attempts[k]
        assert record.completed == (record.termination == TERMINATION_COMPLETE)
        assert traces[-1].experience.terminal
        for trace in traces:
            assert cfg.epsilon_at(2_000) <= trace.epsilon <= cfg.epsilon_at(0)
    for i, (round_index, action_count, completed) in enumerate(observer.validations):
        assert round_index == i
        assert action_count % 1_000 == 0
        assert 0 <= completed <= 5


def test_run_records_are_slotted_and_share_each_state():
    """The records a run keeps per action and per trial carry no instance
    dict, and every state an experience stores, and every Q-table key, is
    the one object the env returns for that state."""
    cfg = AgentConfig(
        reward=RewardConfig(weights=GRID_WEIGHTS, reward_kind="progress",
                            learn_discount=0.9),
        seed=2,
        training_action_budget=1_500,
        use_mask=True,
        use_spotq=True,
        validation_every=0,
    )
    observer = Collector()
    q, records, _ = run_training(lambda: GridWorld(), cfg, observer=observer)
    traces = [t for _, ts in observer.trials for t in ts]
    for record in (records[0], traces[0], traces[0].experience):
        assert not hasattr(record, "__dict__")
    seen = {}
    for trace in traces:
        for state in (trace.experience.state, trace.experience.next_state):
            assert seen.setdefault(state, state) is state
    assert len(seen) < len(traces)
    assert all(seen[key] is key for key in q._table)


def test_situation_removal_cuts_trials():
    """Under a shaped reward kind, a progress-losing step ends the trial
    with zero reward and no completion bonus; completed trials still earn
    the doubled terminal reward."""
    cfg = chain_cfg(epsilon_start=1.0, epsilon_end=1.0)  # pure random walk
    observer = Collector()
    run_training(ChainEnv, cfg, observer=observer)
    terminations = {r.termination for r, _ in observer.trials}
    assert TERMINATION_SR in terminations
    assert TERMINATION_COMPLETE in terminations
    for record, traces in observer.trials:
        instants = [t.experience.instant_reward for t in traces]
        filled = [t.experience.trial_reward for t in traces]
        assert filled == trial_backfill(
            instants, record.termination == TERMINATION_COMPLETE,
            cfg.reward.trial_discount)
        if record.termination == TERMINATION_SR:
            last = traces[-1].experience
            assert last.instant_reward == 0.0
            assert last.trial_reward == 0.0
            assert last.terminal
            assert not record.completed
        if record.termination == TERMINATION_COMPLETE:
            last = traces[-1].experience
            assert last.trial_reward == 2.0 * last.instant_reward
            assert last.instant_reward > 0


def test_the_immediate_update_trains_on_the_instant_reward():
    """Without replay, a trial reward kind's Q is one instant-reward update
    per experience in order: no update sees a backfilled trial reward."""
    cfg = chain_cfg(reward=RewardConfig(weights=CHAIN_WEIGHTS, reward_kind="trial_sr",
                                        learn_discount=0.8),
                    train_steps_per_action=0)
    observer = Collector()
    q, _, _ = run_training(ChainEnv, cfg, observer=observer)
    traces = [t for _, ts in observer.trials for t in ts]
    traces += [t for ts in observer.partials for t in ts]
    assert any(t.experience.trial_reward != t.experience.instant_reward for t in traces)
    plain = TabularQ(2)
    for e in (t.experience for t in traces):
        target = e.instant_reward
        if not e.terminal:
            target += cfg.reward.learn_discount * plain.best_value(e.next_state)
        plain.update(e.state, e.action_id, target, cfg.learning_rate)
    assert q.records() == plain.records()


def test_seed_streams_partition_train_and_eval():
    """Training trials draw env seeds from the low half of the 32-bit space;
    validation and evaluation draw from the high half."""
    envs = []

    def factory():
        env = ChainEnv()
        envs.append(env)
        return env

    cfg = chain_cfg(validation_every=200, validation_trials=3)
    q, _, _ = run_training(factory, cfg)
    training_env, validation_envs = envs[0], envs[1:]
    assert validation_envs
    assert all(0 <= s < 2 ** 31 for s in training_env.resets)
    for env in validation_envs:
        assert all(2 ** 31 <= s < 2 ** 32 for s in env.resets)

    envs.clear()
    evaluate(q, factory, 5, seed=9)
    assert all(2 ** 31 <= s < 2 ** 32 for s in envs[0].resets)


def test_validation_convergence_and_early_stop():
    """Convergence marks the first validation where every probe trial
    completed; stop_on_convergence ends training right there."""
    observer = Collector()
    cfg = chain_cfg(training_action_budget=3_000, validation_every=500,
                    validation_trials=10)
    _, _, convergence = run_training(ChainEnv, cfg, observer=observer)
    assert convergence is not None and convergence % 500 == 0
    perfect = [a for _, a, c in observer.validations if c == 10]
    assert perfect and perfect[0] == convergence
    later = [a for _, a, _ in observer.validations if a > convergence]
    assert later  # training continued past convergence

    stop_cfg = chain_cfg(training_action_budget=3_000, validation_every=500,
                         validation_trials=10, stop_on_convergence=True)
    stop_observer = Collector()
    _, _, conv2 = run_training(ChainEnv, stop_cfg, observer=stop_observer)
    assert conv2 == convergence  # same stream, same learning history
    assert stop_observer.validations[-1][1] == conv2
    total = sum(len(t) for _, t in stop_observer.trials)
    total += sum(len(t) for t in stop_observer.partials)
    assert total == conv2


def test_zero_budget_trains_nothing():
    q, records, convergence = run_training(ChainEnv, chain_cfg(training_action_budget=0))
    assert records == [] and convergence is None
    assert q.records() == []


# -- evaluation -------------------------------------------------------------


def forward_q():
    q = TabularQ(2)
    q.update(0, 1, 1.0, 1.0)
    q.update(1, 1, 1.0, 1.0)
    return q


def test_evaluate_perfect_policy():
    summary, trials = evaluate(forward_q(), ChainEnv, 20, seed=4)
    assert summary["completion_rate"] == 1.0
    assert summary["mean_efficiency"] == 1.0  # 2 actions vs ideal 2
    assert summary["success_rates"] == {"forward": 1.0}
    assert [t.trial_id for t in trials] == list(range(20))
    assert all(t.termination == TERMINATION_COMPLETE for t in trials)


def test_evaluate_hopeless_policy():
    q = TabularQ(2)
    q.update(0, 0, 1.0, 1.0)  # always walk back into the wall
    q.update(1, 0, 1.0, 1.0)
    summary, trials = evaluate(q, ChainEnv, 10, seed=4)
    assert summary["completion_rate"] == 0.0
    assert summary["mean_efficiency"] == 0.0
    assert all(t.termination == TERMINATION_LIMIT for t in trials)
    assert all(t.actions_taken == 12 for t in trials)  # the chain action limit
    assert summary["success_rates"]["back"] == 0.0


def test_greedy_trials_respect_the_mask():
    """A value-free masked policy wandering the grid world never dies in
    lava; the mask alone guarantees it."""
    rng = seeding.stream(0, "eval")
    env = GridWorld()
    q = TabularQ(3)
    for _ in range(30):
        record = run_greedy_trial(q, env, True, rng)
        assert record.termination in (TERMINATION_COMPLETE, TERMINATION_LIMIT)
        assert record.termination != TERMINATION_LAVA


def plain_greedy_trial(q, env, use_mask, rng):
    """A greedy trial without a memo: every step scans the state's row under
    a fresh mask."""
    state = env.reset(seeding.eval_env_seed(rng))
    ideal = env.ideal_actions()
    attempts, successes = {}, {}
    steps, completed, event = 0, False, None
    while not env.terminal:
        mask = env.mask_for(state) if use_mask else None
        state, outcome, event = env.step(scan_pick(q.row(state), mask, rng))
        steps += 1
        attempts[outcome.action_type] = attempts.get(outcome.action_type, 0) + 1
        if outcome.success:
            successes[outcome.action_type] = successes.get(outcome.action_type, 0) + 1
        completed = outcome.task_complete
    return TrialRecord(trial_id=0, actions_taken=steps, ideal_actions=ideal,
                       attempts=attempts, successes=successes,
                       termination=termination_label(completed, event))


PROBE_RUNS = {
    "grid": (GridWorld, GRID_WEIGHTS, "progress", 600),
    "block": (BlockWorld, BLOCK_WEIGHTS, "trial_progress", 300),
}


@functools.lru_cache(maxsize=None)
def probed_run(name):
    """A briefly trained Q (unvisited states still tie at 0) and its config."""
    factory, weights, kind, budget = PROBE_RUNS[name]
    cfg = AgentConfig(reward=RewardConfig(weights=weights, reward_kind=kind),
                      training_action_budget=budget, use_mask=True, use_spotq=True,
                      validation_every=0, validation_trials=5)
    q = LinearQ(factory()) if factory is BlockWorld else TabularQ(factory().n_actions)
    return factory, cfg, run_training(factory, cfg, q=q)[0]


@pytest.mark.parametrize("use_mask", [True, False])
@pytest.mark.parametrize("name", sorted(PROBE_RUNS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_a_shared_probe_memo_matches_an_unmemoized_greedy_loop(name, use_mask, seed):
    """Greedy trials sharing one tie memo, evaluation and a validation round
    give the records, completions and tie-stream states of greedy trials
    that scan every step's row, with and without the mask."""
    factory, cfg, q = probed_run(name)
    rng, plain_rng = random.Random(seed), random.Random(seed)
    env, plain_env = factory(), factory()
    ties, steps = {}, 0
    for _ in range(6):
        record = run_greedy_trial(q, env, use_mask, rng, ties)
        steps += record.actions_taken
        assert (record, rng.getstate()) == \
            (plain_greedy_trial(q, plain_env, use_mask, plain_rng), plain_rng.getstate())
    assert len(ties) < steps  # the memo answered some steps

    stream = seeding.stream(seed, "eval")
    expected = [replace(plain_greedy_trial(q, plain_env, use_mask, stream), trial_id=i)
                for i in range(8)]
    assert evaluate(q, factory, 8, seed, use_mask)[1] == expected

    val_cfg = replace(cfg, seed=seed, use_mask=use_mask, use_spotq=use_mask)
    stream = seeding.stream(seed, "val-3")
    completed = sum(plain_greedy_trial(q, plain_env, use_mask, stream).completed
                    for _ in range(val_cfg.validation_trials))
    assert run_validation(q, factory, val_cfg, 3) == completed



@pytest.mark.parametrize("name", sorted(PROBE_RUNS))
def test_training_records_recount_their_own_steps(name):
    """Each finished training trial's attempt and success counts are a
    per-step recount over its traces, in first-seen key order, held in
    plain dicts."""
    factory, weights, kind, budget = PROBE_RUNS[name]
    cfg = AgentConfig(reward=RewardConfig(weights=weights, reward_kind=kind), seed=7,
                      training_action_budget=budget, use_mask=True, use_spotq=True,
                      validation_every=0)
    q = LinearQ(factory()) if factory is BlockWorld else TabularQ(factory().n_actions)
    observer = Collector()
    run_training(factory, cfg, q=q, observer=observer)
    assert observer.trials
    kinds = set()
    for record, traces in observer.trials:
        attempts, successes = {}, {}
        for trace in traces:
            e = trace.experience
            attempts[e.action_type] = attempts.get(e.action_type, 0) + 1
            if e.success:
                successes[e.action_type] = successes.get(e.action_type, 0) + 1
        assert type(record.attempts) is dict and type(record.successes) is dict
        assert list(record.attempts.items()) == list(attempts.items())
        assert list(record.successes.items()) == list(successes.items())
        kinds.add((len(attempts) > 1, bool(successes)))
    assert (True, True) in kinds  # some trial mixes action types and succeeds

def test_a_disallowed_pick_raises(monkeypatch):
    """The mask check is an exception, not an assert, so it also holds under
    ``python -O``. A policy forced onto a masked action (place with an empty
    gripper) is stopped in both greedy trials and training."""
    monkeypatch.setattr(trainer, "masked_ties", lambda q, state, mask: (mask.index(False),))
    monkeypatch.setattr(trainer, "masked_argmax",
                        lambda q, state, mask, rng: mask.index(False))
    with pytest.raises(DisallowedActionError):
        run_greedy_trial(TabularQ(96), BlockWorld(), True, random.Random(0))
    cfg = AgentConfig(
        reward=RewardConfig(weights=BLOCK_WEIGHTS, reward_kind="trial_progress"),
        training_action_budget=10,
        epsilon_start=0.0,
        epsilon_end=0.0,
        use_mask=True,
        validation_every=0,
    )
    with pytest.raises(DisallowedActionError):
        run_training(BlockWorld, cfg)
