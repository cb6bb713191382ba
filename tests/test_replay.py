"""Replay buffer: trial bookkeeping, surprise ranking, filtered sampling."""

import random

import pytest
from hypothesis import example, given, strategies as st

from spotrl.qfunction import LinearQ, TabularQ
from spotrl.replay import (
    EmptyBufferError,
    Experience,
    ReplayBuffer,
    TrialOrderError,
    apply_update,
    surprise,
    train_step,
    training_reward,
)
from spotrl.rewards import RewardConfig

from oracles import (BruteForceReplay, CountingRandom, ForbiddenRandom, KeyFeatures,
                     MirrorReplay, ScriptedRandom, reference_apply_update)

WEIGHTS = {"grasp": 1.0, "place": 1.25, "push": 0.5}


def cfg(kind="base", **kw):
    return RewardConfig(weights=WEIGHTS, reward_kind=kind, **kw)


def exp(i=0, *, atype="grasp", instant=1.0, predicted=0.0, success=True,
        trial=0, step=0, terminal=False):
    return Experience(
        state=("s", i),
        action_id=0,
        action_type=atype,
        instant_reward=instant,
        trial_reward=None,
        predicted_q=predicted,
        success=success,
        trial_id=trial,
        step_index=step,
        next_state=("s", i + 1),
        terminal=terminal,
    )


# -- push ordering and eligibility ------------------------------------------


def test_push_assigns_indices_and_tracks_last():
    buf = ReplayBuffer(cfg())
    assert buf.push(exp(0, step=0)) == 0
    assert buf.push(exp(1, step=1, atype="place", success=False)) == 1
    assert len(buf) == 2
    assert buf.last_pushed.action_type == "place"
    assert buf.get(0).state == ("s", 0)


def test_push_rejects_disorder():
    buf = ReplayBuffer(cfg())
    buf.push(exp(0, trial=1, step=0))
    with pytest.raises(TrialOrderError):
        buf.push(exp(1, trial=0, step=0))  # trial ids must not go backwards
    with pytest.raises(TrialOrderError):
        buf.push(exp(1, trial=1, step=0))  # step must advance within a trial
    buf.finalize_trial(1, False)
    with pytest.raises(TrialOrderError):
        buf.push(exp(2, trial=1, step=1))  # the trial is closed


@pytest.mark.parametrize("kind", ["base", "trial_progress"])
def test_push_rejects_an_experience_with_its_trial_reward_set(kind):
    """Only finalize_trial writes a trial reward, and a trial's finalized flag
    is read off its entries' trial rewards, so a push that arrives with one
    set raises and leaves the buffer as it was."""
    buf = ReplayBuffer(cfg(kind), capacity=2)
    buf.push(exp(0, trial=0, step=0))
    buf.push(exp(1, trial=1, step=0))

    def contents():
        return (len(buf), buf.eligible, buf.last_pushed, list(buf._entries), buf._base,
                buf._dead, list(buf._all_ids), list(buf._all_keys))

    before = contents()
    for trial, step in ((1, 1), (2, 0)):  # the open trial, and a new one
        e = exp(2, trial=trial, step=step)
        e.trial_reward = 1.0
        with pytest.raises(ValueError):
            buf.push(e)
        assert contents() == before
    buf.finalize_trial(1, True)  # trial 1 is still open and still finalizes
    assert buf.get(1).trial_reward is not None
    with pytest.raises(KeyError):
        buf.get(2)


def test_instant_kinds_are_eligible_immediately():
    buf = ReplayBuffer(cfg("base"))
    buf.push(exp(0))
    assert buf.eligible == 1


def test_trial_kinds_sleep_until_finalized():
    """Trial-reward kinds cannot be replayed before their trial reward
    exists, so freshly pushed experiences are invisible to sample()."""
    buf = ReplayBuffer(cfg("trial_progress"))
    buf.push(exp(0, step=0))
    buf.push(exp(1, step=1))
    assert len(buf) == 2
    assert buf.eligible == 0
    with pytest.raises(EmptyBufferError):
        buf.sample(random.Random(0), "grasp", True)
    buf.finalize_trial(0, False)
    assert buf.eligible == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReplayBuffer(cfg(), capacity=0)


# -- finalize ---------------------------------------------------------------


def test_finalize_backfills_trial_rewards():
    buf = ReplayBuffer(cfg("trial_progress"))
    for i, instant in enumerate([1.0, 0.0, 1.0, 1.0]):
        buf.push(exp(i, instant=instant, step=i, terminal=i == 3))
    buf.finalize_trial(0, True)
    assert [buf.get(i).trial_reward for i in range(4)] == [1.0, 0.0, 2.3, 2.0]


def test_finalize_is_idempotent():
    buf = ReplayBuffer(cfg("trial_progress"))
    buf.push(exp(0, instant=0.5, terminal=True))
    buf.finalize_trial(0, True)
    assert buf.get(0).trial_reward == 1.0
    buf.finalize_trial(0, False)  # second call changes nothing
    assert buf.get(0).trial_reward == 1.0


def test_finalize_unknown_trial_raises():
    buf = ReplayBuffer(cfg())
    buf.push(exp(0, trial=3))
    with pytest.raises(KeyError):
        buf.finalize_trial(7, True)


def test_finalize_accepts_config_override():
    """The buffer's own reward config routes the backfill (here: terminal-only
    discounting instead of run-based propagation), so a trial is backfilled
    under the kind it is ranked by."""
    buf = ReplayBuffer(cfg("discounted", trial_discount=0.9))
    for i, instant in enumerate([1.0, 0.0, 1.0]):
        buf.push(exp(i, instant=instant, step=i, terminal=i == 2))
    buf.finalize_trial(0, True)
    assert [buf.get(i).trial_reward for i in range(3)] == [0.81, 0.9, 1.0]


# -- sampling ---------------------------------------------------------------


def test_sample_consumes_exactly_two_draws():
    """Every sample() call costs one filter coin and one rank draw, no matter
    how the filter resolves, so downstream randomness stays aligned."""
    buf = ReplayBuffer(cfg())
    for i in range(3):
        buf.push(exp(i, step=i, atype="grasp", success=True))
    rng = CountingRandom(0)
    buf.sample(rng, "grasp", True)      # group ("grasp", False) empty: fallback
    assert rng.draws == 2
    buf.sample(rng, "grasp", False)     # group ("grasp", True) populated
    assert rng.draws == 4


def test_sample_empty_buffer_raises_before_drawing():
    buf = ReplayBuffer(cfg())
    rng = CountingRandom(0)
    with pytest.raises(EmptyBufferError):
        buf.sample(rng, "grasp", True)
    assert rng.draws == 0


def sample_fixture():
    """Three entries with descending surprise: A(grasp,+,5) B(place,-,3)
    C(grasp,-,1)."""
    buf = ReplayBuffer(cfg())
    buf.push(exp(0, atype="grasp", success=True, instant=5.0, step=0))
    buf.push(exp(1, atype="place", success=False, instant=3.0, step=1))
    buf.push(exp(2, atype="grasp", success=False, instant=1.0, step=2))
    return buf


def test_filter_restricts_to_same_type_opposite_success():
    buf = sample_fixture()
    # Coin passes: only ("grasp", False) entries qualify, i.e. C.
    assert buf.sample(ScriptedRandom([0.0, 0.3]), "grasp", True) == 2


def test_filter_coin_failure_uses_full_list():
    buf = sample_fixture()
    # Coin fails (0.99 >= 0.95): rank 0 of the full list is the most
    # surprising entry, A.
    assert buf.sample(ScriptedRandom([0.99, 0.0]), "grasp", True) == 0


def test_filter_falls_back_when_group_empty():
    buf = sample_fixture()
    # Coin passes but no ("place", True) entries exist: full list again.
    assert buf.sample(ScriptedRandom([0.0, 0.0]), "place", False) == 0


def test_sampling_does_not_consume_priorities():
    buf = sample_fixture()
    for _ in range(50):
        assert buf.sample(ScriptedRandom([0.99, 0.0]), "grasp", True) == 0


def test_finalize_rekeys_surprise():
    """Completing a trial doubles its terminal reward, which can reorder
    the surprise ranking."""
    buf = ReplayBuffer(cfg("base"))
    buf.push(exp(0, trial=0, instant=0.4, terminal=True))
    buf.push(exp(1, trial=1, instant=0.6))
    top = ScriptedRandom([0.99, 0.0])
    assert buf.sample(top, "grasp", True) == 1  # 0.6 beats 0.4
    buf.finalize_trial(0, True)                 # trial reward 0.8 beats 0.6
    top = ScriptedRandom([0.99, 0.0])
    assert buf.sample(top, "grasp", True) == 0


@pytest.mark.parametrize("exponent", [2.0, 0.25])
def test_rank_distribution_matches_power_law(exponent):
    """Empirical rank frequencies over 100k draws stay within total
    variation 0.02 of the exact power-law mass function."""
    buf = ReplayBuffer(cfg(), per_exponent=exponent, type_filter_prob=0.0)
    n = 8
    for i in range(n):
        buf.push(exp(i, instant=float(n - i), step=i))  # rank i == index i
    weights = [(r + 1) ** (-exponent) for r in range(n)]
    total = sum(weights)
    exact = [w / total for w in weights]
    counts = [0] * n
    rng = random.Random(0)
    draws = 100_000
    for _ in range(draws):
        counts[buf.sample(rng, "grasp", True)] += 1
    tv = 0.5 * sum(abs(c / draws - p) for c, p in zip(counts, exact))
    assert tv <= 0.02


# -- eviction ---------------------------------------------------------------


def test_eviction_removes_whole_oldest_trial():
    buf = ReplayBuffer(cfg(), capacity=4)
    for i in range(3):
        buf.push(exp(i, trial=0, step=i))
    buf.finalize_trial(0, False)
    buf.push(exp(3, trial=1, step=0))
    assert len(buf) == 4
    buf.push(exp(4, trial=1, step=1))  # 5 > 4: trial 0 goes away entirely
    assert len(buf) == 2
    assert buf.eligible == 2
    for i in range(3):
        with pytest.raises(KeyError):
            buf.get(i)
    buf.finalize_trial(0, True)  # evicted trial: silently ignored
    with pytest.raises(KeyError):
        buf.finalize_trial(99, True)


def test_eviction_spares_the_trial_being_written():
    """A single trial may overflow capacity; it is never self-evicted."""
    buf = ReplayBuffer(cfg(), capacity=2)
    for i in range(4):
        buf.push(exp(i, trial=0, step=i))
    assert len(buf) == 4
    buf.finalize_trial(0, False)
    buf.push(exp(4, trial=1, step=0))  # now trial 0 is evictable
    assert len(buf) == 1
    assert buf.get(4).trial_id == 1


def test_trial_order_holds_after_evictions():
    """Once the oldest trials are evicted, the newest live trial still bounds
    pushes and the oldest live one bounds finalizes: no push goes below the
    newest trial, a finalize below the oldest is a no-op, and a finalize of
    a never-pushed trial above it raises KeyError."""
    buf = ReplayBuffer(cfg(), capacity=2)
    for i, trial in enumerate([0, 1, 3, 5]):
        buf.push(exp(i, trial=trial))  # evicts trials 0 and 1
    assert [buf.get(i).trial_id for i in (2, 3)] == [3, 5]
    for trial in (0, 1, 3, 4):
        with pytest.raises(TrialOrderError, match="precedes current trial 5"):
            buf.push(exp(9, trial=trial, step=1))
    for trial in (0, 1, 2):
        buf.finalize_trial(trial, True)  # below trial 3: evicted, no-op
    assert [buf.get(i).trial_reward for i in (2, 3)] == [None, None]
    for trial in (4, 6):
        with pytest.raises(KeyError):
            buf.finalize_trial(trial, True)
    buf.push(exp(4, trial=5, step=1))  # evicts trial 3
    buf.finalize_trial(4, True)  # now below the oldest live trial
    with pytest.raises(TrialOrderError, match="precedes current trial 5"):
        buf.push(exp(5, trial=4))
    buf.finalize_trial(5, True)
    assert None not in [buf.get(i).trial_reward for i in (3, 4)]
    assert len(buf) == 2 and buf.eligible == 2


def test_evicting_an_unfinalized_trial_under_a_trial_kind():
    """A trial kind ranks a trial only once it is finalized, so evicting a
    trial that never was leaves the ranked entries alone."""
    buf = ReplayBuffer(cfg("trial_progress"), capacity=3)
    buf.push(exp(0, trial=0, step=0, predicted=0.5))
    buf.finalize_trial(0, True)
    buf.push(exp(1, trial=1, step=0))
    buf.push(exp(2, trial=1, step=1))  # trial 1 is left unfinalized
    buf.push(exp(3, trial=2, step=0))  # evicts trial 0
    buf.push(exp(4, trial=2, step=1))  # evicts trial 1, never ranked
    assert len(buf) == 2
    assert buf.eligible == 0
    buf.finalize_trial(2, False)
    assert buf.eligible == 2


def test_removing_an_unranked_entry_raises():
    buf = ReplayBuffer(cfg("trial_progress"))
    buf.push(exp(0))
    with pytest.raises(RuntimeError):
        buf._rank_remove(0)
    # Ranked, but under another surprise (1.0): the key must match too.
    buf = ReplayBuffer(cfg())
    buf.push(exp(0, instant=1.0, predicted=0.0))
    with pytest.raises(RuntimeError):
        buf._rank_remove(0, ranked_surprise=2.0)


# One pushed step: action type, success, instant reward, prediction, how the
# trial goes on after it, whether the oldest abandoned trial is finalized
# late, and how many draws follow.
REPLAY_STEPS = st.lists(
    st.tuples(st.sampled_from(["grasp", "place"]), st.booleans(),
              st.sampled_from([0.0, 0.25, 0.5, 1.0]),
              st.sampled_from([0.0, 0.25, 0.5, 0.75]),
              st.sampled_from(["continue", "complete", "fail", "abandon"]),
              st.booleans(), st.integers(0, 2)),
    min_size=1, max_size=30)


@given(
    kind=st.sampled_from(["base", "progress", "trial_sr", "trial_progress"]),
    capacity=st.integers(1, 8),
    per_exponent=st.sampled_from([0.25, 2.0]),
    filter_prob=st.sampled_from([0.0, 0.5, 1.0]),
    steps=REPLAY_STEPS,
    seed=st.integers(0, 2**16),
)
@example(kind="trial_progress", capacity=2, per_exponent=2.0, filter_prob=0.5,
         steps=[("grasp", True, 1.0, 0.0, "complete", False, 1),
                ("grasp", True, 0.5, 0.25, "continue", False, 1),
                ("place", False, 1.0, 0.0, "abandon", False, 1),
                ("grasp", False, 0.25, 0.5, "continue", False, 1),
                ("place", True, 0.5, 0.0, "complete", False, 2)],
         seed=0)
@example(kind="base", capacity=4, per_exponent=0.25, filter_prob=0.5,
         steps=[("grasp", True, 0.25, 0.5, "continue", False, 1),
                ("grasp", False, 0.5, 0.0, "continue", False, 1),
                ("place", True, 1.0, 0.25, "complete", False, 2),
                ("place", False, 0.5, 0.0, "abandon", False, 1),
                ("grasp", True, 1.0, 0.0, "fail", True, 2)],
         seed=3)
def test_sampling_matches_the_brute_force_reference(kind, capacity, per_exponent,
                                                    filter_prob, steps, seed):
    """Pushes, finalizes (ones that move a surprise and ones that keep it),
    evictions (of finalized trials and, under a trial kind, of unfinalized
    ones) and draws: the buffer's eligible count and every sampled index
    match a reference that re-sorts the live eligible entries per draw."""
    drive_against(BruteForceReplay, kind, capacity, per_exponent, filter_prob, steps, seed)


def drive_against(reference, kind, capacity, per_exponent, filter_prob, steps, seed):
    """Play steps (see REPLAY_STEPS) into a buffer and into reference,
    asserting equal push indices, eligible counts and sampled indices."""
    c = cfg(kind)
    buf = ReplayBuffer(c, capacity=capacity, per_exponent=per_exponent,
                       type_filter_prob=filter_prob)
    ref = reference(capacity=capacity, trial_kind=c.uses_trial_reward,
                    per_exponent=per_exponent, filter_prob=filter_prob,
                    trial_discount=c.trial_discount)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    trial, step, abandoned = 0, 0, []
    for atype, success, instant, predicted, then, late, draws in steps:
        assert buf.push(Experience(state=step, action_id=0, action_type=atype,
                                   instant_reward=instant, trial_reward=None,
                                   predicted_q=predicted, success=success,
                                   trial_id=trial, step_index=step, next_state=step + 1,
                                   terminal=then in ("complete", "fail"))) == \
            ref.push(trial_id=trial, atype=atype, success=success, instant=instant,
                     predicted=predicted)
        if then == "continue":
            step += 1
        else:
            if then == "abandon":
                abandoned.append(trial)
            else:
                buf.finalize_trial(trial, then == "complete")
                ref.finalize(trial, then == "complete")
            trial, step = trial + 1, 0
        if late and abandoned:
            old = abandoned.pop(0)
            buf.finalize_trial(old, True)
            ref.finalize(old, True)
        assert buf.eligible == ref.eligible
        for _ in range(draws if buf.eligible else 0):
            assert buf.sample(rng_a, atype, success) == ref.sample(rng_b, atype, success)


# REPLAY_STEPS with rewards and predictions from three values, so equal
# surprises and zero surprises (-0.0 keys) are common, and more draws.
RANK_STEPS = st.lists(
    st.tuples(st.sampled_from(["grasp", "place"]), st.booleans(),
              st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from(["continue", "complete", "fail", "abandon"]),
              st.booleans(), st.integers(0, 4)),
    min_size=1, max_size=40)


@given(
    kind=st.sampled_from(["base", "progress", "trial_sr", "trial_progress"]),
    capacity=st.integers(1, 6),
    per_exponent=st.sampled_from([0.25, 2.0]),
    filter_prob=st.sampled_from([0.0, 0.5, 1.0]),
    steps=RANK_STEPS,
    seed=st.integers(0, 2**16),
)
# A late finalize ranks an old id (1) inside a run of -0.0 keys, between an
# older (0) and a newer (2) id.
@example(kind="trial_sr", capacity=8, per_exponent=0.25, filter_prob=0.5,
         steps=[("grasp", True, 0.0, 0.0, "complete", False, 0),
                ("grasp", True, 0.0, 0.0, "abandon", False, 0),
                ("grasp", False, 0.0, 0.0, "complete", True, 4)],
         seed=1)
# A finalize re-ranks an instant kind's old ids (the completed last step's
# surprise doubles): id 1 leaves a run of equal keys that id 0 heads.
@example(kind="base", capacity=8, per_exponent=0.25, filter_prob=0.0,
         steps=[("grasp", True, 0.5, 0.0, "continue", False, 1),
                ("place", True, 0.5, 0.0, "complete", False, 2),
                ("grasp", True, 1.0, 0.0, "fail", False, 4)],
         seed=2)
def test_rank_store_matches_plain_tuple_lists(kind, capacity, per_exponent, filter_prob,
                                              steps, seed):
    """The typed-array rank lists, with their newest-id insert and their
    equal-key run search, draw the same index stream and count the same
    eligible experiences as a plain sorted list of (-surprise, index)
    tuples, over pushes, finalizes, late finalizes and evictions with many
    equal and -0.0 keys."""
    drive_against(BruteForceReplay, kind, capacity, per_exponent, filter_prob, steps, seed)


def test_get_raises_key_error_outside_the_live_ids():
    """Negative, evicted and not-yet-pushed ids raise KeyError, before and
    after the evicted prefix is dropped; a negative id never wraps round to
    a live experience."""
    buf = ReplayBuffer(cfg(), capacity=2)
    for i in range(6):
        buf.push(exp(i, trial=i))  # evicts trial i - 2
        live = {i - 1, i} if i else {0}
        for j in range(-3, i + 3):
            if j in live:
                assert buf.get(j).state == ("s", j)
            else:
                with pytest.raises(KeyError):
                    buf.get(j)


@given(
    kind=st.sampled_from(["base", "trial_progress"]),
    capacity=st.integers(1, 8),
    steps=REPLAY_STEPS,
)
def test_trial_id_bounds_match_the_brute_force_reference(kind, capacity, steps):
    """Each live trial's id bounds, its finalized flag and the live entries
    equal the reference's per-trial index lists after every push, finalize
    (late ones included) and eviction."""
    c = cfg(kind)
    buf = ReplayBuffer(c, capacity=capacity)
    ref = BruteForceReplay(capacity=capacity, trial_kind=c.uses_trial_reward,
                           per_exponent=2.0, filter_prob=0.5, trial_discount=c.trial_discount)

    def check():
        trials, filled = {}, {}
        assert len(buf) == len(ref.entries)
        for i in range(ref.next_index + 1):
            if i in ref.entries:
                e, r = buf.get(i), ref.entries[i]
                assert (e.trial_id, e.action_type, e.success) == \
                    (r["trial_id"], r["atype"], r["success"])
                trials.setdefault(e.trial_id, []).append(i)
                filled.setdefault(e.trial_id, set()).add(e.trial_reward is not None)
            else:
                with pytest.raises(KeyError):
                    buf.get(i)  # evicted, or (the last) not yet pushed
        assert list(trials.items()) == list(ref.trials.items())
        # A trial is finalized exactly when all of its entries carry a trial reward.
        assert all(len(flags) == 1 for flags in filled.values())
        assert {t for t, flags in filled.items() if True in flags} == \
            ref.finalized & ref.trials.keys()

    trial, step, abandoned = 0, 0, []
    for atype, success, instant, predicted, then, late, _ in steps:
        buf.push(exp(step, atype=atype, success=success, instant=instant,
                     predicted=predicted, trial=trial, step=step))
        ref.push(trial_id=trial, atype=atype, success=success, instant=instant,
                 predicted=predicted)
        check()
        if then == "continue":
            step += 1
        else:
            if then == "abandon":
                abandoned.append(trial)
            else:
                buf.finalize_trial(trial, then == "complete")
                ref.finalize(trial, then == "complete")
            trial, step = trial + 1, 0
        if late and abandoned:
            old = abandoned.pop(0)
            buf.finalize_trial(old, True)
            ref.finalize(old, True)
        check()


# -- rewards seen by training ----------------------------------------------


def test_training_reward_selection():
    """Trial kinds train on the backfilled value once present; instant kinds
    always train on the instant reward."""
    e = exp(0, instant=0.5)
    assert training_reward(e, cfg("trial_progress")) == 0.5  # not yet filled
    e.trial_reward = 2.0
    assert training_reward(e, cfg("trial_progress")) == 2.0
    assert training_reward(e, cfg("progress")) == 0.5
    assert training_reward(e, cfg("base")) == 0.5


def test_surprise_uses_latest_reward():
    e = exp(0, instant=0.5, predicted=0.2)
    assert surprise(e) == abs(0.5 - 0.2)
    e.trial_reward = 2.0
    assert surprise(e) == 1.8


# -- updates ----------------------------------------------------------------


def test_apply_update_trains_both_targets():
    """One experience can move two action values: the executed action toward
    its bootstrap target, and a disallowed greedy action toward a
    zero-reward bootstrap. Both losses are read before either update."""
    c = cfg(learn_discount=0.65)
    q = TabularQ(2)
    q.update("s", 0, 1.0, 1.0)
    q.update("n", 0, 0.4, 1.0)
    e = Experience(state="s", action_id=1, action_type="grasp",
                   instant_reward=0.0, trial_reward=None, predicted_q=0.0,
                   success=False, trial_id=0, step_index=0, next_state="n",
                   terminal=False)
    mask_fn = lambda s: [False, True] if s == "s" else [True, True]
    loss = apply_update(e, q, mask_fn, c, 0.5, ForbiddenRandom())
    executed_target = 0.65 * 0.4            # reward 0 + discounted best next
    masked_target = 0.65 * 0.4              # discount * Q(next, masked action)
    assert q.value("s", 1) == 0.5 * executed_target
    assert q.value("s", 0) == 1.0 + 0.5 * (masked_target - 1.0)
    d = abs(1.0 - masked_target)
    assert loss == 0.5 * executed_target * executed_target + 0.5 * d * d


def shared_keys(state):
    """Actions 0 and 1 share one feature across every state, so updating one
    moves the other, at this state and at the next; action 2 has a feature
    of its own."""
    return [("pair",), ("pair",), ("a2", state)]


def loaded_q(kind, entries):
    """A Q-function loaded from ``entries`` ((state, action) -> value). The
    tabular kind holds exactly those entries. The linear kind writes each
    value to its pair's feature, so entries for actions 0 and 1 (at either
    state) overwrite each other and the last one written is kept."""
    if kind == "linear":
        q = LinearQ(KeyFeatures(3, shared_keys))
        q.load_records([(repr(shared_keys(state)[a]), -1, v)
                        for (state, a), v in entries.items()])
    else:
        q = TabularQ(3)
        q.load_records([(repr(state), a, v) for (state, a), v in entries.items()])
    return q


@given(
    kind=st.sampled_from(["tabular", "linear"]),
    entries=st.dictionaries(st.tuples(st.sampled_from(["s", "n"]), st.integers(0, 2)),
                            st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, 1.75]), max_size=6),
    action=st.integers(0, 2),
    reward=st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    terminal=st.booleans(),
    mask=st.none() | st.lists(st.booleans(), min_size=3, max_size=3),
    alpha=st.sampled_from([0.3, 0.5, 1.0]),
)
# The masked target fires on an action sharing a feature with the executed one.
@example(kind="linear", entries={("s", 1): 1.0, ("n", 2): 0.25}, action=0, reward=0.5,
         terminal=False, mask=[True, False, True], alpha=0.5)
# The masked target fires on a tabular row of -0.0 entries and unwritten actions.
@example(kind="tabular", entries={("s", 0): -0.0, ("s", 2): 0.25}, action=0,
         reward=-0.0, terminal=True, mask=[True, True, False], alpha=1.0)
def test_apply_update_matches_the_reference(kind, entries, action, reward, terminal,
                                            mask, alpha):
    """apply_update gives the plain read-both-then-update sequence's loss and
    leaves the same Q entries, float for float."""
    c = cfg(learn_discount=0.65)
    e = Experience(state="s", action_id=action, action_type="grasp",
                   instant_reward=reward, trial_reward=None, predicted_q=0.0,
                   success=False, trial_id=0, step_index=0, next_state="n",
                   terminal=terminal)
    mask_fn = None if mask is None else (lambda s: mask)
    fast, ref = loaded_q(kind, entries), loaded_q(kind, entries)
    loss = apply_update(e, fast, mask_fn, c, alpha, random.Random(5))
    expected = reference_apply_update(e, ref, mask_fn, c, alpha, random.Random(5))
    assert repr(loss) == repr(expected)
    assert repr(fast.records()) == repr(ref.records())


def test_train_step_anchors_filter_on_last_push():
    c = cfg()
    buf = ReplayBuffer(c)
    buf.push(exp(0, atype="place", success=False, instant=2.0, step=0, terminal=True))
    buf.push(exp(1, trial=1, atype="place", success=True, instant=0.5, step=0, terminal=True))
    q = TabularQ(1)
    # Coin passes; the anchor is ("place", True) so the filter selects the
    # ("place", False) group: entry 0, reward 2.0, terminal.
    loss = train_step(buf, q, None, c, 1.0, ScriptedRandom([0.0, 0.0]), ForbiddenRandom())
    assert q.value(("s", 0), 0) == 2.0
    assert loss == 2.0 - 0.5  # huber of |0 - 2|


# One pushed step: (state, next state), action, action type, success,
# instant reward, terminal flag.
TRAIN_STEPS = st.lists(
    st.tuples(st.sampled_from([("s", "n"), ("n", "s"), ("s", "s")]), st.integers(0, 2),
              st.sampled_from(["grasp", "place"]), st.booleans(),
              st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.booleans()),
    min_size=1, max_size=4)


@given(
    kind=st.sampled_from(["tabular", "linear"]),
    entries=st.dictionaries(st.tuples(st.sampled_from(["s", "n"]), st.integers(0, 2)),
                            st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, 1.75]), max_size=6),
    reward_kind=st.sampled_from(["base", "progress", "trial_sr", "trial_progress"]),
    finished=TRAIN_STEPS,
    open_trial=TRAIN_STEPS | st.just([]),
    completed=st.booleans(),
    seed=st.integers(0, 2**16),
    alpha=st.sampled_from([0.3, 0.5, 1.0]),
)
def test_mask_free_train_step_matches_the_reference(kind, entries, reward_kind, finished,
                                                    open_trial, completed, seed, alpha):
    """Without a mask, train_step's inline target and single update give the
    plain reference's loss and Q entries, float for float, and draw no tie.
    The buffer holds one finalized trial and, possibly, one still open, so
    instant kinds replay steps of both and trial kinds only the finalized."""
    c = cfg(reward_kind, learn_discount=0.65)
    buf = ReplayBuffer(c)
    for trial, steps in enumerate((finished, open_trial)):
        for i, ((state, next_state), action, atype, success, instant, terminal) in \
                enumerate(steps):
            buf.push(Experience(state=state, action_id=action, action_type=atype,
                                instant_reward=instant, trial_reward=None, predicted_q=0.0,
                                success=success, trial_id=trial, step_index=i,
                                next_state=next_state, terminal=terminal))
        if trial == 0:
            buf.finalize_trial(0, completed)
    last = buf.last_pushed
    e = buf.get(buf.sample(random.Random(seed), last.action_type, last.success))
    fast, ref = loaded_q(kind, entries), loaded_q(kind, entries)
    loss = train_step(buf, fast, None, c, alpha, random.Random(seed), ForbiddenRandom())
    expected = reference_apply_update(e, ref, None, c, alpha, ForbiddenRandom())
    assert repr(loss) == repr(expected)
    assert repr(fast.records()) == repr(ref.records())


def test_finalized_instant_kind_ranks_by_trial_reward_trains_on_instant():
    """After finalization an instant-kind sample is ranked by its backfilled
    trial reward but trains on its instant reward."""
    c = cfg("progress", trial_discount=0.65)
    buf = ReplayBuffer(c)
    # By instant reward, b is the most surprising (|1 - 2| against |0.5 - 0.5|).
    a = Experience(state="a", action_id=0, action_type="grasp", instant_reward=0.5,
                   trial_reward=None, predicted_q=0.5, success=True, trial_id=0,
                   step_index=0, next_state="a'", terminal=True)
    b = Experience(state="b", action_id=0, action_type="place", instant_reward=1.0,
                   trial_reward=None, predicted_q=2.0, success=True, trial_id=0,
                   step_index=1, next_state="b'", terminal=True)
    buf.push(a)
    buf.push(b)
    q = TabularQ(1)
    train_step(buf, q, None, c, 1.0, ScriptedRandom([0.99, 0.0]), ForbiddenRandom())
    assert q.records() == [("'b'", 0, 1.0)]
    # The completed trial backfills b to 2.0 (surprise 0) and a to
    # 0.5 + 0.65 * 2.0 (surprise 1.3), so a now ranks first; the coin of
    # 0.99 skips the type filter and the draw of 0 picks rank 0.
    buf.finalize_trial(0, True)
    assert (a.trial_reward, b.trial_reward) == (0.5 + 0.65 * 2.0, 2.0)
    q = TabularQ(1)
    loss = train_step(buf, q, None, c, 1.0, ScriptedRandom([0.99, 0.0]), ForbiddenRandom())
    assert q.records() == [("'a'", 0, 0.5)]  # the instant reward, not 1.8
    assert loss == 0.5 * 0.5 * 0.5


def test_train_step_requires_a_push():
    buf = ReplayBuffer(cfg())
    with pytest.raises(EmptyBufferError):
        train_step(buf, TabularQ(1), None, cfg(), 0.5,
                   random.Random(0), random.Random(1))


# -- equivalence with the re-derived mirror ---------------------------------


def test_sampling_matches_mirror_reimplementation():
    """Several hundred interleaved pushes, finalizations and samples produce
    the exact same index sequence as the independently written mirror."""
    c = cfg("base")
    buf = ReplayBuffer(c, per_exponent=0.8, type_filter_prob=0.7)
    mirror = MirrorReplay(per_exponent=0.8, filter_prob=0.7, trial_discount=0.65)
    drive = random.Random(5)
    rng_a, rng_b = random.Random(11), random.Random(11)
    trial, step = 0, 0
    got_a, got_b = [], []
    for i in range(400):
        atype = drive.choice(["grasp", "place", "push"])
        success = drive.random() < 0.5
        instant = drive.choice([0.0, 0.25, 0.5, 1.0])
        predicted = drive.choice([0.0, 0.1, 0.4])
        terminal = drive.random() < 0.15
        buf.push(Experience(state=i, action_id=0, action_type=atype,
                            instant_reward=instant, trial_reward=None,
                            predicted_q=predicted, success=success,
                            trial_id=trial, step_index=step,
                            next_state=i + 1, terminal=terminal))
        mirror.push(state=i, action=0, atype=atype, instant=instant,
                    predicted=predicted, success=success, trial_id=trial,
                    step=step, next_state=i + 1, terminal=terminal)
        if terminal:
            completed = drive.random() < 0.5
            buf.finalize_trial(trial, completed)
            mirror.finalize(trial, completed)
            trial, step = trial + 1, 0
        else:
            step += 1
        for _ in range(2):
            got_a.append(buf.sample(rng_a, buf.last_pushed.action_type,
                                    buf.last_pushed.success))
            got_b.append(mirror.sample(rng_b))
    assert got_a == got_b
