"""Masked Q-learning targets: greedy selection, extra masked targets, loss."""

import random

import pytest
from hypothesis import given, strategies as st

from spotrl.qfunction import TabularQ
from spotrl.spotq import (
    EmptyActionSpaceError,
    SpotQTargets,
    huber_loss,
    masked_argmax,
    targets,
)

from oracles import ForbiddenRandom


def table(n_actions, values):
    """TabularQ with the given {(state, action): value} entries."""
    q = TabularQ(n_actions)
    for (state, action), v in values.items():
        q.update(state, action, v, 1.0)
    return q


# -- huber loss -------------------------------------------------------------


def test_huber_examples():
    """Quadratic inside the unit band, linear outside, continuous at 1."""
    assert huber_loss(0.0, 0.6) == 0.18
    assert huber_loss(0.0, 3.0) == 2.5
    assert huber_loss(2.0, 2.0) == 0.0
    assert huber_loss(1.0, 2.0) == 0.5
    assert huber_loss(0.0, -0.6) == 0.18
    assert abs(huber_loss(0.0, 1.0 + 1e-9) - 0.5) < 1e-8


@given(
    a=st.floats(min_value=-100, max_value=100),
    b=st.floats(min_value=-100, max_value=100),
)
def test_huber_piecewise(a, b):
    """The loss is symmetric, non-negative and matches its two branches."""
    loss = huber_loss(a, b)
    assert loss == huber_loss(b, a)
    assert loss >= 0.0
    d = abs(a - b)
    assert loss == (0.5 * d * d if d <= 1.0 else d - 0.5)


# -- masked argmax ----------------------------------------------------------


def test_masked_argmax_unique_max_consumes_no_randomness():
    q = table(3, {("s", 0): 0.1, ("s", 1): 0.7, ("s", 2): 0.3})
    assert masked_argmax(q, "s", [True, True, True], ForbiddenRandom()) == 1
    assert masked_argmax(q, "s", None, ForbiddenRandom()) == 1  # None: unrestricted


def test_masked_argmax_skips_disallowed():
    """The best allowed action wins even when a masked one scores higher."""
    q = table(3, {("s", 0): 0.1, ("s", 1): 0.7, ("s", 2): 0.3})
    assert masked_argmax(q, "s", [True, False, True], ForbiddenRandom()) == 2


def test_masked_argmax_breaks_ties_uniformly():
    q = table(3, {("s", 0): 0.5, ("s", 2): 0.5})
    rng = random.Random(1)
    picks = {masked_argmax(q, "s", [True, False, True], rng) for _ in range(200)}
    assert picks == {0, 2}


def test_masked_argmax_empty_space():
    q = table(2, {})
    with pytest.raises(EmptyActionSpaceError):
        masked_argmax(q, "s", [False, False], random.Random(0))
    with pytest.raises(EmptyActionSpaceError):
        masked_argmax(q, "s", [], random.Random(0))


@given(
    values=st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
    mask_bits=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_masked_argmax_returns_best_allowed(values, mask_bits):
    """The pick is always allowed and always attains the allowed maximum."""
    n = min(len(values), len(mask_bits))
    values, mask = values[:n], mask_bits[:n]
    if not any(mask):
        return
    q = table(n, {("s", a): v / 8 for a, v in enumerate(values)})
    pick = masked_argmax(q, "s", mask, random.Random(0))
    assert mask[pick]
    assert q.value("s", pick) == max(q.value("s", a) for a, ok in enumerate(mask) if ok)


# -- targets ----------------------------------------------------------------


def test_targets_terminal_drops_bootstrap():
    q = table(2, {("next", 0): 5.0, ("next", 1): 9.0})
    t = targets(
        state="s", action_id=0, reward=0.75, next_state="next", terminal=True,
        q=q, mask_fn=None, learn_discount=0.65, tie_rng=ForbiddenRandom(),
    )
    assert t == SpotQTargets(0.75)


def test_targets_bootstrap_uses_best_next_value():
    q = table(2, {("next", 0): 0.2, ("next", 1): 0.4})
    t = targets(
        state="s", action_id=0, reward=1.0, next_state="next", terminal=False,
        q=q, mask_fn=None, learn_discount=0.65, tie_rng=ForbiddenRandom(),
    )
    assert t.executed_target == 1.0 + 0.65 * 0.4
    assert t.masked_target is None and t.masked_action is None


def test_targets_all_true_mask_is_invisible():
    """A fully-permissive mask produces exactly the unmasked result and
    consumes no randomness, even when every action value ties."""
    q = table(3, {})
    t = targets(
        state="s", action_id=1, reward=0.5, next_state="next", terminal=False,
        q=q, mask_fn=lambda s: [True, True, True], learn_discount=0.65,
        tie_rng=ForbiddenRandom(),
    )
    assert t == SpotQTargets(0.5)


def test_targets_emit_masked_target_for_disallowed_greedy():
    """When the unrestricted greedy action is disallowed, a second
    zero-reward bootstrap target is emitted for that action."""
    q = table(2, {("s", 0): 1.0, ("s", 1): 0.5, ("next", 0): 0.4, ("next", 1): 0.1})
    t = targets(
        state="s", action_id=1, reward=0.0, next_state="next", terminal=False,
        q=q, mask_fn=lambda s: [False, True], learn_discount=0.65,
        tie_rng=ForbiddenRandom(),
    )
    assert t.masked_action == 0
    assert t.masked_target == 0.26  # 0.65 * Q(next, 0)
    assert t.executed_target == 0.0 + 0.65 * 0.4


def test_targets_no_masked_target_when_greedy_allowed():
    q = table(2, {("s", 0): 0.2, ("s", 1): 0.9, ("next", 1): 1.0})
    t = targets(
        state="s", action_id=0, reward=0.0, next_state="next", terminal=False,
        q=q, mask_fn=lambda s: [False, True], learn_discount=0.65,
        tie_rng=ForbiddenRandom(),
    )
    assert t.masked_target is None and t.masked_action is None


@given(
    values=st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=5),
    mask_bits=st.lists(st.booleans(), min_size=2, max_size=5),
    reward=st.sampled_from([0.0, 0.5, 1.0]),
    terminal=st.booleans(),
)
def test_targets_never_name_an_allowed_action(values, mask_bits, reward, terminal):
    """Any emitted masked target names a disallowed action and bootstraps
    that action's value at the next state."""
    n = min(len(values), len(mask_bits))
    values, mask = values[:n], mask_bits[:n]
    q = table(n, {("s", a): v / 4 for a, v in enumerate(values)})
    t = targets(
        state="s", action_id=0, reward=reward, next_state="n2", terminal=terminal,
        q=q, mask_fn=lambda s: mask, learn_discount=0.65, tie_rng=random.Random(3),
    )
    if terminal:
        assert t.executed_target == reward
    if t.masked_action is not None:
        assert mask[t.masked_action] is False
        assert t.masked_target == 0.65 * q.value("n2", t.masked_action)


def test_spotq_targets_fields_appear_together():
    """Targets compare by value, expose each field (a tracer reads
    masked_action off every result), and pair the masked fields."""
    fired = SpotQTargets(1.0, 0.5, 2)
    assert fired == SpotQTargets(1.0, masked_target=0.5, masked_action=2)
    assert hash(fired) == hash(SpotQTargets(1.0, 0.5, 2))
    assert fired != SpotQTargets(1.0, 0.5, 1)
    assert fired != SpotQTargets(1.0)
    assert fired != (1.0, 0.5, 2)
    assert SpotQTargets(0.75) == SpotQTargets(0.75)
    assert SpotQTargets(0.75) != SpotQTargets(0.5)
    assert (fired.executed_target, fired.masked_target, fired.masked_action) == (1.0, 0.5, 2)
    assert SpotQTargets(0.75).masked_action is None
    assert SpotQTargets(0.75).masked_target is None
    with pytest.raises(ValueError):
        SpotQTargets(1.0, masked_target=0.5)
    with pytest.raises(ValueError):
        SpotQTargets(1.0, masked_action=2)
