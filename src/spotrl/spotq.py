"""Dynamic action-space masking and the masked Q-learning target.

The mask is a boolean vector marking, per state, which discrete actions the
environment allows; each environment lists the certain failures it rules
out. A policy built from :func:`masked_argmax` only ever executes allowed
actions. During learning, :func:`targets` produces the one-step
bootstrapped target for the executed action and, whenever the
*unrestricted* greedy action at the stored state is disallowed by the mask,
one extra zero-reward target for that disallowed action — teaching the
Q-function that masked actions are worthless without ever executing them.
Exactly one extra sample per transition; summing over every masked entry is
known to destabilize training.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .qfunction import QFunction, draw_tie

# A mask is a sequence of booleans indexed by action id, only ever read (an
# env may share one row); where a mask is optional, None allows every action.
ActionMask = Sequence[bool]
MaskFn = Callable[[Hashable], ActionMask]


class EmptyActionSpaceError(RuntimeError):
    """Every action is masked in a state that still requires one."""


class DisallowedActionError(RuntimeError):
    """A masked policy picked an action its mask disallows."""


@dataclass(slots=True, unsafe_hash=True)
class SpotQTargets:
    """Targets for one replayed transition.

    ``masked_target``/``masked_action`` are present iff the unrestricted
    greedy action at the stored state was disallowed by the mask. Slotted,
    because one is built per replayed update; equal by value.
    """

    executed_target: float
    masked_target: Optional[float] = None
    masked_action: Optional[int] = None


def masked_ties(q: QFunction, state: Hashable, mask: ActionMask) -> tuple[int, ...]:
    """Every allowed action holding the best allowed value, ascending;
    draw-free.

    When the mask allows one of ``q.ties``, the best allowed value is the
    state's best, so the allowed maximizers are the answer and the row is
    scanned only when it allows none of them.
    """
    if True not in mask:
        raise EmptyActionSpaceError("empty dynamic action space")
    allowed = tuple([a for a in q.ties(state) if mask[a]])
    if allowed:
        return allowed
    values = q.row(state)
    actions = [a for a, ok in enumerate(mask) if ok]
    best = max(values[a] for a in actions)
    return tuple(a for a in actions if values[a] == best)


def masked_argmax(q: QFunction, state: Hashable, mask: Optional[ActionMask],
                  tie_rng: random.Random) -> int:
    """Highest-valued allowed action; exact ties broken uniformly.

    The tie draw consumes randomness only when there really is a tie, so
    deterministic replays are unaffected by states with a unique maximizer.
    ``mask=None`` means unrestricted: a draw among ``q.ties``, the same
    action and draw as an all-true mask.
    """
    return draw_tie(q.ties(state) if mask is None else masked_ties(q, state, mask), tie_rng)


def targets(
    *,
    state: Hashable,
    action_id: int,
    reward: float,
    next_state: Hashable,
    terminal: bool,
    q: QFunction,
    mask_fn: Optional[MaskFn],
    learn_discount: float,
    tie_rng: random.Random,
) -> SpotQTargets:
    """SPOT-Q targets for one transition.

    The executed target is the usual one-step bootstrap,
    ``reward + learn_discount * max_a Q(next_state, a)``, with the bootstrap
    dropped on terminal transitions (the trial ends there; bootstrapping
    past it would make the target unbounded over an episode).

    ``action_id`` is not read: the executed target does not depend on which
    action was executed. It is kept for callers that pass a whole transition
    (``tests/oracles.py`` among them).

    When ``mask_fn`` is given, the unrestricted greedy action at ``state``
    is recomputed against the *current* Q-function; if the mask disallows
    it, a zero-reward target ``learn_discount * Q(next_state, that action)``
    is emitted for that action. When ``mask_fn`` is None (mask disabled, or
    the extra-sample mechanism switched off) only the executed target is
    produced and the computation degenerates to plain Q-learning.
    """
    if terminal:
        executed = reward
    else:
        executed = reward + learn_discount * q.best_value(next_state)

    if mask_fn is None:
        return SpotQTargets(executed)

    mask = mask_fn(state)
    if all(mask):
        # Nothing can be disallowed; skip the greedy recomputation entirely
        # so fully-permissive masks leave no trace (not even tie draws).
        return SpotQTargets(executed)

    greedy = masked_argmax(q, state, None, tie_rng)
    if mask[greedy]:
        return SpotQTargets(executed)
    masked_target = learn_discount * q.value(next_state, greedy)
    return SpotQTargets(executed, masked_target, greedy)


def huber_loss(prediction: float, target: float) -> float:
    """Smooth-L1 with threshold 1: quadratic inside, linear outside."""
    d = abs(prediction - target)
    if d <= 1.0:
        return 0.5 * d * d
    return d - 0.5
