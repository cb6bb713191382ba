"""The environments, and the protocol the agent loop uses them through."""
from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from ..rewards import StepOutcome
from .blockworld import BlockWorld
from .gridworld import GridWorld

__all__ = ["BlockWorld", "Env", "GridWorld"]


@runtime_checkable
class Env(Protocol):
    """What ``trainer`` and ``harness`` use of an environment.

    ``reset(seed)`` starts a trial: a generated env draws its start from
    ``seed``, while one built by ``from_text`` restores its parsed start and
    only reseeds its own dynamics. ``step`` returns (next state, outcome,
    event), where the event names an early end such as ``"lava"`` or is None.
    ``mask_for`` is False for each action the env rules out; every ruled-out
    action would certainly fail, but not every certain failure need be ruled
    out, and each env's docstring lists what its mask rules out. A mask
    depends on the state alone (greedy probes keep one pick per state) and
    is an immutable row that may be shared. Both environments return one
    object for all equal states, so a long replay holds each distinct state
    once; correctness never rests on it.
    """

    n_actions: int
    terminal: bool

    def reset(self, seed: Optional[int] = None) -> object: ...
    def step(self, action: int) -> tuple[object, StepOutcome, Optional[str]]: ...
    def mask_for(self, state: object) -> Sequence[bool]: ...
    def ideal_actions(self) -> int: ...
    def situation_removal_check(self, progress_before: float, progress_after: float) -> bool: ...
    def instant_reward_override(self, outcome: StepOutcome, reward_kind: str) -> Optional[float]: ...
