"""Trial-aware experience store with surprise-ranked prioritized sampling.

Sampling follows the extended replay scheme: candidates are kept sorted by
surprise ``|reward - predicted_q|`` (descending; the reward is the trial
reward once the trial is finalized, the instant reward before that), a coin
with probability ``type_filter_prob`` restricts candidates to experiences
whose action type matches the most recent one but whose success flag
differs (falling back to the full list when that set is empty), and the
rank within the candidate list is drawn from a power law
``P(rank r) proportional to (r+1)**(-per_exponent)``. Priorities are never
adjusted after sampling; the ordering only changes when a trial's rewards
are re-recorded by :meth:`ReplayBuffer.finalize_trial`.

Trial-level reward kinds (``trial_sr``, ``trial_progress``,
``discounted``) train on backfilled trial rewards, so their experiences
only become sample-eligible once their trial is finalized; the instant
kinds are eligible as soon as they are pushed.

Ranking and training can use different rewards: once its trial is
finalized, an instant-kind sample is ranked by its backfilled trial reward
but still trains on its instant reward. The rule stays because acceptance
criterion 7 pins the whole pipeline to an independently written corridor
learner that re-keys surprises at finalization; ranking instant kinds by
the reward they train on would change which samples replay and break that
equivalence.

The buffer is append-only up to capacity; eviction removes whole trials,
oldest first, so backfilled rewards stay coherent.

Each rank list (one for all eligible experiences, one per (action type,
success) group) is two parallel typed arrays sorted by ``(-surprise, id)``:
``array("d")`` keys and ``array("q")`` ids, so a ranked experience costs 16
bytes there and no Python objects. An insert or a remove is a bisect plus a
C-level shift of both arrays. An insert whose id is above every ranked id
(every push; a trial kind's in-order finalize) is one ``bisect_right`` on the
keys. Any other insert, and a remove, bisects the ids inside the run of equal
keys (many surprises are 0, so runs are long). ``sample`` reads its drawn id
with an O(1) array index. At finalize, an instant-kind entry is re-ranked
only when its surprise changes: an equal surprise is the identical key, so
its rank is unchanged.

Experiences live in a list indexed by ``id - base``. Eviction removes the
oldest ids, so evicted slots (set to None) are always a prefix; that prefix
is dropped once it is more than half the list, keeping eviction amortized
O(1).
"""
from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Hashable, Optional

from . import rewards, spotq
from .qfunction import QFunction
from .rewards import RewardConfig
from .spotq import MaskFn, huber_loss


class EmptyBufferError(RuntimeError):
    """sample() on a buffer with no eligible experiences."""


class TrialOrderError(ValueError):
    """Push that violates trial/step ordering, or a push to a finalized trial."""


@dataclass(slots=True)
class Experience:
    """One stored transition. Slotted: the buffer holds one per action."""

    state: Hashable
    action_id: int
    action_type: str
    instant_reward: float
    trial_reward: Optional[float]
    predicted_q: float
    success: bool
    trial_id: int
    step_index: int
    next_state: Hashable
    terminal: bool


def training_reward(e: Experience, cfg: RewardConfig) -> float:
    """The reward a replayed update trains on under cfg.reward_kind."""
    if cfg.uses_trial_reward and e.trial_reward is not None:
        return e.trial_reward
    return e.instant_reward


def surprise(e: Experience) -> float:
    """|reward - prediction|, using the trial reward once backfilled."""
    reward = e.trial_reward if e.trial_reward is not None else e.instant_reward
    return abs(reward - e.predicted_q)


@dataclass(slots=True)
class _Trial:
    """A trial's buffer ids, ``range(start, stop)``: pushes to a trial are
    consecutive, because no push goes below the newest trial."""

    start: int
    stop: int
    finalized: bool = False


class ReplayBuffer:
    def __init__(
        self,
        cfg: RewardConfig,
        capacity: int = 100_000,
        per_exponent: float = 2.0,
        type_filter_prob: float = 0.95,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.cfg = cfg
        self.capacity = capacity
        self.per_exponent = per_exponent
        self.type_filter_prob = type_filter_prob

        # Experience of id i at _entries[i - _base]; the first _dead slots
        # are evicted (None). The next push's id is _base + len(_entries).
        self._entries: list[Optional[Experience]] = []
        self._base = 0
        self._dead = 0
        # First key the oldest live trial, last the newest: ids arrive in
        # increasing order, eviction pops the oldest and spares the newest.
        self._trials: dict[int, _Trial] = {}
        self.last_pushed: Optional[Experience] = None

        # Rank lists: keys (-surprise) and ids in parallel, sorted by
        # (key, id), so rank order is surprise-descending with insertion id
        # as the deterministic tiebreak.
        self._all_keys = array("d")
        self._all_ids = array("q")
        self._group_keys: dict[tuple[str, bool], array] = {}
        self._group_ids: dict[tuple[str, bool], array] = {}
        self._top = -1  # highest id ever ranked
        # Prefix sums of (rank+1)**(-per_exponent), grown on demand.
        self._cum = array("d")

    def __len__(self) -> int:
        return len(self._entries) - self._dead

    @property
    def eligible(self) -> int:
        """Number of experiences currently visible to sample()."""
        return len(self._all_ids)

    def get(self, index: int) -> Experience:
        """The live experience with buffer id index; KeyError for an id
        that is negative, evicted or not yet pushed."""
        i = index - self._base
        e = self._entries[i] if 0 <= i < len(self._entries) else None
        if e is None:
            raise KeyError(index)
        return e

    # -- writing ----------------------------------------------------------

    def push(self, e: Experience) -> int:
        """Append an experience; returns its buffer index."""
        trials = self._trials
        if trials:
            newest = next(reversed(trials))
            if e.trial_id < newest:
                raise TrialOrderError(f"trial_id {e.trial_id} precedes current trial {newest}")
        idx = self._base + len(self._entries)
        trial = trials.get(e.trial_id)
        if trial is None:
            trials[e.trial_id] = _Trial(idx, idx + 1)
        else:
            if trial.finalized:
                raise TrialOrderError(f"trial {e.trial_id} is already finalized")
            last = self._entries[trial.stop - 1 - self._base]
            if e.step_index <= last.step_index:
                raise TrialOrderError(f"step_index {e.step_index} does not advance "
                                      f"within trial {e.trial_id}")
            trial.stop = idx + 1

        self._entries.append(e)
        self.last_pushed = e
        if not self.cfg.uses_trial_reward:
            self._rank_insert(idx)
        self._evict_over_capacity(keep_trial=e.trial_id)
        return idx

    def finalize_trial(self, trial_id: int, completed: bool) -> None:
        """Backfill the trial-level reward for every step of a pushed trial.

        Idempotent for an already-finalized trial; a no-op for a trial the
        buffer has already evicted; unknown trial ids raise KeyError.
        """
        trial = self._trials.get(trial_id)
        if trial is None:
            if self._trials and trial_id < next(iter(self._trials)):
                return  # already evicted
            raise KeyError(f"unknown trial id {trial_id}")
        if trial.finalized:
            return
        base = self._base
        trial_entries = self._entries[trial.start - base:trial.stop - base]
        filled = rewards.backfill([e.instant_reward for e in trial_entries],
                                  completed, self.cfg)
        trial_kind = self.cfg.uses_trial_reward
        for idx, e, value in zip(range(trial.start, trial.stop), trial_entries, filled):
            before = surprise(e)
            e.trial_reward = value
            if trial_kind:
                self._rank_insert(idx)  # first ranked now
            elif surprise(e) != before:
                self._rank_remove(idx, before)
                self._rank_insert(idx)
        trial.finalized = True

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: random.Random, last_action_type: str, last_success: bool) -> int:
        """Draw one buffer index by surprise-ranked power-law sampling.

        Always consumes exactly two rng draws (filter coin, rank draw) so
        interleaved runs stay reproducible regardless of buffer contents.
        The rank is the first prefix sum of the rank weights above a uniform
        draw scaled to the candidates' total weight.
        """
        ids = self._all_ids
        if not ids:
            raise EmptyBufferError("no sample-eligible experiences in buffer")
        if rng.random() < self.type_filter_prob:
            group = self._group_ids.get((last_action_type, not last_success))
            if group:
                ids = group
        n = len(ids)
        cum = self._cum
        if len(cum) < n:
            self._grow_cum(n)
        return ids[bisect_right(cum, rng.random() * cum[n - 1], 0, n - 1)]

    def _grow_cum(self, n: int) -> None:
        cum = self._cum
        while len(cum) < n:
            prev = cum[-1] if cum else 0.0
            cum.append(prev + (len(cum) + 1) ** (-self.per_exponent))

    def rank_probabilities(self, n: int) -> list[float]:
        """The exact mass function sample() draws ranks from for a list of size n."""
        weights = [(r + 1) ** (-self.per_exponent) for r in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    # -- internals --------------------------------------------------------

    def _rank_lists(self, e: Experience) -> tuple[tuple[array, array], tuple[array, array]]:
        """The (keys, ids) arrays of the all-list and of e's group."""
        group = (e.action_type, e.success)
        ids = self._group_ids.get(group)
        if ids is None:
            ids = self._group_ids[group] = array("q")
            self._group_keys[group] = array("d")
        return (self._all_keys, self._all_ids), (self._group_keys[group], ids)

    def _rank_insert(self, idx: int) -> None:
        e = self._entries[idx - self._base]
        key = -surprise(e)
        newest = idx > self._top
        if newest:
            self._top = idx
        for keys, ids in self._rank_lists(e):
            pos = bisect_right(keys, key) if newest else _seek(keys, ids, key, idx)[0]
            keys.insert(pos, key)
            ids.insert(pos, idx)

    def _rank_remove(self, idx: int, ranked_surprise: Optional[float] = None) -> None:
        """Remove idx's key, ranked under ranked_surprise (default: its
        current surprise); raises RuntimeError if that key is not ranked."""
        e = self._entries[idx - self._base]
        if ranked_surprise is None:
            ranked_surprise = surprise(e)
        for keys, ids in self._rank_lists(e):
            pos, found = _seek(keys, ids, -ranked_surprise, idx)
            if not found:
                raise RuntimeError(f"replay entry {idx} is not in the rank store")
            del keys[pos]
            del ids[pos]

    def _evict_over_capacity(self, keep_trial: int) -> None:
        entries = self._entries
        while len(entries) - self._dead > self.capacity:
            oldest_id = next(iter(self._trials))
            if oldest_id == keep_trial:
                break  # never evict the trial currently being written
            trial = self._trials.pop(oldest_id)
            ranked = trial.finalized or not self.cfg.uses_trial_reward
            for idx in range(trial.start, trial.stop):
                if ranked:
                    self._rank_remove(idx)
                entries[idx - self._base] = None
            self._dead = trial.stop - self._base
        if 2 * self._dead > len(entries):
            del entries[:self._dead]
            self._base += self._dead
            self._dead = 0


def _seek(keys: array, ids: array, key: float, idx: int) -> tuple[int, bool]:
    """Where (key, idx) sits, or would go, in a rank list sorted by
    (key, id), and whether it is there: a bisect of the ids inside the run
    of keys equal to key."""
    lo = bisect_left(keys, key)
    hi = bisect_right(keys, key, lo)
    pos = bisect_left(ids, idx, lo, hi)
    return pos, pos < hi and ids[pos] == idx


def apply_update(
    e: Experience,
    q: QFunction,
    mask_fn: Optional[MaskFn],
    cfg: RewardConfig,
    alpha: float,
    tie_rng: random.Random,
) -> float:
    """Train Q on one experience, on its ``training_reward``: executed
    target plus, when the mask disallows the unrestricted greedy action, the
    extra zero-reward target.

    Both predictions are read before either update is applied, so the
    reported loss and the pair of targets come from one consistent view of
    Q: the masked entry is read first, then the executed update returns the
    executed entry's prior value. Returns the summed huber loss.
    """
    state = e.state
    t = spotq.targets(
        state=state,
        action_id=e.action_id,
        reward=training_reward(e, cfg),
        next_state=e.next_state,
        terminal=e.terminal,
        q=q,
        mask_fn=mask_fn,
        learn_discount=cfg.learn_discount,
        tie_rng=tie_rng,
    )
    executed = t.executed_target
    masked_action = t.masked_action
    if masked_action is not None:
        masked_prediction = q.value(state, masked_action)
    loss = huber_loss(q.update(state, e.action_id, executed, alpha), executed)
    if masked_action is not None:
        loss += huber_loss(masked_prediction, t.masked_target)
        q.update(state, masked_action, t.masked_target, alpha)
    return loss


def train_step(
    buf: ReplayBuffer,
    q: QFunction,
    mask_fn: Optional[MaskFn],
    cfg: RewardConfig,
    alpha: float,
    rng: random.Random,
    tie_rng: random.Random,
) -> float:
    """Sample one experience (filter anchored on the most recent push) and
    train on it; returns the summed huber loss."""
    last = buf.last_pushed
    if last is None:
        raise EmptyBufferError("buffer has never been pushed to")
    e = buf._entries[buf.sample(rng, last.action_type, last.success) - buf._base]
    if mask_fn is not None:
        return apply_update(e, q, mask_fn, cfg, alpha, tie_rng)
    # No mask, no extra target: apply_update's executed target and update
    # inline, the same arithmetic without building SpotQTargets. Sending
    # this case through apply_update made the grid-replay benchmark run
    # (run_single wall) 1.20x slower in the median and 1.09x at best over 12
    # alternating runs on 2 CPUs, with identical artifacts.
    target = training_reward(e, cfg)
    if not e.terminal:
        target += cfg.learn_discount * q.best_value(e.next_state)
    return huber_loss(q.update(e.state, e.action_id, target, alpha), target)
