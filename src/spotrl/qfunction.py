"""Q-value storage behind a single small interface.

Two implementations share the interface:

- :class:`TabularQ` — exact table over hashable states, the default for the
  grid world's pose states and for tiny test MDPs.
- :class:`LinearQ` — linear value over indicator features produced by an
  injected per-state featurizer, for the block world where the exact
  occupancy space is too sparse to visit.

Reads come in two shapes: ``value(state, a)`` is one entry, and
``row(state)`` is the list of every action's value at ``state``, each entry
bit-for-bit equal to ``value(state, a)``. Anything that scans the action set
(greedy picks, ``best_value``, the SPOT-Q recomputation) reads one row, so a
state is looked up or featurized once per scan rather than once per action.

Updates blend toward a supplied target: ``Q <- Q + lr * (target - Q)``.
Snapshots are read-only copies, safe to hand to concurrent readers.
"""
from __future__ import annotations

import ast
from typing import Callable, Hashable, Iterable, Optional, Sequence


class FrozenQError(RuntimeError):
    """Raised when update() is called on a snapshot."""


class QFunction:
    """Interface: value / row / update / snapshot plus text serialization."""

    n_actions: int

    def value(self, state: Hashable, action_id: int) -> float:
        raise NotImplementedError

    def row(self, state: Hashable) -> list[float]:
        """[Q(state, a) for every action a], equal to value() entry by entry."""
        raise NotImplementedError

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> None:
        raise NotImplementedError

    def snapshot(self) -> "QFunction":
        raise NotImplementedError

    def best_value(self, state: Hashable) -> float:
        """max_a Q(state, a) over the full action set."""
        return max(self.row(state))

    def records(self) -> list[tuple[str, int, float]]:
        """Sorted (key, action, value) text records for diff-able dumps."""
        raise NotImplementedError


class TabularQ(QFunction):
    """Exact Q-table over hashable state keys; unseen entries read 0."""

    kind = "tabular"

    def __init__(self, n_actions: int, initial: float = 0.0, _frozen: bool = False):
        self.n_actions = n_actions
        self.initial = initial
        self._table: dict[tuple[Hashable, int], float] = {}
        self._frozen = _frozen

    def value(self, state: Hashable, action_id: int) -> float:
        return self._table.get((state, action_id), self.initial)

    def row(self, state: Hashable) -> list[float]:
        get = self._table.get
        initial = self.initial
        return [get((state, a), initial) for a in range(self.n_actions)]

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> None:
        if self._frozen:
            raise FrozenQError("snapshot Q-functions are read-only")
        key = (state, action_id)
        old = self._table.get(key, self.initial)
        self._table[key] = old + lr * (target - old)

    def snapshot(self) -> "TabularQ":
        copy = TabularQ(self.n_actions, self.initial, _frozen=True)
        copy._table = dict(self._table)
        return copy

    def __len__(self) -> int:
        return len(self._table)

    def records(self) -> list[tuple[str, int, float]]:
        rows = [(repr(state), action, value) for (state, action), value in self._table.items()]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def load_records(self, rows: Iterable[tuple[str, int, float]]) -> None:
        for key, action, value in rows:
            self._table[(ast.literal_eval(key), int(action))] = value


# state -> one tuple of hashable feature keys per action id.
Featurizer = Callable[[Hashable], Sequence[tuple[Hashable, ...]]]


class LinearQ(QFunction):
    """Q(state, action) = mean of weights of the active indicator features.

    The featurizer maps a state to the feature tuples of all its actions at
    once, indexed by action id; each feature key owns one weight. It must be
    pure (the same state always gives the same features), because the
    features of the most recently featurized state are kept and reused
    while the state repeats; weights are never cached, so reads always see
    the latest update. With a single joint feature per action this behaves
    exactly like a table over the feature space, which is how the block
    world uses it (the feature key abstracts away block-interchangeable
    detail). Unseen weights read 0.
    """

    kind = "linear"

    def __init__(self, n_actions: int, featurize: Featurizer, _frozen: bool = False):
        self.n_actions = n_actions
        self.featurize = featurize
        self._weights: dict[Hashable, float] = {}
        self._frozen = _frozen
        # (state, its features, lone keys) of the last featurized state, where
        # lone keys lists each action's only feature when every action has
        # exactly one, else None. Swapped in one assignment, so a reader never
        # pairs one state with another state's features.
        self._memo: Optional[tuple[Hashable, Sequence[tuple[Hashable, ...]],
                                   Optional[list[Hashable]]]] = None

    def _featurized(self, state: Hashable):
        memo = self._memo
        if memo is None or memo[0] != state:
            feats = self.featurize(state)
            lone = [f[0] for f in feats] if set(map(len, feats)) == {1} else None
            memo = self._memo = (state, feats, lone)
        return memo

    def _features(self, state: Hashable) -> Sequence[tuple[Hashable, ...]]:
        return self._featurized(state)[1]

    def value(self, state: Hashable, action_id: int) -> float:
        feats = self._features(state)[action_id]
        if not feats:
            return 0.0
        return sum(self._weights.get(f, 0.0) for f in feats) / len(feats)

    def row(self, state: Hashable) -> list[float]:
        _, feats, lone = self._featurized(state)
        get = self._weights.get
        if lone is not None:
            # A one-feature mean sum((w,)) / 1 is 0 + w: the same float as
            # value() computes, -0.0 weights included, at a ninth of the cost
            # of the general mean below.
            return [0.0 + get(k, 0.0) for k in lone]
        return [sum(get(f, 0.0) for f in fs) / len(fs) if fs else 0.0 for fs in feats]

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> None:
        if self._frozen:
            raise FrozenQError("snapshot Q-functions are read-only")
        feats = self._features(state)[action_id]
        if not feats:
            return
        weights = self._weights
        error = target - sum(weights.get(f, 0.0) for f in feats) / len(feats)
        step = lr * error / len(feats)
        for f in feats:
            weights[f] = weights.get(f, 0.0) + step

    def snapshot(self) -> "LinearQ":
        copy = LinearQ(self.n_actions, self.featurize, _frozen=True)
        copy._weights = dict(self._weights)
        return copy

    def __len__(self) -> int:
        return len(self._weights)

    def records(self) -> list[tuple[str, int, float]]:
        # Feature keys play the role of the state key; the action column is
        # -1 because actions are already folded into the features.
        rows = [(repr(f), -1, w) for f, w in self._weights.items()]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def load_records(self, rows: Iterable[tuple[str, int, float]]) -> None:
        for key, _action, value in rows:
            self._weights[ast.literal_eval(key)] = value


def dump_qfunction(q: QFunction, header_fields: dict[str, str]) -> str:
    """Serialize a Q-function as sorted text records with a header line."""
    fields = {"kind": getattr(q, "kind", "tabular"), "n_actions": str(q.n_actions)}
    fields.update(header_fields)
    header = "# q " + " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    lines = [header]
    for key, action, value in q.records():
        lines.append(f"{key}\t{action}\t{value!r}")
    return "\n".join(lines) + "\n"


def parse_qdump(text: str) -> tuple[dict[str, str], list[tuple[str, int, float]]]:
    """Parse a dump produced by :func:`dump_qfunction`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# q "):
        raise ValueError("not a Q-function dump: missing '# q' header")
    fields = {}
    for token in lines[0][len("# q "):].split():
        k, _, v = token.partition("=")
        fields[k] = v
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, action, value = line.split("\t")
        rows.append((key, int(action), float(ast.literal_eval(value))))
    return fields, rows
