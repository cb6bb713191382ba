"""Q-value storage behind a single small interface.

Two implementations share the interface:

- :class:`TabularQ` — exact table over hashable states, the default for the
  grid world's pose states and for tiny test MDPs. It stores one list row
  of every action's value per state, plus flags marking the actions that
  were written, so every read or update hashes the state once, however
  many actions it touches, and indexes the row by action id.
- :class:`LinearQ` — linear value over indicator features produced by an
  injected per-state featurizer, for the block world where the exact
  occupancy space is too sparse to visit.

Reads come in two shapes: ``value(state, a)`` is one entry, and
``row(state)`` is the list of every action's value at ``state``, each entry
bit-for-bit equal to ``value(state, a)``. Anything that scans the action set
(greedy picks, ``best_value``, the SPOT-Q recomputation) reads one row, so a
state is looked up or featurized once per scan rather than once per action.
``LinearQ`` also keeps the features of its last few featurized states, so
the handful of states one training action reads are featurized once, and
when every action has one feature a row is one gather from a flat list of
weights indexed by feature id.

Updates blend toward a supplied target: ``Q <- Q + lr * (target - Q)``,
and return the value they blended from, the same float ``value()`` read
just before; a caller that needs the prediction and the update (the replay
loss) makes one call instead of a read and then an update.
"""
from __future__ import annotations

import ast
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Optional, Sequence


class QFunction:
    """Interface: value / row / update plus text serialization."""

    n_actions: int

    def value(self, state: Hashable, action_id: int) -> float:
        raise NotImplementedError

    def row(self, state: Hashable) -> list[float]:
        """[Q(state, a) for every action a], equal to value() entry by entry."""
        raise NotImplementedError

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> float:
        """Move Q(state, action_id) toward target by lr; returns the value
        before the update, equal to what value(state, action_id) returned."""
        raise NotImplementedError

    def best_value(self, state: Hashable) -> float:
        """max_a Q(state, a) over the full action set."""
        return max(self.row(state))

    def records(self) -> list[tuple[str, int, float]]:
        """Sorted (key, action, value) text records for diff-able dumps."""
        raise NotImplementedError


class TabularQ(QFunction):
    """Exact Q-table over hashable state keys; unseen entries read ``initial``.

    Stored as ``{state: (row, written)}``: ``row`` holds every action's
    value, ``initial`` where never written, and ``written`` flags the
    actions that were written (or loaded). Records and ``len()`` see only
    the flagged entries, so a dump lists exactly what was written.
    ``row`` returns a copy of the stored row; ``best_value`` takes its
    maximum in place."""

    kind = "tabular"

    def __init__(self, n_actions: int, initial: float = 0.0):
        self.n_actions = n_actions
        self.initial = initial
        self._table: dict[Hashable, tuple[list[float], list[bool]]] = {}

    def _entry(self, state: Hashable) -> tuple[list[float], list[bool]]:
        entry = self._table.get(state)
        if entry is None:
            n = self.n_actions
            entry = self._table[state] = ([self.initial] * n, [False] * n)
        return entry

    def value(self, state: Hashable, action_id: int) -> float:
        entry = self._table.get(state)
        return self.initial if entry is None else entry[0][action_id]

    def row(self, state: Hashable) -> list[float]:
        entry = self._table.get(state)
        if entry is None:
            return [self.initial] * self.n_actions
        return entry[0][:]

    def best_value(self, state: Hashable) -> float:
        entry = self._table.get(state)
        return self.initial if entry is None else max(entry[0])

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> float:
        row, written = self._table.get(state) or self._entry(state)
        old = row[action_id]
        row[action_id] = old + lr * (target - old)
        written[action_id] = True
        return old

    def __len__(self) -> int:
        return sum(sum(written) for _, written in self._table.values())

    def records(self) -> list[tuple[str, int, float]]:
        rows = []
        for state, (values, written) in self._table.items():
            key = repr(state)
            rows.extend((key, a, values[a]) for a, w in enumerate(written) if w)
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def load_records(self, rows: Iterable[tuple[str, int, float]]) -> None:
        for key, action, value in rows:
            values, written = self._entry(ast.literal_eval(key))
            values[int(action)] = value
            written[int(action)] = True


# state -> one tuple of hashable feature keys per action id.
Featurizer = Callable[[Hashable], Sequence[tuple[Hashable, ...]]]

# How many featurized states a LinearQ keeps. A training action reads its
# own state, a replayed pair and the next state; four covers that cycle.
MEMO_STATES = 4


class LinearQ(QFunction):
    """Q(state, action) = mean of weights of the active indicator features.

    The featurizer maps a state to the feature tuples of all its actions at
    once, indexed by action id; each feature key owns one weight. It must be
    pure (the same state always gives the same features), because the
    features of the last :data:`MEMO_STATES` featurized states are kept and
    reused while those states recur; weights are never cached, so reads
    always see the latest update. With a single joint feature per action
    this behaves exactly like a table over the feature space, which is how
    the block world uses it (the feature key abstracts away
    block-interchangeable detail). Unseen weights read 0.
    """

    kind = "linear"

    def __init__(self, n_actions: int, featurize: Featurizer):
        self.n_actions = n_actions
        self.featurize = featurize
        # Every written (or loaded) weight: the source of records() and len().
        self._weights: dict[Hashable, float] = {}
        # Each feature key met as an action's only feature gets an id, and
        # _flat[id] is 0.0 + its weight: the float value() reads for a
        # one-feature mean, -0.0 weights included. Ids are never reassigned.
        self._ids: dict[Hashable, int] = {}
        self._flat: list[float] = []
        # state -> (its features, and when every action has exactly one
        # feature an itemgetter of their ids, which reads the row from _flat;
        # else None), for the last MEMO_STATES featurized states, oldest first.
        self._memo: dict[Hashable, tuple[Sequence[tuple[Hashable, ...]], Optional[Callable]]] = {}

    def _featurized(self, state: Hashable):
        entry = self._memo.get(state)
        if entry is None:
            feats = self.featurize(state)
            pick = None
            if set(map(len, feats)) == {1}:
                keys = [f[0] for f in feats]
                ids = list(map(self._ids.get, keys))
                if None in ids:
                    ids = list(map(self._id, keys))
                # itemgetter of a single index returns the bare item, not a tuple.
                pick = itemgetter(*ids) if len(ids) > 1 else lambda flat, i=ids[0]: (flat[i],)
            memo = self._memo
            if len(memo) == MEMO_STATES:
                del memo[next(iter(memo))]
            entry = memo[state] = (feats, pick)
        return entry

    def _id(self, key: Hashable) -> int:
        """The id of a lone feature key, assigned on first sight."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._flat)
            self._flat.append(0.0 + self._weights.get(key, 0.0))
        return i

    def value(self, state: Hashable, action_id: int) -> float:
        feats = self._featurized(state)[0][action_id]
        if not feats:
            return 0.0
        return sum(self._weights.get(f, 0.0) for f in feats) / len(feats)

    def row(self, state: Hashable) -> list[float]:
        feats, pick = self._featurized(state)
        if pick is not None:
            return list(pick(self._flat))
        get = self._weights.get
        return [sum(get(f, 0.0) for f in fs) / len(fs) if fs else 0.0 for fs in feats]

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> float:
        feats = self._featurized(state)[0][action_id]
        if not feats:
            return 0.0
        weights = self._weights
        old = sum(weights.get(f, 0.0) for f in feats) / len(feats)
        step = lr * (target - old) / len(feats)
        for f in feats:
            self._write(f, weights.get(f, 0.0) + step)
        return old

    def _write(self, key: Hashable, weight: float) -> None:
        self._weights[key] = weight
        i = self._ids.get(key)
        if i is not None:
            self._flat[i] = 0.0 + weight

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
            self._write(ast.literal_eval(key), value)


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
