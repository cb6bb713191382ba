"""Q-value storage behind a single small interface.

Two implementations share the interface:

- :class:`TabularQ` — exact table over hashable states, the default for the
  grid world's pose states and for tiny test MDPs. It stores one list row
  of every action's value per state, plus flags marking the actions that
  were written, so every read or update hashes the state once, however
  many actions it touches, and indexes the row by action id.
- :class:`LinearQ` — one weight per indicator feature, for the block world
  where the exact occupancy space is too sparse to visit. The environment
  owns the feature ids (one per action at each state); the weights are a
  flat list indexed by id.

Reads come in two shapes: ``value(state, a)`` is one entry, and
``row(state)`` is the list of every action's value at ``state``, each entry
bit-for-bit equal to ``value(state, a)``. Anything that scans the action set
(masked greedy picks, ``best_value``) reads one row, so a state is looked up
or featurized once per scan rather than once per action. ``ties(state)`` is
the one argmax read: every action holding the state's best value, in
ascending order, the same tuple a scan of the row lists. Greedy picks draw
among it (``draw_tie``), masked picks filter it. ``LinearQ`` keeps one
record per state it has read (its feature ids and their distinct subset),
so a state is featurized once per Q-function, and a row is one gather from
the flat weights; ``best_value`` and ``ties`` read only the state's
distinct ids (12-18 of the block world's 96), because actions sharing an
id share its weight. The records grow with the distinct states visited.

Updates blend toward a supplied target: ``Q <- Q + lr * (target - Q)``,
and return the value they blended from, the same float ``value()`` read
just before; a caller that needs the prediction and the update (the replay
loss) makes one call instead of a read and then an update.
"""
from __future__ import annotations

import ast
import random
from operator import itemgetter
from typing import Hashable, Iterable


def draw_tie(tied: tuple[int, ...], tie_rng: random.Random) -> int:
    """One of ``tied``, by one ``tie_rng.randrange(len(tied))`` draw made
    only when there is more than one."""
    return tied[0] if len(tied) == 1 else tied[tie_rng.randrange(len(tied))]


def _positions(seq, x) -> tuple[int, ...]:
    """Every position of ``x`` in ``seq``, ascending."""
    a = seq.index(x)
    n = seq.count(x)
    if n == 1:
        return (a,)
    tied = [a]
    for _ in range(n - 1):
        a = seq.index(x, a + 1)
        tied.append(a)
    return tuple(tied)


class QFunction:
    """Interface: value / row / ties / update plus text serialization."""

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

    def ties(self, state: Hashable) -> tuple[int, ...]:
        """Every action holding the state's best value, ascending: the
        argmax over the full action set, before any tie is broken."""
        values = self.row(state)
        return _positions(values, max(values))

    def records(self) -> list[tuple[str, int, float]]:
        """Sorted (key, action, value) text records for diff-able dumps."""
        raise NotImplementedError


class TabularQ(QFunction):
    """Exact Q-table over hashable state keys; unseen entries read ``initial``.

    Stored as ``{state: (row, written)}``: ``row`` holds every action's
    value, ``initial`` where never written, and ``written`` flags the
    actions that were written (or loaded). Records and ``len()`` see only
    the flagged entries, so a dump lists exactly what was written.
    ``row`` returns a copy of the stored row; ``best_value`` and ``ties``
    read it in place."""

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

    def ties(self, state: Hashable) -> tuple[int, ...]:
        entry = self._table.get(state)
        if entry is None:
            return tuple(range(self.n_actions))
        return _positions(entry[0], max(entry[0]))

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
            a = int(action)
            if not 0 <= a < self.n_actions:
                raise ValueError(f"action {a} outside 0..{self.n_actions - 1}")
            values, written = self._entry(_parse_key(key))
            values[a] = value
            written[a] = True


class LinearQ(QFunction):
    """Q(state, action) = the weight of the action's one indicator feature.

    ``features`` (the block world) owns the ids: ``feature_ids(state)``
    gives one per action, ``feature_keys[id]`` is an id's key, and
    ``feature_id(key)`` gives a key's id, assigning one on first sight.
    Weights live in a flat list indexed by id as ``0.0 + weight`` (a loaded
    -0.0 reads 0.0); unseen weights read 0. Each state read gets one
    record at its first read, kept from then on: its ids (the row
    ``feature_ids`` gave, uncopied), its distinct ids in first-seen order,
    a getter of their weights and, filled as ``ties`` finds each id best,
    that id's positions in the ids, which never change. So ``feature_ids``
    must be pure and its rows immutable; it runs once per distinct state.
    Weights are never cached. A row is one gather from the flat list;
    ``best_value`` is the maximum of the distinct weights, as in the row.
    """

    kind = "linear"

    def __init__(self, features):
        self.n_actions = features.n_actions
        self.features = features
        # id -> every written (or loaded) weight: the source of records() and len().
        self._raw: dict[int, float] = {}
        # _flat[id] is 0.0 + the id's weight; grown to len(feature_keys) lazily.
        self._flat: list[float] = []
        # state -> (ids, distinct ids, their weights' getter, {id: positions}).
        self._states: dict[Hashable, tuple] = {}

    def _entry(self, state: Hashable) -> tuple:
        entry = self._states.get(state)
        if entry is None:
            ids = self.features.feature_ids(state)
            self._grow()
            distinct = tuple(dict.fromkeys(ids))
            get = itemgetter(*distinct)
            if len(distinct) == 1:  # itemgetter of one item returns it bare
                get = lambda flat, one=get: (one(flat),)
            entry = self._states[state] = (ids, distinct, get, {})
        return entry

    def _grow(self) -> None:
        """Cover every assigned id; an id with no weight yet reads 0.0."""
        missing = len(self.features.feature_keys) - len(self._flat)
        if missing > 0:
            self._flat.extend([0.0] * missing)

    def value(self, state: Hashable, action_id: int) -> float:
        return self._flat[self._entry(state)[0][action_id]]

    def row(self, state: Hashable) -> list[float]:
        return list(itemgetter(*self._entry(state)[0])(self._flat))

    def best_value(self, state: Hashable) -> float:
        return max(self._entry(state)[2](self._flat))

    def ties(self, state: Hashable) -> tuple[int, ...]:
        """The positions of the one id holding the best weight, since
        actions sharing an id share its weight; a row scan when several
        ids hold it. An id's positions in a state's ids never change, so
        each is found the first time that id is best and kept."""
        ids, distinct, get, positions = self._entry(state)
        weights = get(self._flat)
        best = max(weights)
        if weights.count(best) > 1:
            return QFunction.ties(self, state)
        i = distinct[weights.index(best)]
        tied = positions.get(i)
        if tied is None:
            tied = positions[i] = _positions(ids, i)
        return tied

    def update(self, state: Hashable, action_id: int, target: float, lr: float) -> float:
        i = self._entry(state)[0][action_id]
        flat = self._flat
        old = flat[i]
        weight = self._raw[i] = self._raw.get(i, 0.0) + lr * (target - old)
        flat[i] = 0.0 + weight
        return old

    def __len__(self) -> int:
        return len(self._raw)

    def records(self) -> list[tuple[str, int, float]]:
        # Feature keys play the role of the state key; the action column is
        # -1 because actions are already folded into the features.
        keys = self.features.feature_keys
        rows = [(repr(keys[i]), -1, w) for i, w in self._raw.items()]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def load_records(self, rows: Iterable[tuple[str, int, float]]) -> None:
        for key, _action, value in rows:
            i = self.features.feature_id(_parse_key(key))
            self._grow()
            self._raw[i] = value
            self._flat[i] = 0.0 + value


def _parse_key(text: str) -> Hashable:
    """A record key back from its repr; ValueError unless it is a hashable
    literal."""
    try:
        key = ast.literal_eval(text)
        hash(key)
    except (SyntaxError, TypeError) as exc:
        raise ValueError(f"bad key {text!r}: {exc}") from None
    return key


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
        try:
            rows.append((key, int(action), float(ast.literal_eval(value))))
        except (SyntaxError, TypeError) as exc:
            raise ValueError(f"bad value {value!r}: {exc}") from None
    return fields, rows
