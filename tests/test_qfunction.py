"""Q-function backends: tabular, linear-over-features, and text dumps."""

import random

import pytest
from hypothesis import given, strategies as st

from spotrl import harness
from spotrl.envs.blockworld import TASKS, BlockWorld
from spotrl.qfunction import (
    LinearQ,
    QFunction,
    TabularQ,
    dump_qfunction,
    parse_qdump,
)
from spotrl.spotq import EmptyActionSpaceError, masked_argmax, masked_ties
from spotrl.trainer import masked_policy_flag, run_training

from oracles import (
    ForbiddenRandom,
    KeyFeatures,
    PlainLinearQ,
    block_feature_key,
    scan_flag,
    scan_pick,
)


def joint_keys(state):
    return [(state, a) for a in range(2)]


def lone_keys(state):
    """One feature key per action, some shared between actions."""
    return [("bias",), ("state", state), ("state", state), ("act", state)]


# -- tabular ----------------------------------------------------------------


def test_tabular_defaults_and_blend():
    q = TabularQ(2)
    assert q.value("s", 0) == 0.0
    q.update("s", 0, 1.0, 0.5)
    assert q.value("s", 0) == 0.5
    q.update("s", 0, 1.0, 0.5)
    assert q.value("s", 0) == 0.75
    assert q.value("s", 1) == 0.0
    assert len(q) == 1


def test_tabular_initial_value():
    q = TabularQ(2, initial=0.4)
    assert q.value("anywhere", 1) == 0.4
    assert q.best_value("anywhere") == 0.4
    q.update("s", 0, 1.0, 0.5)  # blends from the initial value
    assert q.value("s", 0) == 0.7


def test_best_value_scans_all_actions():
    q = TabularQ(3)
    q.update("s", 2, 0.9, 1.0)
    q.update("s", 0, -0.5, 1.0)
    assert q.best_value("s") == 0.9
    assert q.best_value("unseen") == 0.0


def test_tabular_records_sorted():
    q = TabularQ(2)
    q.update((2, 1), 1, 0.25, 1.0)
    q.update((1, 1), 0, 0.75, 1.0)
    assert q.records() == [("(1, 1)", 0, 0.75), ("(2, 1)", 1, 0.25)]


TABLE_STATES = ("s", "t", (1, 2), (1, 2, "E", ((), ((3, 1), (3, 2)))))
TABLE_UPDATES = st.lists(st.tuples(st.sampled_from(TABLE_STATES), st.integers(0, 3),
                                   st.floats(-4, 4), st.floats(0, 1)), max_size=40)


def flat_table(updates, initial):
    """The same updates applied to one flat {(state, action): value} dict;
    an update whose lr is None loads its target as the value."""
    table = {}
    for state, action, target, lr in updates:
        if lr is None:
            table[(state, action)] = target
            continue
        old = table.get((state, action), initial)
        table[(state, action)] = old + lr * (target - old)
    return table


@given(updates=TABLE_UPDATES, initial=st.sampled_from((0.0, -0.0, 0.4)))
def test_tabular_stores_exactly_the_written_entries(updates, initial):
    """Per-state storage holds what a flat (state, action) table holds:
    the same records in the same order, no entry for an action never
    written at a written state, and len() counts written entries."""
    q = TabularQ(4, initial=initial)
    for update in updates:
        q.update(*update)
    flat = flat_table(updates, initial)
    expected = sorted(((repr(s), a, v) for (s, a), v in flat.items()),
                      key=lambda r: (r[0], r[1]))
    assert [(k, a, repr(v)) for k, a, v in q.records()] == \
        [(k, a, repr(v)) for k, a, v in expected]
    assert len(q) == len(flat)


# An update (state, action, target, lr), or a load (state, action, value, None).
TABLE_OPS = st.lists(
    st.tuples(st.sampled_from(TABLE_STATES), st.integers(0, 3), st.floats(-4, 4),
              st.floats(0, 1))
    | st.tuples(st.sampled_from(TABLE_STATES), st.integers(0, 3),
                st.sampled_from((0.0, -0.0, 0.4, -1.5)), st.none()),
    max_size=40)


@given(ops=TABLE_OPS, initial=st.sampled_from((0.0, -0.0, 0.4)))
def test_tabular_reads_match_the_flat_table(ops, initial):
    """row, value and best_value read what a flat (state, action) table
    holds, float for float: unwritten actions at written states and unseen
    states read ``initial``, -0.0 included; loads and updates mix."""
    q = TabularQ(4, initial=initial)
    for state, action, x, lr in ops:
        if lr is None:
            q.load_records([(repr(state), action, x)])
        else:
            q.update(state, action, x, lr)
    flat = flat_table(ops, initial)
    for state in TABLE_STATES + ("unseen",):
        expected = [flat.get((state, a), initial) for a in range(4)]
        assert repr(q.row(state)) == repr(expected)
        assert [repr(q.value(state, a)) for a in range(4)] == list(map(repr, expected))
        assert repr(q.best_value(state)) == repr(max(expected))
    assert len(q) == len(flat)


def test_tabular_row_is_a_copy():
    q = TabularQ(2)
    q.update("s", 0, 1.0, 1.0)
    q.row("s")[0] = 5.0
    q.row("unseen")[1] = 5.0
    assert q.row("s") == [1.0, 0.0] and q.row("unseen") == [0.0, 0.0]


@given(updates=TABLE_UPDATES)
def test_tabular_dump_reloads_every_row(updates):
    """dump -> parse_qdump -> load_records gives back the same row, float
    for float, for every state, written or not."""
    q = TabularQ(4)
    for update in updates:
        q.update(*update)
    _, rows = parse_qdump(dump_qfunction(q, {}))
    restored = TabularQ(4)
    restored.load_records(rows)
    assert len(restored) == len(q)
    for state in TABLE_STATES + ("unseen",):
        assert [repr(v) for v in restored.row(state)] == [repr(v) for v in q.row(state)]


# -- linear -----------------------------------------------------------------


def test_linear_with_joint_feature_matches_tabular():
    lin = LinearQ(KeyFeatures(2, joint_keys))
    tab = TabularQ(2)
    for target, lr in [(1.0, 0.3), (0.4, 0.5), (-0.2, 0.9)]:
        lin.update("s", 1, target, lr)
        tab.update("s", 1, target, lr)
        assert lin.value("s", 1) == tab.value("s", 1)


def test_linear_records_use_feature_keys():
    q = LinearQ(KeyFeatures(2, joint_keys))
    q.update("s", 1, 0.5, 1.0)
    assert q.records() == [("('s', 1)", -1, 0.5)]


def test_linear_featurizes_each_state_once():
    """feature_ids runs once per distinct state for the life of the
    Q-function, across more states than any short cycle and with revisits,
    and the distinct ids best_value and ties read add no call; the
    weights are never cached: reads after an update are fresh."""
    seen = []

    def keys(state):
        seen.append(state)
        return joint_keys(state)

    q = LinearQ(KeyFeatures(2, keys))
    assert q.row("s") == [0.0, 0.0]
    q.update("s", 1, 1.0, 0.5)
    assert q.row("s") == [0.0, 0.5]
    assert q.value("s", 1) == 0.5
    assert q.row("t") == [0.0, 0.0]
    q.update("t", 0, -1.0, 1.0)
    assert q.value("t", 0) == -1.0
    assert q.row("s") == [0.0, 0.5]
    assert seen == ["s", "t"]
    for state in ("u", "v", "w", "x", "y", "s", "u", "t", "y", "s"):
        q.row(state)
        q.best_value(state)
        q.ties(state)
    assert seen == ["s", "t", "u", "v", "w", "x", "y"]
    q.update("s", 1, 1.0, 0.5)
    assert q.row("s") == [0.0, 0.75] and q.best_value("s") == 0.75
    assert q.value("t", 0) == -1.0 and q.row("x") == [0.0, 0.0]
    assert seen == ["s", "t", "u", "v", "w", "x", "y"]


def test_block_run_featurizes_each_state_once():
    """On a short spotq+trial_progress block run (training and validation),
    the Q-function's env runs feature_ids exactly once per distinct state
    the trainer reads, although replay revisits states many times."""
    rc = harness.resolve_run_config({
        "env": "blockworld", "cell": "spotq+trial_progress", "seed": "0",
        "budget": "400", "validation_every": "200", "validation_trials": "3",
    })
    q = rc.make_q()
    featurized, reads = [], []
    feature_ids = q.features.feature_ids

    def counting_feature_ids(state):
        featurized.append(state)
        return feature_ids(state)

    def reading(method):
        def read(state, *args):
            reads.append(state)
            return method(state, *args)
        return read

    q.features.feature_ids = counting_feature_ids
    for name in ("row", "value", "best_value", "ties", "update"):
        setattr(q, name, reading(getattr(q, name)))
    run_training(rc.make_env, rc.agent_config(), q=q)
    assert len(featurized) == len(set(reads)) > 4
    assert set(featurized) == set(reads)
    assert len(reads) > 4 * len(featurized)


MEMO_CASES = {
    "lone": (3, lambda state: [("bias",), ("state", state % 4), ("act", state)]),
}
MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.just("row"), st.integers(0, 7)),
    st.tuples(st.just("value"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 2),
              st.floats(-4, 4), st.floats(0, 1)),
    st.tuples(st.just("zero"), st.integers(0, 7), st.integers(0, 2)),
), max_size=60)


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
@given(ops=MEMO_OPS)
def test_linear_matches_the_plain_reference(case, ops):
    """Through eight states, each revisited, with updates and -0.0 weights
    loaded in between (keys loaded before any read gave them an id too),
    every row, value and update return is the float a LinearQ without the
    per-state id memo or ids gives."""
    n_actions, keys = MEMO_CASES[case]
    space = KeyFeatures(n_actions, keys)
    q, ref = LinearQ(space), PlainLinearQ(n_actions, space.featurize)
    for op, state, *args in ops:
        if op == "row":
            assert [repr(v) for v in q.row(state)] == [repr(v) for v in ref.row(state)]
            continue
        action = args[0] % n_actions
        if op == "value":
            assert repr(q.value(state, action)) == repr(ref.value(state, action))
        elif op == "update":
            assert repr(q.update(state, action, *args[1:])) == \
                repr(ref.update(state, action, *args[1:]))
        else:
            rows = [(repr(keys(state)[action]), -1, -0.0)]
            q.load_records(rows)
            ref.load_records(rows)
    assert [(k, a, repr(w)) for k, a, w in q.records()] == \
        sorted((repr(f), -1, repr(w)) for f, w in ref.weights.items())
    for state in range(8):
        assert [repr(v) for v in q.row(state)] == [repr(v) for v in ref.row(state)]


# Synthetic block states whose signatures a short walk rarely reaches first:
# a -0.0 load there names keys before their signature table is built.
UNBUILT = st.tuples(st.integers(0, 1), st.sampled_from([
    (2,) + (0,) * 15, (2, 2) + (0,) * 14, (3, 1) + (0,) * 14, (4,) + (0,) * 15,
    (1, 1, 1, 1) + (0,) * 12, (0,) * 15 + (3,),
]))


@given(task=st.sampled_from(TASKS), seed=st.integers(0, 2**16), data=st.data())
def test_block_linear_q_matches_the_plain_reference(task, seed, data):
    """On a random walk over allowed block-world actions, LinearQ over one
    env's feature ids and PlainLinearQ over block_feature_key agree at every
    step: value, row, best_value and update returns, records, and ties and
    the unmasked pick against a scan of the plain row, with -0.0 weights
    loaded for visited keys and for keys no signature table holds yet."""
    walker, owner = BlockWorld(task=task), BlockWorld(task=task)
    q = LinearQ(owner)
    features = {}

    def featurize(state):
        if state not in features:
            features[state] = [block_feature_key(state, a, owner.n_cells)
                               for a in range(owner.n_actions)]
        return features[state]

    ref = PlainLinearQ(owner.n_actions, featurize)
    rng = random.Random(seed)
    state = walker.reset(seed)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(["read", "update", "zero", "zero-unbuilt"]))
        action = data.draw(st.integers(0, owner.n_actions - 1))
        if op == "read":
            assert [repr(v) for v in q.row(state)] == [repr(v) for v in ref.row(state)]
            assert repr(q.value(state, action)) == repr(ref.value(state, action))
            assert repr(q.best_value(state)) == repr(max(ref.row(state)))
        elif op == "update":
            target, lr = data.draw(st.floats(-4, 4)), data.draw(st.floats(0, 1))
            assert repr(q.update(state, action, target, lr)) == \
                repr(ref.update(state, action, target, lr))
        else:
            at = state if op == "zero" else data.draw(UNBUILT)
            rows = [(repr(block_feature_key(at, action, owner.n_cells)[0]), -1, -0.0)]
            q.load_records(rows)
            ref.load_records(rows)
        assert [(k, a, repr(w)) for k, a, w in q.records()] == \
            sorted((repr(f), -1, repr(w)) for f, w in ref.weights.items())
        assert_greedy_matches_the_scan(q, state, seed, scanned=ref)
        if walker.terminal:
            state = walker.reset(rng.randrange(1 << 30))
        else:
            state, _, _ = walker.step(
                rng.choice([a for a, ok in enumerate(walker.mask_for(state)) if ok]))


# -- greedy -----------------------------------------------------------------


def assert_greedy_matches_the_scan(q, state, seed, scanned=None):
    """masked_argmax with no mask picks the action a plain scan of
    ``scanned``'s row (q's own by default) picks, and leaves the tie stream
    in the same state, and q.ties is the scan's tie list; a unique
    maximizer draws nothing."""
    scanned = q if scanned is None else scanned
    values = scanned.row(state)
    rng = random.Random(seed)
    expected = (scan_pick(values, None, rng), rng.getstate())
    rng = random.Random(seed)
    assert (masked_argmax(q, state, None, rng), rng.getstate()) == expected
    assert q.ties(state) == tuple(a for a, v in enumerate(values) if v == max(values))
    if values.count(max(values)) == 1:
        assert masked_argmax(q, state, None, ForbiddenRandom()) == expected[0]


@given(ops=TABLE_OPS, initial=st.sampled_from((0.0, -0.0)), seed=st.integers(0, 2**16))
def test_tabular_greedy_matches_the_scan(ops, initial, seed):
    """TabularQ.ties reads the stored row in place, and the unmasked pick
    picks and draws as the all-true scan does, at written and unseen
    states, -0.0 included."""
    q = TabularQ(4, initial=initial)
    for state, action, x, lr in ops:
        if lr is None:
            q.load_records([(repr(state), action, x)])
        else:
            q.update(state, action, x, lr)
        assert_greedy_matches_the_scan(q, state, seed)
    for state in TABLE_STATES + ("unseen",):
        assert_greedy_matches_the_scan(q, state, seed)


GREEDY_CASES = {
    # Four of six actions share one id, not side by side.
    "shared": (6, lambda s: [("x", s % 2), ("own", s), ("x", s % 2), ("x", s % 2),
                             ("y",), ("x", s % 2)]),
    # Ids shared across states, so several often tie at the best weight.
    "tied": (5, lambda s: [("a",), ("b", s % 2), ("a",), ("c", s % 3), ("d",)]),
    # One distinct id for every action.
    "single": (4, lambda s: [("only", s % 3)] * 4),
}
WEIGHTS = st.sampled_from((0.0, -0.0, 0.5, -1.0))
GREEDY_OPS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), WEIGHTS,
                                st.sampled_from((1.0, 0.5, None))), max_size=30)


@pytest.mark.parametrize("case", sorted(GREEDY_CASES))
@given(ops=GREEDY_OPS, seed=st.integers(0, 2**16))
def test_linear_greedy_matches_the_scan(case, ops, seed):
    """LinearQ.ties over distinct ids lists, and the unmasked pick through
    it picks and draws, as the all-true scan of the row does: with many
    actions on one id, with several ids tied at the best weight, and with a
    single id, as weights change under it."""
    n_actions, keys = GREEDY_CASES[case]
    q = LinearQ(KeyFeatures(n_actions, keys))
    for state, action, x, lr in ops:
        action %= n_actions
        if lr is None:
            q.load_records([(repr(keys(state)[action]), -1, x)])
        else:
            q.update(state, action, x, lr)
        assert_greedy_matches_the_scan(q, state, seed)
    for state in range(6):
        assert_greedy_matches_the_scan(q, state, seed)
        assert repr(q.best_value(state)) == repr(max(q.row(state)))


# Three ids of one state, each at several positions, and none side by side.
MOVING_KEYS = [("a",), ("b",), ("c",), ("a",), ("b",), ("a",), ("c",), ("b",)]
MOVING_OPS = st.lists(st.tuples(st.integers(0, 7), st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0)),
                                st.sampled_from((1.0, 0.5, None))), min_size=1, max_size=40)


@given(ops=MOVING_OPS)
def test_linear_ties_follow_the_best_id(ops):
    """As updates and loads (-0.0 included) move the best weight from one
    id of a state to another, and back, the kept positions are always those
    of the id best now: ties equals the row scan after every step, several
    ids tied included."""
    q = LinearQ(KeyFeatures(len(MOVING_KEYS), lambda s: MOVING_KEYS))
    for action, x, lr in ops:
        if lr is None:
            q.load_records([(repr(MOVING_KEYS[action]), -1, x)])
        else:
            q.update("s", action, x, lr)
        assert q.ties("s") == QFunction.ties(q, "s")


# -- masked picks and the policy flag -----------------------------------------


def masks_around_the_best(values, bits):
    """Masks that keep all, some or none of the row's maximizers and of the
    other actions, plus ``bits`` as drawn and the empty mask."""
    best = max(values)
    top = [v == best for v in values]
    return [
        [True] * len(values),
        [not t for t in top],
        [t and b for t, b in zip(top, bits)],
        [b or not t for t, b in zip(top, bits)],
        [t or b for t, b in zip(top, bits)],
        list(bits[:len(values)]),
        [False] * len(values),
    ]


def assert_masked_reads_match_the_scan(q, state, bits, seed):
    """Under every mask around the row's maximizers, masked_argmax picks and
    draws as a plain scan of the row does (or finds nothing allowed),
    masked_ties lists what the scan ties over, and masked_policy_flag at
    each allowed action's value is the scanned flag."""
    values = q.row(state)
    for mask in masks_around_the_best(values, bits):
        rng, scanned = random.Random(seed), random.Random(seed)
        expected = scan_pick(values, mask, scanned)
        if expected is None:
            with pytest.raises(EmptyActionSpaceError):
                masked_argmax(q, state, mask, rng)
            continue
        assert (masked_argmax(q, state, mask, rng), rng.getstate()) == \
            (expected, scanned.getstate())
        best = max(v for v, ok in zip(values, mask) if ok)
        assert masked_ties(q, state, mask) == \
            tuple(a for a, ok in enumerate(mask) if ok and values[a] == best)
        for a in (a for a, ok in enumerate(mask) if ok):
            assert masked_policy_flag(q, state, mask, q.value(state, a)) == \
                scan_flag(values, mask)
    best = max(values)
    assert q.ties(state) == tuple(a for a, v in enumerate(values) if v == best)


MASK_BITS = st.lists(st.booleans(), min_size=6, max_size=6)


@given(ops=TABLE_OPS, initial=st.sampled_from((0.0, -0.0)), bits=MASK_BITS,
       seed=st.integers(0, 2**16))
def test_tabular_masked_reads_match_the_scan(ops, initial, bits, seed):
    """TabularQ's ties, masked picks, tie lists and flags are the plain
    scan's, at unseen states and with -0.0 and 0.0 side by side."""
    q = TabularQ(4, initial=initial)
    assert q.ties("s") == (0, 1, 2, 3)
    for state, action, x, lr in ops:
        if lr is None:
            q.load_records([(repr(state), action, x)])
        else:
            q.update(state, action, x, lr)
        assert_masked_reads_match_the_scan(q, state, bits, seed)
    for state in TABLE_STATES + ("unseen",):
        assert_masked_reads_match_the_scan(q, state, bits, seed)


@pytest.mark.parametrize("case", sorted(GREEDY_CASES))
@given(ops=GREEDY_OPS, bits=MASK_BITS, seed=st.integers(0, 2**16))
def test_linear_masked_reads_match_the_scan(case, ops, bits, seed):
    """LinearQ.ties is the scan's tie list whether one id or several hold
    the best weight, and masked picks through it pick, draw and flag as the
    plain scan does: with ties across ids, -0.0 weights, and masks that
    remove some, all or none of the maximizers."""
    n_actions, keys = GREEDY_CASES[case]
    q = LinearQ(KeyFeatures(n_actions, keys))
    for state, action, x, lr in ops:
        action %= n_actions
        if lr is None:
            q.load_records([(repr(keys(state)[action]), -1, x)])
        else:
            q.update(state, action, x, lr)
        assert_masked_reads_match_the_scan(q, state, bits, seed)
    for state in range(6):
        assert_masked_reads_match_the_scan(q, state, bits, seed)


# -- rows -------------------------------------------------------------------

STATES = ("s", "t", "u")


def negative_zero_tabular(q, state, action):
    q.load_records([(repr(state), action, -0.0)])


def negative_zero_linear(q, state, action):
    q.load_records([(repr(lone_keys(state)[action]), -1, -0.0)])


ROW_CASES = {
    "tabular": (lambda: TabularQ(4), negative_zero_tabular),
    "tabular-initial": (lambda: TabularQ(4, initial=-0.0), negative_zero_tabular),
    "linear-one-feature": (lambda: LinearQ(KeyFeatures(4, lone_keys)), negative_zero_linear),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@given(
    updates=st.lists(st.tuples(st.sampled_from(STATES), st.integers(0, 3),
                               st.floats(-4, 4), st.floats(0, 1)), max_size=30),
    zeros=st.lists(st.tuples(st.sampled_from(STATES), st.integers(0, 3)), max_size=4),
)
def test_row_matches_value_bitwise(case, updates, zeros):
    """row(s) is [value(s, a) for every a], float for float (repr tells
    -0.0 from 0.0), after updates and with -0.0 entries loaded."""
    make, negative_zero = ROW_CASES[case]
    q = make()
    for state, action, target, lr in updates:
        q.update(state, action, target, lr)
    for state, action in zeros:
        negative_zero(q, state, action)
    for state in STATES + ("unseen",):
        assert [repr(v) for v in q.row(state)] == [repr(q.value(state, a)) for a in range(4)]
    assert q.best_value("s") == max(q.value("s", a) for a in range(4))


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@given(
    zeros=st.lists(st.tuples(st.sampled_from(STATES), st.integers(0, 3)), max_size=4),
    updates=st.lists(st.tuples(st.sampled_from(STATES), st.integers(0, 3),
                               st.floats(-4, 4), st.floats(0, 1)), max_size=30),
)
def test_update_returns_the_prior_value(case, zeros, updates):
    """update() returns the value it blended from, float for float the one
    value() read just before it (-0.0 entries and unwritten actions too)."""
    make, negative_zero = ROW_CASES[case]
    q = make()
    for state, action in zeros:
        negative_zero(q, state, action)
    for state, action, target, lr in updates:
        prior = repr(q.value(state, action))
        assert repr(q.update(state, action, target, lr)) == prior


# -- dumps ------------------------------------------------------------------


def test_dump_and_parse_round_trip_tabular():
    q = TabularQ(2)
    q.update((3, 4), 0, 0.1, 0.3)
    q.update((1, 2), 1, -0.7, 0.9)
    text = dump_qfunction(q, {"env": "demo", "seed": "7"})
    fields, rows = parse_qdump(text)
    assert fields["kind"] == "tabular"
    assert fields["n_actions"] == "2"
    assert fields["env"] == "demo"
    assert fields["seed"] == "7"
    restored = TabularQ(2)
    restored.load_records(rows)
    assert restored.records() == q.records()
    assert restored.value((3, 4), 0) == q.value((3, 4), 0)


def test_dump_and_parse_round_trip_linear():
    q = LinearQ(KeyFeatures(2, joint_keys))
    q.update("s", 0, 0.123456789123456789, 0.3)
    fields, rows = parse_qdump(dump_qfunction(q, {}))
    assert fields["kind"] == "linear"
    restored = LinearQ(KeyFeatures(2, joint_keys))
    restored.load_records(rows)
    assert restored.records() == q.records()  # repr round trip is exact


def test_parse_qdump_rejects_other_text():
    with pytest.raises(ValueError):
        parse_qdump("state\t0\t1.0\n")
    with pytest.raises(ValueError):
        parse_qdump("")
