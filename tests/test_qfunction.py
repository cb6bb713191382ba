"""Q-function backends: tabular, linear-over-features, and text dumps."""

import pytest
from hypothesis import given, strategies as st

from spotrl.qfunction import (
    FrozenQError,
    LinearQ,
    TabularQ,
    dump_qfunction,
    parse_qdump,
)


def pair_features(state):
    """Two-feature featurizer used to exercise weight averaging."""
    return [(("bias", a), ("state", state, a)) for a in range(2)]


def joint_feature(state):
    return [((state, a),) for a in range(2)]


def mixed_features(state):
    """Zero, one, two and three features per action, some shared."""
    return [(), (("bias",),), (("bias",), ("state", state)),
            (("bias",), ("state", state), ("third", state))]


def lone_features(state):
    """One feature per action, some shared, except that state "u" has the
    mixed shape, so one LinearQ reads rows both ways."""
    if state == "u":
        return mixed_features(state)
    return [(("bias",),), (("state", state),), (("state", state),), (("act", state),)]


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


def test_snapshot_is_frozen_and_detached():
    q = TabularQ(2)
    q.update("s", 0, 1.0, 1.0)
    frozen = q.snapshot()
    with pytest.raises(FrozenQError):
        frozen.update("s", 0, 2.0, 1.0)
    q.update("s", 0, 2.0, 1.0)  # the live table still learns
    assert q.value("s", 0) == 2.0
    assert frozen.value("s", 0) == 1.0


def test_tabular_records_sorted():
    q = TabularQ(2)
    q.update((2, 1), 1, 0.25, 1.0)
    q.update((1, 1), 0, 0.75, 1.0)
    assert q.records() == [("(1, 1)", 0, 0.75), ("(2, 1)", 1, 0.25)]


# -- linear -----------------------------------------------------------------


def test_linear_value_is_mean_of_active_weights():
    q = LinearQ(2, pair_features)
    assert q.value("s", 0) == 0.0
    q.update("s", 0, 1.0, 0.5)
    # error 1.0 split over two features: each weight moves by 0.25
    assert q.value("s", 0) == 0.25
    q.update("s", 0, 1.0, 0.5)
    assert q.value("s", 0) == 0.4375
    # the shared bias feature leaks to sibling states, the state feature not
    assert q.value("other", 0) == q.value("s", 0) / 2


def test_linear_with_joint_feature_matches_tabular():
    lin = LinearQ(2, joint_feature)
    tab = TabularQ(2)
    for target, lr in [(1.0, 0.3), (0.4, 0.5), (-0.2, 0.9)]:
        lin.update("s", 1, target, lr)
        tab.update("s", 1, target, lr)
        assert lin.value("s", 1) == tab.value("s", 1)


def test_linear_empty_feature_set_is_inert():
    q = LinearQ(2, lambda s: [(), ()])
    q.update("s", 0, 5.0, 1.0)
    assert q.value("s", 0) == 0.0
    assert len(q) == 0


def test_linear_snapshot_frozen():
    q = LinearQ(2, joint_feature)
    q.update("s", 0, 1.0, 1.0)
    frozen = q.snapshot()
    with pytest.raises(FrozenQError):
        frozen.update("s", 0, 0.0, 1.0)
    assert frozen.value("s", 0) == 1.0


def test_linear_records_use_feature_keys():
    q = LinearQ(2, joint_feature)
    q.update("s", 1, 0.5, 1.0)
    assert q.records() == [("('s', 1)", -1, 0.5)]


def test_linear_reuses_features_only_while_the_state_repeats():
    """Featurizing is skipped for a repeated state, never the weights: reads
    after an update, or for another state, are fresh."""
    seen = []

    def featurize(state):
        seen.append(state)
        return joint_feature(state)

    q = LinearQ(2, featurize)
    assert q.row("s") == [0.0, 0.0]
    q.update("s", 1, 1.0, 0.5)
    assert q.row("s") == [0.0, 0.5]
    assert q.value("s", 1) == 0.5
    assert q.row("t") == [0.0, 0.0]
    q.update("t", 0, -1.0, 1.0)
    assert q.value("t", 0) == -1.0
    assert q.row("s") == [0.0, 0.5]
    assert seen == ["s", "t", "s"]


# -- rows -------------------------------------------------------------------

STATES = ("s", "t", "u")


def negative_zero_tabular(q, state, action):
    q.load_records([(repr(state), action, -0.0)])


def negative_zero_linear(q, state, action):
    q.load_records([(repr(f), -1, -0.0) for f in q.featurize(state)[action]])


ROW_CASES = {
    "tabular": (lambda: TabularQ(4), negative_zero_tabular),
    "tabular-initial": (lambda: TabularQ(4, initial=-0.0), negative_zero_tabular),
    "linear-mixed": (lambda: LinearQ(4, mixed_features), negative_zero_linear),
    "linear-one-feature": (lambda: LinearQ(4, lone_features), negative_zero_linear),
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
    q = LinearQ(2, joint_feature)
    q.update("s", 0, 0.123456789123456789, 0.3)
    fields, rows = parse_qdump(dump_qfunction(q, {}))
    assert fields["kind"] == "linear"
    restored = LinearQ(2, joint_feature)
    restored.load_records(rows)
    assert restored.records() == q.records()  # repr round trip is exact


def test_parse_qdump_rejects_other_text():
    with pytest.raises(ValueError):
        parse_qdump("state\t0\t1.0\n")
    with pytest.raises(ValueError):
        parse_qdump("")
