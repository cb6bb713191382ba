"""Block manipulation world: stacks, toppling, masking, three tasks."""

import random

import pytest
from hypothesis import given, strategies as st

from spotrl.envs.blockworld import TASKS, BlockWorld, feature_key
from spotrl.harness import block_q

from oracles import (
    ScriptedRandom,
    block_feature_key,
    shortest_stack_plan_length,
    task_done,
)


def world(text, **kwargs):
    return BlockWorld.from_text(text, **kwargs)


TWO_STACK = """
cell 0 0: 0 1
cell 2 0: 2
cell 3 3: 3
gripper: empty
"""


# -- reset ------------------------------------------------------------------


def test_reset_is_deterministic():
    env = BlockWorld()
    a = env.reset(31)
    b = BlockWorld().reset(31)
    assert a == b


def test_reset_scatters_singletons():
    """Every reset places all blocks as singletons on distinct cells with
    the gripper empty, which pins the starting progress of each task."""
    for task, start_progress in [("stack", 0.25), ("clear", 0.0)]:
        env = BlockWorld(task=task)
        for seed in range(200):
            held, heights = env.reset(seed)
            assert held == 0
            assert sum(heights) == 4
            assert max(heights) == 1
            assert env.progress() == start_progress


def test_reset_never_starts_complete():
    """The row task could scatter straight into a finished row; resets
    redraw until the task is incomplete."""
    env = BlockWorld(task="row")
    for seed in range(500):
        env.reset(seed)
        assert env.progress() < 1.0


# -- action coding ----------------------------------------------------------


def test_decode_covers_all_actions():
    env = BlockWorld()
    assert env.n_actions == 96
    for a in range(96):
        atype, cell, direction = env.decode(a)
        assert atype == env.action_types[a]
        if atype == "grasp":
            assert a == cell and direction is None
        elif atype == "place":
            assert a == 16 + cell and direction is None
        else:
            assert a == 32 + 4 * cell + direction
    with pytest.raises(ValueError):
        env.decode(96)
    with pytest.raises(ValueError):
        env.decode(-1)


# -- progress metrics -------------------------------------------------------


def test_stack_progress_counts_tallest():
    env = world(TWO_STACK)
    assert env.progress() == 0.5
    env = world("cell 1 2: 0 1 2 3\ngripper: empty")
    assert env.progress() == 1.0


def test_row_progress_counts_longest_run():
    line = "cell 0 0: 0\ncell 1 0: 1\ncell 2 0: 2\ncell 0 1: 3\ngripper: empty"
    env = world(line, task="row")
    assert env.progress() == 0.75  # the L-shape's best run is 3
    vertical = "cell 2 0: 0\ncell 2 1: 1\ncell 2 2: 2\ncell 2 3: 3\ngripper: empty"
    assert world(vertical, task="row").progress() == 1.0
    doubled = "cell 0 0: 0\ncell 1 0: 1 2\ncell 2 0: 3\ngripper: empty"
    assert world(doubled, task="row").progress() == 0.25  # a 2-stack breaks the run


def test_clear_progress_counts_removed():
    env = BlockWorld(task="clear")
    env.reset(0)
    occupied = [c for c in range(16) if env.stacks[c]]
    _, outcome = env.step(occupied[0])  # grasp banks the block directly
    assert outcome.success
    assert env.progress() == 0.25
    assert env.state()[0] == 0  # the gripper stays free on the clear task
    assert len(env.removed) == 1


def test_completion_matches_predicate_oracles():
    """progress() hits 1 exactly when an independently written completion
    predicate says the task is done (random rollouts, all three tasks)."""
    for task in ("stack", "row", "clear"):
        env = BlockWorld(task=task)
        rng = random.Random(hash(task) & 0xFFFF)
        env.reset(rng.randrange(2 ** 31))
        for _ in range(4000):
            _, outcome = env.step(rng.randrange(env.n_actions))
            assert (env.progress() == 1.0) == task_done(env)
            assert outcome.task_complete == task_done(env)
            if env.terminal:
                env.reset(rng.randrange(2 ** 31))


def test_block_conservation_under_fuzz():
    """However the dynamics scatter, move, or bank blocks, every block is
    always in exactly one place: a stack, the gripper, or removed."""
    for task in ("stack", "row", "clear"):
        env = BlockWorld(task=task)
        rng = random.Random(99)
        env.reset(rng.randrange(2 ** 31))
        for _ in range(5000):
            env.step(rng.randrange(env.n_actions))
            everywhere = [b for s in env.stacks for b in s]
            if env.gripper is not None:
                everywhere.append(env.gripper)
            everywhere.extend(env.removed)
            assert sorted(everywhere) == [0, 1, 2, 3]
            if env.terminal:
                env.reset(rng.randrange(2 ** 31))


# -- dynamics ---------------------------------------------------------------


def test_grasp_takes_top_block():
    env = world(TWO_STACK)
    _, outcome = env.step(0)  # grasp cell (0, 0)
    assert outcome.success
    assert env.gripper == 1  # the top of [0, 1]
    assert env.stacks[0] == [0]
    _, outcome = env.step(2)  # grasp with a full gripper fails
    assert not outcome.success
    env2 = world(TWO_STACK)
    _, outcome = env2.step(5)  # grasp an empty cell fails
    assert not outcome.success


def test_topple_probability_formula():
    env = BlockWorld(topple_base=0.1)
    assert env.p_topple(2) == 0.1
    assert abs(env.p_topple(3) - 0.2) < 1e-15
    assert env.p_topple(6) == 0.5
    assert env.p_topple(11) == 0.5  # capped
    assert BlockWorld(topple_base=0.25).p_topple(3) == 0.5


def test_place_branches():
    """Placing onto height >= 2 draws the topple coin; onto shorter stacks
    it never draws. A topple scatters the stack plus the held block."""
    # Survival branch: the coin comes up high.
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([0.9])
    _, outcome = env.step(16 + 0)  # place onto the 2-stack at (0, 0)
    assert outcome.success
    assert env.stacks[0] == [0, 1, 2]
    assert outcome.progress_after == 0.75

    # Topple branch: the coin comes up low.
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([0.05])
    _, outcome = env.step(16 + 0)
    assert not outcome.success
    assert env.stacks[0] == []
    assert env.gripper is None
    heights = [len(s) for s in env.stacks]
    assert max(heights) == 1 and sum(heights) == 4  # all scattered singly
    assert outcome.progress_before == 0.5
    assert outcome.progress_after == 0.25  # a visible progress reversal

    # Height-1 and empty-cell placements consume no randomness at all, and
    # success tracks progress, not mechanics: a block that lands without
    # raising the tallest stack earns no success flag.
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([])
    _, outcome = env.step(16 + 15)  # place onto the singleton at (3, 3)
    assert env.stacks[15] == [3, 2]  # a second 2-stack: progress still 0.5
    assert not outcome.success
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([])
    _, outcome = env.step(16 + 5)  # place onto an empty cell: no gain
    assert not outcome.success
    assert env.stacks[5] == [2]


def test_place_without_block_fails():
    env = world(TWO_STACK)
    _, outcome = env.step(16 + 5)
    assert not outcome.success
    assert env.stacks[5] == []


def test_push_topples_tall_stacks():
    env = world(TWO_STACK)
    env.rng = ScriptedRandom([])  # deterministic: tall pushes always topple
    _, outcome = env.step(32 + 4 * 0 + 1)  # push the 2-stack eastward
    assert outcome.success
    assert env.stacks[0] == []
    assert max(len(s) for s in env.stacks) == 1


def test_push_moves_single_blocks():
    env = world(TWO_STACK)
    _, outcome = env.step(32 + 4 * 2 + 1)  # push (2,0) east into empty (3,0)
    assert outcome.success
    assert env.stacks[2] == [] and env.stacks[3] == [2]
    _, outcome = env.step(32 + 4 * 15 + 1)  # push (3,3) east: off the board
    assert not outcome.success
    assert env.stacks[15] == [3]
    _, outcome = env.step(32 + 4 * 3 + 3)  # push (3,0) west into occupied? (2,0) empty now
    assert outcome.success


def test_push_failure_cases():
    env = world(TWO_STACK)
    _, outcome = env.step(32 + 4 * 5)  # push an empty cell
    assert not outcome.success
    env.step(2)  # fill the gripper
    _, outcome = env.step(32 + 4 * 15)  # push while holding
    assert not outcome.success
    # Push into an occupied neighbour fails.
    env = world("cell 0 0: 0\ncell 1 0: 1\ncell 2 2: 2\ncell 3 3: 3\ngripper: empty")
    _, outcome = env.step(32 + 4 * 0 + 1)
    assert not outcome.success
    assert env.stacks[0] == [0] and env.stacks[1] == [1]


def test_topple_scatters_to_nearest_free_cells():
    """Toppled blocks land on the closest empty cells, nearest ring first,
    bottom block first."""
    env = world("cell 0 0: 0 1 2\ncell 1 0: 3\ngripper: empty")
    env.rng = ScriptedRandom([])  # shuffle is a no-op: in-ring order is by index
    env.step(32 + 4 * 0)  # push the 3-stack at the corner
    # Ring 1 around cell 0: cell 1 (occupied), cell 4 (free).
    # Ring 2: cells 2, 5, 8 — all free.
    assert env.stacks[4] == [0]
    assert env.stacks[2] == [1]
    assert env.stacks[5] == [2]
    assert env.stacks[0] == []


# -- termination ------------------------------------------------------------


def test_action_limits_by_task():
    assert BlockWorld(task="stack").action_limit == 50
    assert BlockWorld(task="row").action_limit == 50
    assert BlockWorld(task="clear").action_limit == 30
    assert BlockWorld(action_limit=7).action_limit == 7


def test_limit_terminates_incomplete():
    env = world(TWO_STACK, action_limit=2)
    env.step(5)  # failed grasps still consume the budget
    _, outcome = env.step(5)
    assert outcome.terminal and not outcome.task_complete
    with pytest.raises(RuntimeError):
        env.step(0)


def test_completion_terminates():
    env = world("cell 1 1: 0 1 2\ncell 2 1: 3\ngripper: empty")
    env.step(6)  # grasp (2, 1)
    env.rng = ScriptedRandom([0.9])  # survive the place onto height 3
    _, outcome = env.step(16 + 5)
    assert outcome.task_complete and outcome.terminal
    assert env.progress() == 1.0


def test_situation_removal_check_and_no_override():
    env = BlockWorld()
    assert env.situation_removal_check(0.5, 0.25) is True
    assert env.situation_removal_check(0.5, 0.5) is False
    out = world(TWO_STACK).step(0)[1]
    for kind in ("base", "sr", "progress", "trial_sr", "trial_progress", "discounted"):
        assert env.instant_reward_override(out, kind) is None


# -- masking ----------------------------------------------------------------


def test_mask_truth_table():
    env = world(TWO_STACK)
    mask = env.mask()
    occupied = {0, 2, 15}
    for c in range(16):
        assert mask[c] == (c in occupied)  # grasp
        assert mask[16 + c] is False  # place with an empty gripper
    for a in range(32, 96):
        cell = (a - 32) // 4
        assert mask[a] == (cell in occupied)  # push
    env.step(0)  # now holding a block
    mask = env.mask()
    assert not any(mask[:16])
    assert all(mask[16:32])  # placing anywhere is at least possible
    assert not any(mask[32:])


def test_masked_actions_always_fail():
    """Every action the mask rules out really is a certain failure: executed
    anyway, it never succeeds and never changes the board."""
    rng = random.Random(17)
    env = BlockWorld()
    env.reset(3)
    for _ in range(60):
        state = env.state()
        text = env.to_text()
        mask = env.mask_for(state)
        for action in range(env.n_actions):
            if mask[action]:
                continue
            probe = BlockWorld.from_text(text)
            before = probe.state()
            _, outcome = probe.step(action)
            assert not outcome.success
            assert probe.state() == before
        # Walk one random (unmasked) action onward; reset when done.
        env.step(rng.randrange(env.n_actions))
        if env.terminal:
            env.reset(rng.randrange(2 ** 31))


# -- planning ---------------------------------------------------------------


def test_ideal_actions_by_task():
    assert BlockWorld(task="stack").ideal_actions() == 6
    assert BlockWorld(task="stack", goal_size=3).ideal_actions() == 4
    assert BlockWorld(task="row").ideal_actions() == 4
    assert BlockWorld(task="clear").ideal_actions() == 4


def test_stack_ideal_matches_search_oracle():
    """From scattered-singleton starts, breadth-first search over the
    deterministic dynamics needs exactly the advertised 6 actions."""
    env = BlockWorld(task="stack")
    for seed in range(6):
        _, heights = env.reset(seed)
        assert shortest_stack_plan_length(heights, 4) == 6 == env.ideal_actions()


def test_six_action_plan_completes_on_the_real_env():
    """A concrete grasp/place plan finishes the stack task in 6 actions when
    toppling is disabled."""
    env = BlockWorld(task="stack", topple_base=0.0)
    env.reset(11)
    occupied = [c for c in range(16) if env.stacks[c]]
    target, sources = occupied[0], occupied[1:]
    actions = 0
    for cell in sources:
        for action in (cell, 16 + target):
            _, outcome = env.step(action)
            assert outcome.success
            actions += 1
    assert actions == 6
    assert env.terminal and env.progress() == 1.0


# -- serialization ----------------------------------------------------------


def test_text_round_trip_mid_episode():
    env = BlockWorld(task="clear")
    env.reset(5)
    occupied = [c for c in range(16) if env.stacks[c]]
    env.step(occupied[0])  # bank one block so `removed` is non-trivial
    text = env.to_text()
    copy = BlockWorld.from_text(text, task="clear")
    assert copy.state() == env.state()
    assert copy.removed == env.removed
    assert copy.to_text() == text


def test_text_round_trip_with_held_block():
    env = world(TWO_STACK)
    env.step(0)
    copy = BlockWorld.from_text(env.to_text())
    assert copy.gripper == env.gripper == 1
    assert copy.state() == env.state()


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        BlockWorld.from_text("blocks everywhere")


# -- features ---------------------------------------------------------------


def test_feature_key_collapses_interchangeable_cells():
    """Grasping a lone block gives the same single feature wherever the
    block sits; the feature distinguishes what matters (relation to the
    tallest stack, direction, gripper) rather than the cell identity."""
    env = BlockWorld()
    a = ((0, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0)), 0)
    b = ((0, (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0)), 2)
    assert feature_key(*a, env) == feature_key(*b, env)
    assert len(feature_key(*a, env)) == 1

    tall = (0, (2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert feature_key(tall, 0, env) != feature_key(tall, 1, env)  # max vs below
    tied = (0, (2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert feature_key(tied, 0, env) != feature_key(tall, 0, env)  # tied vs lone
    held = (1, tall[1])
    assert feature_key(held, 16, env) != feature_key(tall, 16, env)
    assert feature_key(tall, 32, env) != feature_key(tall, 33, env)  # direction


def walk_states(task, seed, steps):
    """States met on a seeded random walk over allowed actions; a finished
    trial resets to a fresh layout."""
    env = BlockWorld(task=task)
    rng = random.Random(seed)
    state = env.reset(seed)
    states = [state]
    for _ in range(steps):
        if env.terminal:
            state = env.reset(rng.randrange(1 << 30))
        else:
            allowed = [a for a, ok in enumerate(env.mask_for(state)) if ok]
            state, _ = env.step(rng.choice(allowed))
        states.append(state)
    return env, states


def feature_cases(states):
    """(held, target relation) pairs the states' features exercise."""
    env = BlockWorld()
    return {(held, feats[0][4]) for held, heights in states
            for feats in env.features((held, heights))}


WALKS = dict(task=st.sampled_from(TASKS), seed=st.integers(0, 2**16),
             steps=st.integers(0, 60))


@given(**WALKS)
def test_features_match_the_per_action_oracle(task, seed, steps):
    """The per-state featurizer gives every action exactly the feature the
    one-action-at-a-time derivation gives it."""
    env, states = walk_states(task, seed, steps)
    for state in states:
        assert env.features(state) == [block_feature_key(state, a, env.n_cells)
                                       for a in range(env.n_actions)]


def test_walks_cover_every_feature_case():
    """The random walks above reach held and free grippers with empty,
    below-max, lone-max and tied-max target cells."""
    states = [s for seed in range(10) for task in TASKS
              for s in walk_states(task, seed, 60)[1]]
    rels = ("empty", "below", "lone_max", "tied_max")
    assert feature_cases(states) == {(held, rel) for held in (0, 1) for rel in rels}


@given(**WALKS, data=st.data())
def test_block_q_row_matches_value_bitwise(task, seed, steps, data):
    """After updates on visited states, and with some weights loaded as
    -0.0, each row entry is the very float value() returns."""
    env, states = walk_states(task, seed, steps)
    q = block_q(env)
    for state in states:
        action = data.draw(st.integers(0, env.n_actions - 1))
        q.update(state, action, data.draw(st.floats(-4, 4)), data.draw(st.floats(0, 1)))
    for feats in data.draw(st.lists(st.sampled_from(env.features(states[-1])), max_size=5)):
        q.load_records([(repr(feats[0]), -1, -0.0)])
    for state in states:
        assert [repr(v) for v in q.row(state)] == \
            [repr(q.value(state, a)) for a in range(env.n_actions)]
