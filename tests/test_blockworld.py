"""Block manipulation world: stacks, toppling, masking, three tasks."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from spotrl.envs.blockworld import TASKS, BlockWorld, max_row_free_singletons
from spotrl.qfunction import LinearQ

from oracles import (
    ScriptedRandom,
    block_feature_key,
    block_mask,
    longest_run,
    shortest_stack_plan_length,
    task_done,
)


def world(text, **kwargs):
    return BlockWorld.from_text(text, **kwargs)


def arranged(stacks, **kwargs):
    """A world with ``stacks`` ({cell: block ids}) placed directly, for an
    arrangement from_text refuses as a start (one that completes its task)."""
    env = BlockWorld(**kwargs)
    for cell, blocks in stacks.items():
        env.stacks[cell] = list(blocks)
    return env


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


def test_step_rejects_an_action_outside_the_id_range():
    """step reads the decoded action table, and a negative id, which would
    index it from the end, is refused like one past the end."""
    for action in (-1, -96, 96):
        env = BlockWorld()
        env.reset(0)
        with pytest.raises(ValueError, match="unknown action"):
            env.step(action)
        assert env.step_count == 0


@pytest.mark.parametrize("goal_size", [2, 3, 4])
def test_row_block_count_is_bounded_by_the_most_run_free_singletons(goal_size):
    """With the most singletons that avoid a finished row, reset still finds
    a start; one more block holds a row in every scatter (checked over all of
    them), so the world refuses it instead of rescattering forever."""
    most = max_row_free_singletons(goal_size)
    for seed in range(3):
        env = BlockWorld(task="row", goal_size=goal_size, num_blocks=most)
        env.reset(seed)
        assert env.progress() < 1.0
    lines = [[y * 4 + x for x in range(4)] for y in range(4)]
    lines += [[y * 4 + x for y in range(4)] for x in range(4)]
    windows = [set(line[i:i + goal_size]) for line in lines
               for i in range(4 - goal_size + 1)]
    assert all(any(w <= set(cells) for w in windows)
               for cells in itertools.combinations(range(16), most + 1))
    with pytest.raises(ValueError, match="at most"):
        BlockWorld(task="row", goal_size=goal_size, num_blocks=most + 1)


# -- progress metrics -------------------------------------------------------


def test_stack_progress_counts_tallest():
    env = world(TWO_STACK)
    assert env.progress() == 0.5
    env = arranged({9: [0, 1, 2, 3]})  # cell 1 2
    assert env.progress() == 1.0


def test_row_progress_counts_longest_run():
    line = "cell 0 0: 0\ncell 1 0: 1\ncell 2 0: 2\ncell 0 1: 3\ngripper: empty"
    env = world(line, task="row")
    assert env.progress() == 0.75  # the L-shape's best run is 3
    vertical = {2: [0], 6: [1], 10: [2], 14: [3]}  # column x = 2
    assert arranged(vertical, task="row").progress() == 1.0
    doubled = "cell 0 0: 0\ncell 1 0: 1 2\ncell 2 0: 3\ngripper: empty"
    assert world(doubled, task="row").progress() == 0.25  # a 2-stack breaks the run


@given(seed=st.integers(0, 2**16), steps=st.integers(0, 80),
       board=st.sampled_from([(4, 4, 4), (5, 3, 5)]))
def test_longest_run_matches_the_line_scan_oracle(seed, steps, board):
    """On random row-task walks (any action, so failures and topples too),
    the precomputed-line run equals the per-call coordinate scan, on the
    square board and on a wide one."""
    width, height, num_blocks = board
    env = BlockWorld(task="row", width=width, height=height, num_blocks=num_blocks)
    rng = random.Random(seed)
    env.reset(seed)
    for _ in range(steps):
        assert env._longest_run() == longest_run(env)
        if env.terminal:
            env.reset(rng.randrange(1 << 30))
        else:
            env.step(rng.randrange(env.n_actions))
    assert env._longest_run() == longest_run(env)


def test_clear_progress_counts_removed():
    env = BlockWorld(task="clear")
    env.reset(0)
    occupied = [c for c in range(16) if env.stacks[c]]
    _, outcome, _ = env.step(occupied[0])  # grasp banks the block directly
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
            _, outcome, _ = env.step(rng.randrange(env.n_actions))
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
    _, outcome, _ = env.step(0)  # grasp cell (0, 0)
    assert outcome.success
    assert env.gripper == 1  # the top of [0, 1]
    assert env.stacks[0] == [0]
    _, outcome, _ = env.step(2)  # grasp with a full gripper fails
    assert not outcome.success
    env2 = world(TWO_STACK)
    _, outcome, _ = env2.step(5)  # grasp an empty cell fails
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
    _, outcome, _ = env.step(16 + 0)  # place onto the 2-stack at (0, 0)
    assert outcome.success
    assert env.stacks[0] == [0, 1, 2]
    assert outcome.progress_after == 0.75

    # Topple branch: the coin comes up low.
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([0.05])
    _, outcome, _ = env.step(16 + 0)
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
    _, outcome, _ = env.step(16 + 15)  # place onto the singleton at (3, 3)
    assert env.stacks[15] == [3, 2]  # a second 2-stack: progress still 0.5
    assert not outcome.success
    env = world(TWO_STACK)
    env.step(2)
    env.rng = ScriptedRandom([])
    _, outcome, _ = env.step(16 + 5)  # place onto an empty cell: no gain
    assert not outcome.success
    assert env.stacks[5] == [2]


def test_place_without_block_fails():
    env = world(TWO_STACK)
    _, outcome, _ = env.step(16 + 5)
    assert not outcome.success
    assert env.stacks[5] == []


def test_push_topples_tall_stacks():
    env = world(TWO_STACK)
    env.rng = ScriptedRandom([])  # deterministic: tall pushes always topple
    _, outcome, _ = env.step(32 + 4 * 0 + 1)  # push the 2-stack eastward
    assert outcome.success
    assert env.stacks[0] == []
    assert max(len(s) for s in env.stacks) == 1


def test_push_moves_single_blocks():
    env = world(TWO_STACK)
    _, outcome, _ = env.step(32 + 4 * 2 + 1)  # push (2,0) east into empty (3,0)
    assert outcome.success
    assert env.stacks[2] == [] and env.stacks[3] == [2]
    _, outcome, _ = env.step(32 + 4 * 15 + 1)  # push (3,3) east: off the board
    assert not outcome.success
    assert env.stacks[15] == [3]
    _, outcome, _ = env.step(32 + 4 * 3 + 3)  # push (3,0) west into occupied? (2,0) empty now
    assert outcome.success


def test_push_failure_cases():
    env = world(TWO_STACK)
    _, outcome, _ = env.step(32 + 4 * 5)  # push an empty cell
    assert not outcome.success
    env.step(2)  # fill the gripper
    _, outcome, _ = env.step(32 + 4 * 15)  # push while holding
    assert not outcome.success
    # Push into an occupied neighbour fails.
    env = world("cell 0 0: 0\ncell 1 0: 1\ncell 2 2: 2\ncell 3 3: 3\ngripper: empty")
    _, outcome, _ = env.step(32 + 4 * 0 + 1)
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


def ring_scan_topple(stacks, width, height, rng, cell, extra=None):
    """The plain reference scatter: for each ring, nearest first, rescan
    the board for the free cells at that distance and shuffle them."""
    blocks = list(stacks[cell])
    if extra is not None:
        blocks.append(extra)
    stacks[cell] = []
    ox, oy = cell % width, cell // width
    targets = []
    ring = 1
    while len(targets) < len(blocks):
        candidates = []
        for c in range(width * height):
            x, y = c % width, c // width
            if abs(x - ox) + abs(y - oy) == ring and not stacks[c] and c not in targets:
                candidates.append(c)
        rng.shuffle(candidates)
        targets.extend(candidates)
        ring += 1
        if ring > width + height:
            raise RuntimeError("no empty cells to scatter onto")
    for block, c in zip(blocks, targets):
        stacks[c].append(block)


def test_topple_matches_the_ring_scan_reference():
    """On random boards, square or not, sparse to full, with and without a
    held block, a topple leaves the reference's stacks and rng state, and
    raises where the reference runs out of free cells."""
    raised = 0
    for seed in range(600):
        rng = random.Random(seed)
        width, height = rng.choice([(4, 4), (3, 5), (5, 2), (6, 6)])
        n = width * height
        ids = itertools.count()
        cell = rng.randrange(n)
        stacks = [[] for _ in range(n)]
        stacks[cell] = [next(ids) for _ in range(rng.randint(2, 5))]
        fill = rng.choice([0.1, 0.4, 0.7, 0.85, 1.0])
        for c in range(n):
            if c != cell and rng.random() < fill:
                stacks[c] = [next(ids) for _ in range(rng.randint(1, 3))]
        extra = next(ids) if rng.random() < 0.5 else None
        env = BlockWorld(task="clear", num_blocks=n - 1, width=width, height=height)
        env.stacks = [list(s) for s in stacks]
        env.rng = random.Random(seed)
        reference = random.Random(seed)
        try:
            ring_scan_topple(stacks, width, height, reference, cell, extra)
        except RuntimeError:
            raised += 1
            with pytest.raises(RuntimeError, match="no empty cells to scatter onto"):
                env._topple(cell, extra)
        else:
            env._topple(cell, extra)
        assert env.stacks == stacks, seed
        assert env.rng.getstate() == reference.getstate(), seed
    assert 0 < raised < 300


def test_a_full_board_is_refused_and_one_free_cell_always_scatters():
    """A toppled stack scatters onto free cells, so 16 blocks on the 4x4
    board are refused for every task; with 15, a toppled stack of k always
    finds its k free cells (k + 1 with a held block), so no walk raises."""
    for task in TASKS:
        with pytest.raises(ValueError, match="num_blocks must be from 1 to 15"):
            BlockWorld(task=task, num_blocks=16)
    for seed in range(4):
        env = BlockWorld(task="stack", num_blocks=15)
        rng = random.Random(seed)
        state = env.reset(rng.randrange(2 ** 31))
        for _ in range(2000):
            allowed = [a for a, ok in enumerate(env.mask_for(state)) if ok]
            state, _, _ = env.step(rng.choice(allowed))
            if env.terminal:
                state = env.reset(rng.randrange(2 ** 31))


# -- termination ------------------------------------------------------------


def test_action_limits_by_task():
    assert BlockWorld(task="stack").action_limit == 50
    assert BlockWorld(task="row").action_limit == 50
    assert BlockWorld(task="clear").action_limit == 30
    assert BlockWorld(action_limit=7).action_limit == 7


def test_limit_terminates_incomplete():
    env = world(TWO_STACK, action_limit=2)
    env.step(5)  # failed grasps still consume the budget
    _, outcome, _ = env.step(5)
    assert outcome.terminal and not outcome.task_complete
    with pytest.raises(RuntimeError):
        env.step(0)


def test_completion_terminates():
    env = world("cell 1 1: 0 1 2\ncell 2 1: 3\ngripper: empty")
    env.step(6)  # grasp (2, 1)
    env.rng = ScriptedRandom([0.9])  # survive the place onto height 3
    _, outcome, _ = env.step(16 + 5)
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
    mask = env.mask_for(env.state())
    occupied = {0, 2, 15}
    for c in range(16):
        assert mask[c] == (c in occupied)  # grasp
        assert mask[16 + c] is False  # place with an empty gripper
    for a in range(32, 96):
        cell = (a - 32) // 4
        assert mask[a] == (cell in occupied)  # push
    env.step(0)  # now holding a block
    mask = env.mask_for(env.state())
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
            _, outcome, _ = probe.step(action)
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
            _, outcome, _ = env.step(action)
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


def test_from_text_rejects_an_off_board_cell():
    with pytest.raises(ValueError, match="off the 4x4 board"):
        world("cell 9 9: 0\ngripper: empty")


def test_from_text_rejects_a_negative_cell():
    """A negative coordinate would otherwise index a cell from the far end."""
    with pytest.raises(ValueError, match="off the 4x4 board"):
        world("cell -1 0: 0\ngripper: empty")


def test_from_text_rejects_a_cell_named_twice():
    """The second line would overwrite the first, losing its blocks."""
    with pytest.raises(ValueError, match="named twice"):
        world("cell 0 0: 0\ncell 0 0: 1\ngripper: empty")


def test_from_text_rejects_repeated_or_unknown_block_ids():
    for text in ("cell 0 0: 0 0\ngripper: empty",
                 "cell 0 0: 0\ngripper: 0",
                 "cell 0 0: 0\ncell 1 0: 0\ngripper: empty",
                 "cell 0 0: 7\ngripper: empty"):
        with pytest.raises(ValueError, match="distinct and below 4"):
            world(text)


def test_from_text_rejects_a_start_that_completes_the_task():
    """A seeded reset never starts on a finished task, so a parsed start may
    not either: a 4-stack for stack, a full run for row, no blocks left on
    the board for clear. One short of done still parses."""
    done = {"stack": "cell 0 0: 0 1 2 3\ngripper: empty",
            "row": "cell 0 1: 0\ncell 1 1: 1\ncell 2 1: 2\ncell 3 1: 3\ngripper: empty",
            "clear": "gripper: empty"}
    for task, text in done.items():
        with pytest.raises(ValueError, match="completes"):
            world(text, task=task)
    assert world("cell 0 0: 0 1 2\ngripper: 3").progress() == 0.75
    assert world("cell 0 0: 0\ngripper: empty", task="clear").progress() == 0.75


def test_from_text_rejects_a_start_with_too_few_blocks():
    """A stack or row start needs goal_size blocks on the board or held;
    with fewer no trial could complete it (with none, every action is
    masked). Clear counts unnamed blocks as banked progress instead."""
    for task in ("stack", "row"):
        for text in ("cell 0 0: 0 1\ngripper: empty", "cell 0 0: 0\ncell 2 2: 1\ngripper: 2",
                     "gripper: 2", "gripper: empty"):
            with pytest.raises(ValueError, match=f"{task} task needs 4 blocks"):
                world(text, task=task)
    assert world("cell 0 0: 0\ngripper: 1", goal_size=2).progress() == 0.5
    assert world("cell 0 0: 0 1\ngripper: empty", task="clear").progress() == 0.5


def test_from_text_world_replays_its_start_on_every_reset():
    """Stacks, gripper and banked blocks all come back on every reset,
    whatever the seed, and so does the ideal action count."""
    env = world("cell 0 0: 0 1\ngripper: 2", task="clear")
    text, state = env.to_text(), env.state()
    assert env.removed == {3}
    for seed in (0, 1, 7, 12345):
        env.step(16 + 5)  # place the held block on cell (1, 1)
        env.step(0)  # bank block 1
        assert env.removed == {1, 3}
        assert env.reset(seed) == state
        assert env.to_text() == text and env.removed == {3}
        assert env.ideal_actions() == 4


def test_from_text_world_reseeds_its_topple_draws():
    """Resets with the same seed give the same topple draws; other seeds
    topple or scatter differently."""
    env = world("cell 1 1: 0 1 2\ngripper: 3", topple_base=0.5)

    def after_place(seed):
        env.reset(seed)
        env.step(16 + 5)  # place on the 3-stack: a coin flip topples it
        return env.to_text()

    first = {seed: after_place(seed) for seed in range(20)}
    assert {seed: after_place(seed) for seed in range(20)} == first
    assert len(set(first.values())) > 2


# -- features ---------------------------------------------------------------


def test_feature_key_collapses_interchangeable_cells():
    """Grasping a lone block gives the same feature id wherever the block
    sits; the feature distinguishes what matters (relation to the tallest
    stack, direction, gripper) rather than the cell identity."""
    env = BlockWorld()
    a = ((0, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0)), 0)
    b = ((0, (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0)), 2)
    assert env.feature_ids(a[0])[a[1]] == env.feature_ids(b[0])[b[1]]

    tall = (0, (2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert env.feature_ids(tall)[0] != env.feature_ids(tall)[1]  # max vs below
    tied = (0, (2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert env.feature_ids(tied)[0] != env.feature_ids(tall)[0]  # tied vs lone
    held = (1, tall[1])
    assert env.feature_ids(held)[16] != env.feature_ids(tall)[16]
    assert env.feature_ids(tall)[32] != env.feature_ids(tall)[33]  # direction
    # The same key keeps its id across signatures: an empty target below a
    # tallest stack of 2 reads the same whether that stack is lone or tied.
    assert env.feature_ids(tall)[3] == env.feature_ids(tied)[3]
    assert env.feature_keys[env.feature_ids(tall)[3]] == ("grasp", 0, 2, 0, "empty", -1)


def walk_states(task, seed, steps, text=None):
    """States met on a seeded random walk over allowed actions; a finished
    trial resets to a fresh layout (to ``text``'s arrangement, when the
    world is built from it)."""
    env = BlockWorld(task=task) if text is None else world(text, task=task)
    rng = random.Random(seed)
    state = env.reset(seed)
    states = [state]
    for _ in range(steps):
        if env.terminal:
            state = env.reset(rng.randrange(1 << 30))
        else:
            allowed = [a for a, ok in enumerate(env.mask_for(state)) if ok]
            state, _, _ = env.step(rng.choice(allowed))
        states.append(state)
    return env, states


@pytest.mark.parametrize("task", TASKS)
def test_step_computes_progress_at_most_twice(task):
    """One progress() before the action and one after it, which a place's
    success check reuses, on a random walk over allowed actions."""
    env = BlockWorld(task=task)
    calls = []
    progress = env.progress

    def counting_progress():
        calls.append(None)
        return progress()

    env.progress = counting_progress
    rng = random.Random(5)
    state = env.reset(5)
    places = 0
    for _ in range(2000):
        if env.terminal:
            state = env.reset(rng.randrange(1 << 30))
        action = rng.choice([a for a, ok in enumerate(env.mask_for(state)) if ok])
        places += env.action_types[action] == "place"
        calls.clear()
        state, _, _ = env.step(action)
        assert len(calls) <= 2
    assert places or task == "clear"  # clearing banks grasped blocks


def feature_cases(states):
    """(held, target relation) pairs the states' features exercise."""
    env = BlockWorld()
    return {(held, env.feature_keys[i][4]) for held, heights in states
            for i in env.feature_ids((held, heights))}


WALKS = dict(task=st.sampled_from(TASKS), seed=st.integers(0, 2**16),
             steps=st.integers(0, 60))


def keys_of(env, state):
    """Every action's feature key at ``state``, through the env's ids, in the
    oracle's one-key tuple shape."""
    return [(env.feature_keys[i],) for i in env.feature_ids(state)]


@given(**WALKS)
def test_features_match_the_per_action_oracle(task, seed, steps):
    """The per-state feature ids name, through feature_keys, exactly the key
    the one-action-at-a-time derivation gives every action."""
    env, states = walk_states(task, seed, steps)
    for state in states:
        assert keys_of(env, state) == [block_feature_key(state, a, env.n_cells)
                                       for a in range(env.n_actions)]


@given(**WALKS)
def test_mask_matches_the_per_action_oracle(task, seed, steps):
    """mask_for gives every action the bool the action-by-action derivation
    gives it, on held and free states; an equal state gets the identical
    row, which cannot be changed."""
    env, states = walk_states(task, seed, steps)
    for held, heights in states:
        mask = env.mask_for((held, heights))
        assert list(mask) == block_mask((held, heights), env.n_cells)
        assert all(type(ok) is bool for ok in mask)
        assert env.mask_for((held, tuple(list(heights)))) is mask
        with pytest.raises(TypeError):
            mask[0] = None


def test_mask_memo_is_exact_and_shared(monkeypatch):
    """Walks on every task, from scattered and from_text starts, through
    topples and resets: each visited state read twice gives the per-action
    oracle's mask both times, as the same immutable row, and equal rows are
    one interned tuple, so every holding state shares a single row."""
    calls = {"_topple": 0, "reset": 0}
    for name in calls:
        def counted(*args, _method=getattr(BlockWorld, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(BlockWorld, name, counted)
    for task, text, seed in itertools.product(TASKS, (None, TWO_STACK), range(4)):
        env, states = walk_states(task, seed, 80, text)
        for state in states:
            expected = block_mask(state, env.n_cells)
            first = env.mask_for(state)
            assert list(first) == expected
            with pytest.raises(TypeError):
                first[0] = not first[0]
            assert env.mask_for(state) is first
        rows = list(env._masks.values())
        assert len({id(row) for row in rows}) == len(set(rows))
        held_rows = {id(env._masks[s]) for s in states if s[0]}
        assert len(held_rows) == (task != "clear")
    assert calls["_topple"] and calls["reset"] > len(TASKS) * 2 * 4


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("text", [None, TWO_STACK], ids=["scattered", "from_text"])
def test_equal_states_are_one_object(task, text):
    """Along a seeded walk over every action, disallowed ones too (a failed
    action returns an equal state), reset, step and state return one object
    for all equal states, from scattered and from_text starts alike."""
    env = BlockWorld(task=task) if text is None else world(text, task=task)
    rng = random.Random(5)
    seen = {}
    state = env.reset(0)
    for _ in range(2_000):
        assert seen.setdefault(state, state) is state
        assert env.state() is state
        if env.terminal:
            state = env.reset(rng.randrange(1 << 30))
        else:
            state, _, _ = env.step(rng.randrange(env.n_actions))
    assert len(seen) < 1_000  # so most states came back, as the same object


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
    q = LinearQ(env)
    for state in states:
        action = data.draw(st.integers(0, env.n_actions - 1))
        q.update(state, action, data.draw(st.floats(-4, 4)), data.draw(st.floats(0, 1)))
    for i in data.draw(st.lists(st.sampled_from(env.feature_ids(states[-1])), max_size=5)):
        q.load_records([(repr(env.feature_keys[i]), -1, -0.0)])
    for state in states:
        assert [repr(v) for v in q.row(state)] == \
            [repr(q.value(state, a)) for a in range(env.n_actions)]


@given(**WALKS)
def test_feature_tables_stay_small_and_rows_immutable(task, seed, steps):
    """The shared id tables hold one entry per (held, tallest height,
    tallest is unique) signature met; each key keeps one id across
    signatures and calls; and each call returns an immutable row, equal
    for equal states, that the per-action oracle's keys name."""
    env, states = walk_states(task, seed, steps)
    first_ids = {}
    for state in states:
        ids = env.feature_ids(state)
        for i in ids:
            assert first_ids.setdefault(env.feature_keys[i], i) == i
        with pytest.raises(TypeError):
            ids[0] = -1
        assert env.feature_ids((state[0], tuple(list(state[1])))) == ids
        assert keys_of(env, state) == [block_feature_key(state, a, env.n_cells)
                                       for a in range(env.n_actions)]
        assert len(env._feature_tables) <= 2 * (env.num_blocks + 1) * 2
    assert len(set(env.feature_keys)) == len(env.feature_keys)
