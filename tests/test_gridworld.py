"""Lava-crossing grid world: layouts, wavefront progress, masking, dynamics."""

import random

import pytest

from spotrl.envs.gridworld import (
    ACTION_TYPES,
    FORWARD,
    GAP_ROWS,
    LAVA_COLUMNS,
    TURN_LEFT,
    TURN_RIGHT,
    GenerationError,
    GridWorld,
)

from spotrl.qfunction import TabularQ, dump_qfunction, parse_qdump
from spotrl.rewards import RewardConfig
from spotrl.trainer import AgentConfig, run_training

from oracles import cell_distance_field, grid_mask, pose_graph_shortest

OPEN_9X9 = "\n".join(
    ["#" * 11]
    + ["#>" + "." * 8 + "#"]
    + ["#" + "." * 9 + "#" for _ in range(7)]
    + ["#" + "." * 8 + "G#"]
    + ["#" * 11]
)

SMALL = """
#####
#>.G#
#...#
#####
"""


def values_of(q, state):
    """Every action's value at ``state``, one ``value`` read each."""
    return [q.value(state, a) for a in range(q.n_actions)]


# -- layout generation ------------------------------------------------------


def test_generate_is_deterministic():
    a, b = GridWorld.generate(7), GridWorld.generate(7)
    assert a.to_text() == b.to_text()
    assert a.state() == b.state()


def test_every_seed_yields_a_solvable_layout():
    """1000 consecutive seeds all generate layouts where the goal is
    reachable from the start (checked by the independent distance oracle)."""
    for seed in range(1000):
        g = GridWorld.generate(seed)
        assert g.start in cell_distance_field(g)


def test_seeds_vary_the_gap_positions():
    layouts = {GridWorld.generate(seed).state()[3] for seed in range(10)}
    assert len(layouts) >= 2


def test_layout_structure():
    """Bordered 9x9 grid, two full-height lava columns with one gap each."""
    g = GridWorld.generate(3)
    for x in range(9):
        assert g.cell(x, 0) == "#" and g.cell(x, 8) == "#"
    for y in range(9):
        assert g.cell(0, y) == "#" and g.cell(8, y) == "#"
    assert g.cell(*g.goal) == "G" and g.goal == (7, 7)
    assert g.start == (1, 1)
    walls, lavas = g.state()[3]
    assert walls == ()
    assert len(lavas) == 12  # 2 columns x (7 interior rows - 1 gap)
    for col in LAVA_COLUMNS:
        gaps = [y for y in range(1, 8) if (col, y) not in lavas]
        assert len(gaps) == 1 and gaps[0] in GAP_ROWS


def test_reset_draws_one_gap_row_per_lava_column():
    """reset(seed) draws exactly one rng.choice(GAP_ROWS) per lava column, in
    column order, from random.Random(seed): the lava cells show those gaps."""
    g = GridWorld()
    for seed in range(200):
        g.reset(seed)
        rng = random.Random(seed)
        expected = [rng.choice(GAP_ROWS) for _ in LAVA_COLUMNS]
        gaps = [[y for y in range(1, 8) if g.cell(col, y) != "L"] for col in LAVA_COLUMNS]
        assert gaps == [[y] for y in expected]


def test_a_long_lived_env_matches_fresh_envs():
    """Resetting one env through seeds 0-199 in shuffled order gives, seed
    for seed, what a fresh env gives: the same state, grid, distance field
    and ideal action count, the latter equal to the pose-graph oracle."""
    seeds = list(range(200))
    random.Random(11).shuffle(seeds)
    g = GridWorld()
    for seed in seeds:
        state = g.reset(seed)
        fresh = GridWorld.generate(seed)
        assert state == fresh.state()
        assert g.to_text() == fresh.to_text()
        assert g.distance_field() == fresh.distance_field()
        assert g.ideal_actions() == fresh.ideal_actions() == pose_graph_shortest(fresh)


def test_a_layout_drawn_again_shares_its_layout_key():
    """Two seeds that draw the same gap rows give states whose layout keys
    are one object, so Q-table lookups compare them by identity."""
    g = GridWorld()
    first = {}
    for seed in range(50):
        key = g.reset(seed)[3]
        lavas = key[1]
        gaps = tuple(y for col in LAVA_COLUMNS for y in range(1, 8) if (col, y) not in lavas)
        if gaps in first:
            assert key is first[gaps]
            assert g.reset(seed)[3] is key
        first.setdefault(gaps, key)
    assert len(first) == len(GAP_ROWS) ** len(LAVA_COLUMNS)


def test_layout_keys_hash_and_print_as_plain_tuples():
    """A layout key hashes, compares and prints as the plain tuple it holds,
    so a Q-table reloaded from a dump, whose keys are plain tuples, reads
    the live env's states exactly as the table that wrote them."""
    g = GridWorld()
    rng = random.Random(0)
    q = TabularQ(3)
    states = []
    for seed in range(20):
        state = g.reset(seed)
        plain = tuple(state[3])
        assert type(plain) is tuple
        assert hash(state[3]) == hash(plain)
        assert state[3] == plain and plain == state[3]
        assert repr(state[3]) == repr(plain)
        assert hash(state) == hash(state[:3] + (plain,))
        for _ in range(10):
            if g.terminal:
                break
            states.append(state)
            action = rng.choice([a for a, ok in enumerate(g.mask_for(state)) if ok])
            q.update(state, action, rng.uniform(-1, 1), 0.5)
            state, _, _ = g.step(action)
    _, rows = parse_qdump(dump_qfunction(q, {}))
    restored = TabularQ(3)
    restored.load_records(rows)
    for state in states:
        assert repr(values_of(restored, state)) == repr(values_of(q, state))


@pytest.mark.parametrize("text", [None, OPEN_9X9, SMALL], ids=["generated", "open", "small"])
def test_equal_states_are_one_object(text):
    """Along a seeded walk over every action, blocked and fatal ones too,
    reset, step and state return one object for all equal states, from
    generated and from_text starts alike."""
    g = GridWorld() if text is None else GridWorld.from_text(text)
    rng = random.Random(11)
    seen = {}
    state = g.state() if text else g.reset(0)
    for _ in range(3_000):
        assert seen.setdefault(state, state) is state
        assert g.state() is state
        if g.terminal:
            state = g.reset(rng.randrange(1 << 30))
        else:
            state, _, _ = g.step(rng.randrange(3))
    assert len(seen) < 1_000  # so most states came back, as the same object


def test_a_reloaded_qtable_reads_the_interned_states(tmp_path):
    """A dumped and reloaded table, whose keys are plain tuples, reads at
    every state the training env interned the values the trained table
    holds, and names the same ties."""
    env = GridWorld()
    cfg = AgentConfig(reward=RewardConfig(weights=dict.fromkeys(ACTION_TYPES, 1.0),
                                          reward_kind="progress", learn_discount=0.9),
                      seed=1, training_action_budget=3_000, use_mask=True,
                      validation_every=0)
    q, _, _ = run_training(lambda: env, cfg)
    path = tmp_path / "qtable.txt"
    path.write_text(dump_qfunction(q, {}))
    _, rows = parse_qdump(path.read_text())
    restored = TabularQ(3)
    restored.load_records(rows)
    assert {type(key[3]) for key in restored._table} == {tuple}
    assert len(q._table) > 100
    for state in q._table:
        assert env._states[state] is state
        assert repr(values_of(restored, state)) == repr(values_of(q, state))
        assert restored.ties(state) == q.ties(state)


def test_reset_without_seed_surveys_the_current_cells():
    """from_text computes the distance field, layout key and ideal action
    count from the cells it parsed."""
    open_grid = GridWorld.from_text(OPEN_9X9)
    assert open_grid.ideal_actions() == pose_graph_shortest(open_grid) == 17  # 16 moves, 1 turn
    g = GridWorld.from_text(OPEN_9X9.replace("#>.", "#>L"))  # lava ahead of the start
    state = g.reset()
    assert state[3] == ((), ((2, 1),))
    assert g.distance_field() == cell_distance_field(g)
    assert g.ideal_actions() == pose_graph_shortest(g) == 18  # one more turn


# -- wavefront and progress -------------------------------------------------


def test_wavefront_matches_distance_oracle():
    """The env's BFS distance field equals an independent Dijkstra solve,
    cell for cell, on 100 generated layouts."""
    for seed in range(100):
        g = GridWorld.generate(seed)
        assert g.distance_field() == cell_distance_field(g)


def test_open_grid_corner_to_corner_distance():
    """On an obstacle-free 9x9 area the corner-to-corner distance is the
    Manhattan distance 16, and a cell 8 steps out sits at progress 0.5."""
    g = GridWorld.from_text(OPEN_9X9)
    field = g.distance_field()
    assert field[g.start] == 16
    assert field[(9, 1)] == 8
    assert g.progress_at(9, 1) == 0.5
    assert g.progress_at(*g.start) == 0.0
    assert g.progress_at(*g.goal) == 1.0


def test_progress_clamps_behind_the_start():
    """Cells farther from the goal than the start read progress 0, not a
    negative value."""
    g = GridWorld.from_text(SMALL)
    field = g.distance_field()
    assert field[g.start] == 2 and field[(1, 2)] == 3
    assert g.progress_at(1, 2) == 0.0


def test_ideal_actions_matches_pose_oracle():
    """Fewest move/turn actions to the goal equals an independent Dijkstra
    over the pose graph, on 100 generated layouts."""
    for seed in range(100):
        g = GridWorld.generate(seed)
        assert g.ideal_actions() == pose_graph_shortest(g)


# -- dynamics ---------------------------------------------------------------


def test_forward_moves_and_reports_success():
    g = GridWorld.from_text(SMALL)
    state, outcome, event = g.step(FORWARD)
    assert (g.agent_x, g.agent_y) == (2, 1)
    assert state[:3] == (2, 1, "E")
    assert outcome.success and not outcome.terminal and event is None
    assert outcome.progress_after == 0.5


def test_turns_change_heading_only():
    g = GridWorld.from_text(SMALL)
    _, outcome, _ = g.step(TURN_LEFT)
    assert g.heading == "N" and not outcome.success
    assert outcome.progress_before == outcome.progress_after
    g.step(TURN_RIGHT)
    assert g.heading == "E"
    assert g.consecutive_turns == 2
    g.step(FORWARD)
    assert g.consecutive_turns == 0


def test_forward_into_wall_is_a_noop():
    g = GridWorld.from_text(SMALL)
    g.step(TURN_LEFT)  # face the top border
    _, outcome, event = g.step(FORWARD)
    assert (g.agent_x, g.agent_y) == (1, 1)
    assert not outcome.success and event is None and not outcome.terminal


def test_forward_into_goal_completes():
    g = GridWorld.from_text(SMALL)
    g.step(FORWARD)
    state, outcome, event = g.step(FORWARD)
    assert event == "goal"
    assert outcome.terminal and outcome.task_complete
    assert outcome.progress_after == 1.0
    with pytest.raises(RuntimeError):
        g.step(FORWARD)


def test_forward_into_lava_kills_with_pinned_progress():
    """Unmasked lava entry terminates without completion; progress_after
    stays at the pre-step value (no distance exists on a lava cell) and
    the built-in sparse reward stays 0."""
    g = GridWorld.from_text("""
#####
#>LG#
#...#
#####
""")
    state, outcome, event = g.step(FORWARD)
    assert event == "lava"
    assert outcome.terminal and not outcome.task_complete
    assert not outcome.success
    assert outcome.progress_after == outcome.progress_before
    assert g.instant_reward_override(outcome, "base") == 0.0


def test_action_limit_terminates():
    g = GridWorld.from_text(SMALL, action_limit=3)
    g.step(TURN_LEFT)
    g.step(TURN_RIGHT)
    _, outcome, event = g.step(TURN_LEFT)
    assert event == "limit"
    assert outcome.terminal and not outcome.task_complete


def test_unknown_action_rejected():
    g = GridWorld.from_text(SMALL)
    with pytest.raises(ValueError):
        g.step(7)


# -- situation-removal trigger and reward override --------------------------


def test_situation_removal_check():
    g = GridWorld.from_text(SMALL)
    assert g.situation_removal_check(0.5, 0.25) is True  # progress lost
    assert g.situation_removal_check(0.25, 0.5) is False
    g.step(TURN_LEFT)
    g.step(TURN_LEFT)
    assert g.situation_removal_check(0.0, 0.0) is False  # two turns: fine
    g.step(TURN_LEFT)
    assert g.situation_removal_check(0.0, 0.0) is True  # spinning in place


def test_builtin_reward_override_kinds():
    """The env's own sparse goal reward replaces the shaped family for the
    plain and discounted kinds only."""
    g = GridWorld.from_text(SMALL)
    g.step(FORWARD)
    _, outcome, _ = g.step(FORWARD)  # reaches the goal
    assert g.instant_reward_override(outcome, "base") == 1.0
    assert g.instant_reward_override(outcome, "discounted") == 1.0
    for kind in ("sr", "progress", "trial_sr", "trial_progress"):
        assert g.instant_reward_override(outcome, kind) is None


# -- masking ----------------------------------------------------------------


def test_mask_blocks_walls_and_lava_only():
    g = GridWorld.from_text("""
#####
#>LG#
#...#
#####
""")
    lava_ahead = g.mask_for(g.state())
    assert list(lava_ahead) == [False, True, True]  # lava dead ahead
    g.step(TURN_RIGHT)  # face south: empty cell
    assert list(g.mask_for(g.state())) == [True, True, True]
    g.step(TURN_RIGHT)  # face west: border wall
    assert list(g.mask_for(g.state())) == [False, True, True]
    assert g.mask_for(g.state()) is lava_ahead  # every blocked pose shares one row


def _one_env_per_layout():
    """One env per layout: the four generated layouts and a from_text grid
    with interior walls and lava."""
    envs = {}
    for seed in range(50):
        g = GridWorld.generate(seed)
        envs.setdefault(g.state()[3], g)
    assert len(envs) == len(GAP_ROWS) ** len(LAVA_COLUMNS)
    walled = GridWorld.from_text("""
#########
#>..#...#
#.#.....#
#..L#..G#
#########
""")
    assert all(walled.state()[3])  # interior walls and lava present
    return list(envs.values()) + [walled]


def test_mask_matches_the_per_pose_oracle():
    """mask_for equals the oracle on every pose of every layout, both on the
    env that drew the layout and on a fresh env that has drawn none (as a
    replayed state from another layout would be masked). Equal states get
    the identical row, which cannot be changed."""
    for g in _one_env_per_layout():
        key = g.state()[3]
        stranger = GridWorld(width=g.width, height=g.height)
        for y in range(g.height):
            for x in range(g.width):
                for heading in "NESW":
                    state = (x, y, heading, key)
                    expected = grid_mask(state, g.width, g.height)
                    assert list(g.mask_for(state)) == expected, state
                    assert list(stranger.mask_for(state)) == expected, state
                    assert g.mask_for((x, y, heading, key)) is g.mask_for(state)
    mask = g.mask_for((1, 1, "E", key))
    with pytest.raises(TypeError):
        mask[0] = not mask[0]


def test_mask_is_a_pure_function_of_the_state():
    """mask_for agrees with the grid content ahead of the pose for every
    passable pose on 20 layouts — and querying it never moves the agent."""
    deltas = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
    for seed in range(20):
        g = GridWorld.generate(seed)
        walls, lavas = g.state()[3]
        for y in range(1, 8):
            for x in range(1, 8):
                if not g.passable(x, y):
                    continue
                for heading in "NESW":
                    mask = g.mask_for((x, y, heading, (walls, lavas)))
                    dx, dy = deltas[heading]
                    ahead = g.cell(x + dx, y + dy)
                    assert list(mask) == [ahead in (".", "G"), True, True]


def test_masked_random_walk_never_enters_lava():
    """Following any policy that respects the mask, lava death is
    impossible: random masked walks over 30 seeds never see a lava event."""
    for seed in range(30):
        g = GridWorld.generate(seed)
        rng = random.Random(seed)
        while True:
            allowed = [a for a, ok in enumerate(g.mask_for(g.state())) if ok]
            _, outcome, event = g.step(rng.choice(allowed))
            assert event != "lava"
            assert g.cell(g.agent_x, g.agent_y) != "L"
            if outcome.terminal:
                assert event in ("goal", "limit")
                break


# -- serialization ----------------------------------------------------------


def test_text_round_trip():
    g = GridWorld.generate(5)
    g.step(TURN_LEFT)  # non-default heading must survive the round trip
    text = g.to_text()
    h = GridWorld.from_text(text)
    assert h.to_text() == text
    assert h.state() == g.state()
    assert h.distance_field() == g.distance_field()


def test_reset_without_layout_fails():
    with pytest.raises(GenerationError):
        GridWorld().reset()


@pytest.mark.parametrize("kwargs", [{"start": (3, 2)}, {"goal": (0, 0)}])
def test_reset_fails_when_no_gap_draw_is_solvable(kwargs):
    """A start on a lava column or a goal on a wall leaves every gap draw
    unsolvable: reset raises once it has surveyed them all, not redraws
    forever."""
    with pytest.raises(GenerationError, match="no gap draw"):
        GridWorld(**kwargs).reset(0)


@pytest.mark.parametrize("kwargs", [{"start": (7, 7)}, {"goal": (1, 1)}])
def test_a_start_on_the_goal_is_refused(kwargs):
    """A start on the goal leaves no distance to cover (progress would
    divide by zero on the first step), so the env refuses it when it is
    built, also from a training run's factory."""
    with pytest.raises(ValueError):
        GridWorld(**kwargs)
    cfg = AgentConfig(reward=RewardConfig(weights=dict.fromkeys(ACTION_TYPES, 1.0),
                                          reward_kind="progress"),
                      training_action_budget=10, validation_every=0)
    with pytest.raises(ValueError):
        run_training(lambda: GridWorld(**kwargs), cfg)


@pytest.mark.parametrize("kwargs, match", [
    ({"width": 5, "height": 5, "goal": (3, 3)}, "border"),
    ({"width": 6, "height": 9, "goal": (4, 7)}, "border"),
    ({"width": 9, "height": 6, "goal": (7, 4)}, "border"),
    ({"goal": (9, 4)}, "off the 9x9 board"),
    ({"goal": (4, -1)}, "off the 9x9 board"),
    ({"start": (1, 9)}, "off the 9x9 board"),
])
def test_a_seeded_reset_refuses_a_layout_the_board_cannot_hold(kwargs, match):
    """A lava column or gap row on or past the border would index off the
    board or lay lava on the border itself, and a start or goal off the
    board has no cell (a negative index would wrap to the far border), so a
    seeded reset refuses them. An env that never draws a layout may be any
    size, and a board parsed from text draws none."""
    with pytest.raises(GenerationError, match=match):
        GridWorld(**kwargs).reset(1)
    assert GridWorld.from_text(SMALL).reset(1) == (1, 1, "E", ((), ()))


def test_reset_reuses_layout_without_seed():
    g = GridWorld.generate(4)
    layout = g.state()[3]
    g.step(FORWARD)
    state = g.reset()
    assert state[:3] == (1, 1, "E")
    assert state[3] == layout


def test_from_text_grid_replays_its_start_on_every_reset():
    """A grid built from text restores its start on every seeded reset: the
    glyph's cell facing east (the glyph's own heading holds only until the
    first reset), the parsed layout and its ideal action count."""
    g = GridWorld.from_text("""
#########
#.......#
#.^.L...#
#...L..G#
#########
""")
    assert g.heading == "N"
    key = g.state()[3]
    ideal = g.ideal_actions()
    assert ideal == pose_graph_shortest(g)
    for seed in (0, 1, 7, 12345):
        g.step(FORWARD)
        assert g.reset(seed) == (2, 2, "E", key)
        assert g.ideal_actions() == ideal
        assert g.distance_field() == cell_distance_field(g)


def test_from_text_rejects_grids_without_a_full_border():
    """Without a '#' border a step or the goal search would index off the
    grid (or wrap to the far side on a negative index)."""
    for text in (">.G", "####\n#>.G\n####", "#.##\n#>G#\n####",
                 "####\n#>G#\n#.##", "####\n>.G#\n####", ""):
        with pytest.raises(ValueError):
            GridWorld.from_text(text)


def test_from_text_rejects_bad_grids():
    with pytest.raises(ValueError):
        GridWorld.from_text("####\n#.G#\n####")  # no agent glyph
    with pytest.raises(ValueError):
        GridWorld.from_text("####\n#>.#\n####")  # no goal
    with pytest.raises(ValueError):
        GridWorld.from_text("####\n#>G\n####")  # ragged
    with pytest.raises(ValueError):
        GridWorld.from_text("####\n#>?#\n####")  # unknown cell character
    # A second agent glyph or goal would otherwise win silently, moving the
    # start or the goal and dropping the first from to_text().
    for text in ("#####\n#>>G#\n#G..#\n#####", "#####\n#>^G#\n#...#\n#####",
                 "#####\n#>.G#\n#G..#\n#####"):
        with pytest.raises(ValueError, match="more than one"):
            GridWorld.from_text(text)


def test_from_text_rejects_a_goal_the_start_cannot_reach():
    """A grid whose goal is walled off from the start has no ideal count, so
    it is refused rather than replayed as an unsolvable layout."""
    with pytest.raises(GenerationError, match="unreachable"):
        GridWorld.from_text("#######\n#>.#..#\n#..#.G#\n#######\n")
