"""Abstract tabletop: grasp/push/place block manipulation on a small grid.

Blocks live in per-cell stacks on a 4x4 board. Three tasks share the same
dynamics and differ only in the progress metric: build a stack of K, build
a row of K single blocks, or clear every block off the table (grasping
banks the block directly). Placing onto a tall stack risks toppling it —
the whole stack scatters to nearby empty cells — and pushing a stack of
two or more topples it outright, so progress can reverse. The action mask
rules out these certain failures: grasping or pushing at an empty cell,
grasping or pushing with a full gripper, and placing with an empty one. It
allows two that always fail: pushing a lone block off the board or onto an
occupied cell.
"""
from __future__ import annotations

import random
from itertools import groupby
from operator import getitem, itemgetter
from typing import Optional

from ..rewards import StepOutcome

GRASP, PLACE, PUSH = "grasp", "place", "push"
DIRECTIONS = ((0, -1), (1, 0), (0, 1), (-1, 0))  # N, E, S, W

TASKS = ("stack", "row", "clear")
BOARD_SIDE = 4

BlockState = tuple  # (held flag, per-cell heights)


def check_settings(task: str, goal_size: int, num_blocks: int,
                   width: int = BOARD_SIDE, height: int = BOARD_SIDE) -> None:
    """Raise ValueError for settings whose every trial is unrunnable or
    unwinnable: an unknown task, no blocks, a full board (at most
    ``width * height - 1`` blocks leave every toppled stack enough free
    cells to scatter onto), a stack or row goal outside 2..num_blocks (a
    goal of 1 holds at every start, so reset never ends), a row longer than
    the board's longest line, or more row-task blocks than
    ``max_row_free_singletons`` (every scatter would already hold the row,
    so reset never ends)."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r} (expected one of {TASKS})")
    if not 1 <= num_blocks < width * height:
        raise ValueError(f"num_blocks must be from 1 to {width * height - 1}, one fewer than "
                         f"the {width}x{height} board's cells (a topple scatters onto free "
                         f"cells), not {num_blocks}")
    if task == "clear":
        return
    if not 2 <= goal_size <= num_blocks:
        raise ValueError(f"the {task} task needs a goal_size from 2 to {num_blocks}, "
                         f"not {goal_size}")
    if task == "row":
        if goal_size > max(width, height):
            raise ValueError(f"a row of {goal_size} does not fit on the {width}x{height} board")
        most = max_row_free_singletons(goal_size, width, height)
        if num_blocks > most:
            raise ValueError(f"the row task with goal_size {goal_size} can scatter at most "
                             f"{most} blocks without a finished row, not {num_blocks}")


def max_row_free_singletons(goal_size: int, width: int = BOARD_SIDE,
                            height: int = BOARD_SIDE) -> int:
    """How many singletons fit with no run of ``goal_size`` along a row or
    column: every cell but those with ``(x + y) % goal_size == goal_size - 1``
    (each window of ``goal_size`` consecutive cells meets one of those). That
    is the most for goal sizes 2-4 on the 4x4 board (8, 11 and 12)."""
    return sum((x + y) % goal_size != goal_size - 1
               for x in range(width) for y in range(height))


class BlockWorld:
    """Single-owner, seedable block-manipulation environment."""

    def __init__(
        self,
        task: str = "stack",
        goal_size: int = 4,
        num_blocks: int = 4,
        width: int = BOARD_SIDE,
        height: int = BOARD_SIDE,
        topple_base: float = 0.1,
        action_limit: Optional[int] = None,
    ):
        check_settings(task, goal_size, num_blocks, width, height)
        self.task = task
        self.goal_size = goal_size
        self.num_blocks = num_blocks
        self.width = width
        self.height = height
        self.topple_base = topple_base
        if action_limit is None:
            action_limit = 30 if task == "clear" else 50
        self.action_limit = action_limit

        self.n_cells = n = width * height
        # (type, cell, direction) per action id, direction -1 for non-pushes:
        # grasps, then places, then pushes by cell and direction.
        self._decoded = tuple(
            [(GRASP, c, -1) for c in range(n)] + [(PLACE, c, -1) for c in range(n)]
            + [(PUSH, c, d) for c in range(n) for d in range(len(DIRECTIONS))])
        self.n_actions = len(self._decoded)
        self.action_types = tuple(atype for atype, _, _ in self._decoded)
        # Per-cell sequence -> the pushed cell's entry of every push action.
        self._push_cells = itemgetter(*(cell for _, cell, _ in self._decoded[2 * self.n_cells:]))
        # Per-cell heights -> the target cell's height of every action.
        self._action_heights = itemgetter(*(cell for _, cell, _ in self._decoded))
        # The cell indices of every row, then of every column.
        rows = [[y * width + x for x in range(width)] for y in range(height)]
        columns = [[y * width + x for y in range(height)] for x in range(width)]
        self._lines = tuple(map(tuple, rows + columns))
        # Feature ids: feature_keys[id] is the feature key the id stands for
        # and _feature_index maps a key back to its id. Ids are never reassigned.
        self.feature_keys: list[tuple] = []
        self._feature_index: dict[tuple, int] = {}
        # (held, tallest height, tallest is unique) -> per action, the
        # feature id of each target height; built on a signature's first use.
        self._feature_tables: dict[tuple[int, int, bool], list[list[int]]] = {}

        # state -> the one tuple state() returns for every equal state.
        self._states: dict[BlockState, BlockState] = {}
        # state -> its mask row; row -> the one interned copy of that row.
        self._masks: dict[BlockState, tuple[bool, ...]] = {}
        self._mask_rows: dict[tuple[bool, ...], tuple[bool, ...]] = {}

        self.stacks: list[list[int]] = [[] for _ in range(self.n_cells)]
        self.gripper: Optional[int] = None
        self.removed: set[int] = set()
        self.step_count = 0
        self.terminal = False
        self.rng = random.Random(0)
        # Set by from_text: (stacks, gripper, removed) that every reset restores.
        self._start: Optional[tuple] = None

    # -- action coding ----------------------------------------------------

    def decode(self, action: int) -> tuple[str, int, Optional[int]]:
        """action id -> (type, cell index, push direction or None), read
        off the action table."""
        if not 0 <= action < self.n_actions:  # a negative index would wrap
            raise ValueError(f"unknown action {action}")
        atype, cell, direction = self._decoded[action]
        return atype, cell, None if direction < 0 else direction

    def cell_xy(self, cell: int) -> tuple[int, int]:
        return cell % self.width, cell // self.width

    # -- lifecycle --------------------------------------------------------

    def reset(self, seed: Optional[int] = None) -> BlockState:
        """Scatter all blocks as singletons on distinct cells, rescattering
        until the task is not already complete; an env built by
        ``from_text`` restores its parsed arrangement instead."""
        if seed is not None:
            self.rng = random.Random(seed)
        if self._start is not None:
            stacks, self.gripper, removed = self._start
            self.stacks = [list(s) for s in stacks]
            self.removed = set(removed)
        else:
            while True:
                self.stacks = [[] for _ in range(self.n_cells)]
                self.gripper = None
                self.removed = set()
                cells = self.rng.sample(range(self.n_cells), self.num_blocks)
                for block, cell in enumerate(cells):
                    self.stacks[cell].append(block)
                if self.progress() < 1.0:
                    break
        self.step_count = 0
        self.terminal = False
        return self.state()

    def state(self) -> BlockState:
        """(held flag, per-cell heights). Equal states are one object: the
        first tuple built for a state is kept and returned from then on."""
        state = (0 if self.gripper is None else 1, tuple(map(len, self.stacks)))
        return self._states.setdefault(state, state)

    # -- progress ---------------------------------------------------------

    def progress(self) -> float:
        if self.task == "stack":
            tallest = max(map(len, self.stacks))
            return min(1.0, tallest / self.goal_size)
        if self.task == "row":
            return min(1.0, self._longest_run() / self.goal_size)
        return min(1.0, len(self.removed) / self.num_blocks)

    def _longest_run(self) -> int:
        """Longest run of consecutive height-1 cells along any row or column."""
        heights = list(map(len, self.stacks))
        best = 0
        for line in self._lines:
            run = 0
            for cell in line:
                if heights[cell] == 1:
                    run += 1
                    if run > best:
                        best = run
                else:
                    run = 0
        return best

    # -- dynamics ---------------------------------------------------------

    def p_topple(self, h: int) -> float:
        """Topple probability for placing onto a stack of height h."""
        return min(self.topple_base * (h - 1), 0.5)

    def step(self, action: int) -> tuple[BlockState, StepOutcome, None]:
        """Returns (state, outcome, event); the event is always None here."""
        if self.terminal:
            raise RuntimeError("step on a terminal environment")
        if not 0 <= action < self.n_actions:  # a negative index would wrap
            raise ValueError(f"unknown action {action}")
        atype, cell, direction = self._decoded[action]
        before = self.progress()
        stack = self.stacks[cell]
        success = False
        placed = False

        if atype == GRASP:
            if self.gripper is None and stack:
                block = stack.pop()
                if self.task == "clear":
                    self.removed.add(block)
                else:
                    self.gripper = block
                success = True
        elif atype == PLACE:
            if self.gripper is not None:
                h = len(stack)
                if h >= 2 and self.rng.random() < self.p_topple(h):
                    self._topple(cell, extra=self.gripper)
                else:
                    stack.append(self.gripper)
                self.gripper = None
                placed = True
        else:  # PUSH
            if self.gripper is None and stack:
                if len(stack) >= 2:
                    self._topple(cell)
                    success = True
                else:
                    x, y = self.cell_xy(cell)
                    dx, dy = DIRECTIONS[direction]
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < self.width and 0 <= ny < self.height:
                        dest = self.stacks[ny * self.width + nx]
                        if not dest:
                            dest.append(stack.pop())
                            success = True

        after = self.progress()
        if placed:  # a place succeeds only if it advanced the task
            success = after > before
        task_complete = after >= 1.0
        self.step_count += 1
        self.terminal = task_complete or self.step_count >= self.action_limit
        outcome = StepOutcome(atype, success, before, after, self.terminal, task_complete)
        return self.state(), outcome, None

    def _topple(self, cell: int, extra: Optional[int] = None) -> None:
        """Scatter a stack (plus the held block, when a place caused it) to
        the nearest empty cells: the free cells in rings of equal Manhattan
        distance, nearer rings first, each seeded-shuffled until the rings
        taken hold every block. Every scattered block lands as a singleton."""
        blocks = self.stacks[cell] + ([] if extra is None else [extra])
        self.stacks[cell] = []
        ox, oy = self.cell_xy(cell)
        free = sorted((abs(c % self.width - ox) + abs(c // self.width - oy), c)
                      for c in range(self.n_cells) if c != cell and not self.stacks[c])
        targets: list[int] = []
        for _, ring in groupby(free, key=itemgetter(0)):
            ring = [c for _, c in ring]
            self.rng.shuffle(ring)
            targets += ring
            if len(targets) >= len(blocks):
                break
        else:
            raise RuntimeError("no empty cells to scatter onto")
        for block, c in zip(blocks, targets):
            self.stacks[c].append(block)

    def situation_removal_check(self, progress_before: float, progress_after: float) -> bool:
        """Training-time hard-reset trigger: any loss of task progress."""
        return progress_after < progress_before

    def instant_reward_override(self, outcome: StepOutcome, reward_kind: str) -> Optional[float]:
        """No override: every reward kind uses the weighted-success family."""
        return None

    # -- masking ----------------------------------------------------------

    def mask_for(self, state: BlockState) -> tuple[bool, ...]:
        """Grasp and push need a free gripper and an occupied cell (for a
        push, the pushed one); place needs a held block. Each state's row
        is built once as a tuple, equal rows interned as one (every holding
        state shares a row), and every call returns that row."""
        row = self._masks.get(state)
        if row is None:
            held, heights = state
            n = self.n_cells
            if held:
                row = (False,) * n + (True,) * n + (False,) * (4 * n)
            else:
                occupied = tuple([h > 0 for h in heights])
                row = occupied + (False,) * n + self._push_cells(occupied)
            row = self._masks[state] = self._mask_rows.setdefault(row, row)
        return row

    # -- features ---------------------------------------------------------

    def feature_ids(self, state: BlockState) -> tuple[int, ...]:
        """The id of every action's joint indicator feature at ``state``, by
        action id; ``feature_keys[id]`` is the feature key.

        The key collapses (state, action) to: action type, whether holding,
        tallest stack height, target-cell height, the target's relation to
        the tallest stack, and the push direction (-1 for grasp and place) —
        the signature that decides whether an action builds toward the goal
        or reverses it, independent of which cell it is. Apart from the
        target height, a key depends only on (held, tallest height, tallest
        is unique), so each such signature's ids are resolved once. The ids
        come as a tuple, which a reader may keep.
        """
        held, heights = state
        max_h = max(heights)
        signature = (held, max_h, heights.count(max_h) == 1)
        table = self._feature_tables.get(signature)
        if table is None:
            table = self._feature_tables[signature] = self._feature_table(*signature)
        return tuple(map(getitem, table, self._action_heights(heights)))

    def feature_id(self, key: tuple) -> int:
        """The id of a feature key, assigned the first time it is seen (by a
        signature table or by a caller loading weights)."""
        i = self._feature_index.get(key)
        if i is None:
            i = self._feature_index[key] = len(self.feature_keys)
            self.feature_keys.append(key)
        return i

    def _feature_table(self, held: int, max_h: int, unique: bool) -> list[list[int]]:
        """Per action id, the feature id of each target height 0..max_h."""
        top = "lone_max" if unique else "tied_max"
        rel = ["empty" if h == 0 else top if h == max_h else "below" for h in range(max_h + 1)]
        return [[self.feature_id((atype, held, max_h, h, rel[h], direction))
                 for h in range(max_h + 1)]
                for atype, _cell, direction in self._decoded]

    # -- metrics ----------------------------------------------------------

    def ideal_actions(self) -> int:
        if self.task == "stack":
            return 2 * (self.goal_size - 1)
        if self.task == "row":
            return self.goal_size
        return self.num_blocks

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for c in range(self.n_cells):
            if self.stacks[c]:
                x, y = self.cell_xy(c)
                ids = " ".join(str(b) for b in self.stacks[c])
                lines.append(f"cell {x} {y}: {ids}")
        holder = "empty" if self.gripper is None else str(self.gripper)
        lines.append(f"gripper: {holder}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str, **kwargs) -> "BlockWorld":
        """The arrangement written by ``to_text``; every reset restores it.
        Blocks it does not name count as removed. Like a seeded reset, it
        refuses a start that already completes the task, and one that
        cannot: a stack or row start naming fewer than ``goal_size`` blocks."""
        env = cls(**kwargs)
        seen: list[int] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("cell "):
                head, _, ids = line.partition(":")
                _, x, y = head.split()
                x, y = int(x), int(y)
                if not (0 <= x < env.width and 0 <= y < env.height):
                    raise ValueError(f"cell {x} {y} is off the {env.width}x{env.height} board")
                cell = y * env.width + x
                if env.stacks[cell]:
                    raise ValueError(f"cell {x} {y} is named twice")
                env.stacks[cell] = [int(b) for b in ids.split()]
                seen += env.stacks[cell]
            elif line.startswith("gripper:"):
                holder = line.split(":", 1)[1].strip()
                if holder != "empty":
                    env.gripper = int(holder)
                    seen.append(env.gripper)
            else:
                raise ValueError(f"unparseable state line {line!r}")
        if len(set(seen)) != len(seen) or not set(seen) <= set(range(env.num_blocks)):
            raise ValueError(f"block ids must be distinct and below {env.num_blocks}")
        if env.task != "clear" and len(seen) < env.goal_size:
            raise ValueError(f"the {env.task} task needs {env.goal_size} blocks, not {len(seen)}")
        env.removed = set(range(env.num_blocks)) - set(seen)
        if env.progress() >= 1.0:
            raise ValueError(f"the arrangement already completes the {env.task} task")
        env._start = ([list(s) for s in env.stacks], env.gripper, set(env.removed))
        return env
