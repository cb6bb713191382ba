"""Abstract tabletop: grasp/push/place block manipulation on a small grid.

Blocks live in per-cell stacks on a 4x4 board. Three tasks share the same
dynamics and differ only in the progress metric: build a stack of K, build
a row of K single blocks, or clear every block off the table (grasping
banks the block directly). Placing onto a tall stack risks toppling it —
the whole stack scatters to nearby empty cells — and pushing a stack of
two or more topples it outright, so progress can reverse. The action mask
rules out the certain failures: grasping or pushing at an empty cell,
grasping or pushing with a full gripper, and placing with an empty one.
"""
from __future__ import annotations

import random
from typing import Optional

from ..rewards import StepOutcome

GRASP, PLACE, PUSH = "grasp", "place", "push"
DIRECTIONS = ((0, -1), (1, 0), (0, 1), (-1, 0))  # N, E, S, W

TASKS = ("stack", "row", "clear")

BlockState = tuple  # (held flag, per-cell heights)


class BlockWorld:
    """Single-owner, seedable block-manipulation environment."""

    name = "blockworld"

    def __init__(
        self,
        task: str = "stack",
        goal_size: int = 4,
        num_blocks: int = 4,
        width: int = 4,
        height: int = 4,
        topple_base: float = 0.1,
        action_limit: Optional[int] = None,
    ):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.goal_size = goal_size
        self.num_blocks = num_blocks
        self.width = width
        self.height = height
        self.topple_base = topple_base
        if action_limit is None:
            action_limit = 30 if task == "clear" else 50
        self.action_limit = action_limit

        self.n_cells = width * height
        self.n_actions = 6 * self.n_cells  # grasp + place + 4-direction push
        self.action_types = tuple(
            GRASP if a < self.n_cells else PLACE if a < 2 * self.n_cells else PUSH
            for a in range(self.n_actions)
        )
        # (type, cell, direction) per action id, direction -1 for non-pushes.
        self._decoded = tuple(
            (atype, cell, -1 if direction is None else direction)
            for atype, cell, direction in map(self.decode, range(self.n_actions))
        )

        self.stacks: list[list[int]] = [[] for _ in range(self.n_cells)]
        self.gripper: Optional[int] = None
        self.removed: set[int] = set()
        self.step_count = 0
        self.terminal = False
        self.rng = random.Random(0)

    # -- action coding ----------------------------------------------------

    def decode(self, action: int) -> tuple[str, int, Optional[int]]:
        """action id -> (type, cell index, push direction or None)."""
        n = self.n_cells
        if 0 <= action < n:
            return GRASP, action, None
        if n <= action < 2 * n:
            return PLACE, action - n, None
        if 2 * n <= action < 6 * n:
            rel = action - 2 * n
            return PUSH, rel // 4, rel % 4
        raise ValueError(f"unknown action {action}")

    def cell_xy(self, cell: int) -> tuple[int, int]:
        return cell % self.width, cell // self.width

    # -- lifecycle --------------------------------------------------------

    def reset(self, seed: Optional[int] = None) -> BlockState:
        """Scatter all blocks as singletons on distinct cells; rescatters
        until the task is not already complete."""
        if seed is not None:
            self.rng = random.Random(seed)
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
        heights = tuple(len(s) for s in self.stacks)
        return (0 if self.gripper is None else 1, heights)

    # -- progress ---------------------------------------------------------

    def progress(self) -> float:
        if self.task == "stack":
            tallest = max(len(s) for s in self.stacks)
            return min(1.0, tallest / self.goal_size)
        if self.task == "row":
            return min(1.0, self._longest_run() / self.goal_size)
        return min(1.0, len(self.removed) / self.num_blocks)

    def _longest_run(self) -> int:
        """Longest run of consecutive height-1 cells along any row or column."""
        best = 0
        lines = [[(x, y) for x in range(self.width)] for y in range(self.height)]
        lines += [[(x, y) for y in range(self.height)] for x in range(self.width)]
        for line in lines:
            run = 0
            for x, y in line:
                if len(self.stacks[y * self.width + x]) == 1:
                    run += 1
                    best = max(best, run)
                else:
                    run = 0
        return best

    # -- dynamics ---------------------------------------------------------

    def p_topple(self, h: int) -> float:
        """Topple probability for placing onto a stack of height h."""
        return min(self.topple_base * (h - 1), 0.5)

    def step(self, action: int) -> tuple[BlockState, StepOutcome]:
        if self.terminal:
            raise RuntimeError("step on a terminal environment")
        atype, cell, direction = self.decode(action)
        before = self.progress()
        stack = self.stacks[cell]
        success = False

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
                success = self.progress() > before
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
        task_complete = after >= 1.0
        self.step_count += 1
        self.terminal = task_complete or self.step_count >= self.action_limit
        outcome = StepOutcome(
            action_type=atype,
            success=success,
            progress_before=before,
            progress_after=after,
            terminal=self.terminal,
            task_complete=task_complete,
        )
        return self.state(), outcome

    def _topple(self, cell: int, extra: Optional[int] = None) -> None:
        """Scatter a stack (plus the held block, when a place caused it) to
        the nearest empty cells, nearer rings first, seeded-shuffled within
        each ring. Every scattered block lands as a singleton."""
        blocks = list(self.stacks[cell])
        if extra is not None:
            blocks.append(extra)
        self.stacks[cell] = []
        ox, oy = self.cell_xy(cell)
        targets: list[int] = []
        ring = 1
        while len(targets) < len(blocks):
            candidates = []
            for c in range(self.n_cells):
                x, y = self.cell_xy(c)
                if abs(x - ox) + abs(y - oy) == ring and not self.stacks[c] and c not in targets:
                    candidates.append(c)
            self.rng.shuffle(candidates)
            targets.extend(candidates)
            ring += 1
            if ring > self.width + self.height:
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

    def mask_for(self, state: BlockState) -> list[bool]:
        held, heights = state
        free = held == 0
        mask = [free and heights[c] > 0 for c in range(self.n_cells)]
        mask += [not free] * self.n_cells
        for a in range(2 * self.n_cells, self.n_actions):
            cell = (a - 2 * self.n_cells) // 4
            mask.append(free and heights[cell] > 0)
        return mask

    def mask(self) -> list[bool]:
        return self.mask_for(self.state())

    # -- features ---------------------------------------------------------

    def features(self, state: BlockState) -> list[tuple]:
        """Joint indicator feature of every action at ``state``, by action id.

        Collapses (state, action) to: action type, whether holding, tallest
        stack height, target-cell height, the target's relation to the
        tallest stack, and the push direction (-1 for grasp and place) —
        the signature that decides whether an action builds toward the goal
        or reverses it, independent of which cell it is. The tallest height
        and each cell's relation are worked out once per state.
        """
        held, heights = state
        max_h = max(heights)
        top = "lone_max" if heights.count(max_h) == 1 else "tied_max"
        rel = ["empty" if h == 0 else top if h == max_h else "below" for h in heights]
        return [((atype, held, max_h, heights[cell], rel[cell], direction),)
                for atype, cell, direction in self._decoded]

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
        env = cls(**kwargs)
        seen: set[int] = set()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("cell "):
                head, _, ids = line.partition(":")
                _, x, y = head.split()
                blocks = [int(b) for b in ids.split()]
                env.stacks[int(y) * env.width + int(x)] = blocks
                seen.update(blocks)
            elif line.startswith("gripper:"):
                holder = line.split(":", 1)[1].strip()
                if holder != "empty":
                    env.gripper = int(holder)
                    seen.add(env.gripper)
            else:
                raise ValueError(f"unparseable state line {line!r}")
        env.removed = set(range(env.num_blocks)) - seen
        return env


def feature_key(state: BlockState, action: int, env: BlockWorld) -> tuple:
    """The features of one action: ``env.features(state)[action]``."""
    return env.features(state)[action]
