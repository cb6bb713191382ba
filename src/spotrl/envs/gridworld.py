"""Lava-crossing grid world with a distance-field progress signal.

A 9x9 bordered grid: the agent starts in the top-left interior corner
facing east, the goal sits in the opposite corner, and two vertical lava
walls each leave a single random gap. Progress toward the goal is read
off a BFS distance field computed from the goal over passable cells
(the wavefront), normalized so the start is 0 and the goal is 1.

The action mask forbids moving forward into lava (fatal) or into a wall
(a guaranteed no-op), leaving turns always available.

The generator can draw only a handful of layouts (one gap row per lava
column), so each env computes every layout it draws once: its cells, the
goal BFS that both proves it solvable and gives the distance field, its
layout key and its ``ideal_actions`` (a per-layout constant). A seeded
reset that draws a known layout reuses all of these, so every state of one
layout shares one layout-key object.
"""
from __future__ import annotations

import random
from collections import deque
from typing import Optional, Sequence

from ..rewards import StepOutcome

EMPTY, WALL, LAVA, GOAL = ".", "#", "L", "G"

# Headings in clockwise order; index is the heading id.
HEADINGS = ("N", "E", "S", "W")
# heading -> (heading after a left turn, heading after a right turn)
TURNS = {h: (HEADINGS[(i - 1) % 4], HEADINGS[(i + 1) % 4]) for i, h in enumerate(HEADINGS)}
HEADING_GLYPHS = {"N": "^", "E": ">", "S": "v", "W": "<"}
DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}

FORWARD, TURN_LEFT, TURN_RIGHT = 0, 1, 2
ACTION_TYPES = ("forward", "turn_left", "turn_right")
# The only two mask rows: turns are always allowed.
FORWARD_OPEN, FORWARD_BLOCKED = (True, True, True), (False, True, True)

# Lava wall columns and the rows a gap may occupy. The gap band is kept
# narrow so the layout family stays small enough for a tabular policy to
# master every layout within a modest action budget: wider bands admit
# deep zigzag layouts (first gap low, second gap high) that undirected
# exploration essentially never completes inside the 100-action limit.
LAVA_COLUMNS = (3, 5)
GAP_ROWS = (4, 5)

GridState = tuple  # (x, y, heading, layout key) — pose plus the full observable grid


class LayoutKey(tuple):
    """(interior walls, lava cells): a plain tuple that hashes once.

    Every Q-table read and mask lookup hashes a state, and with it this
    nested key; a tuple does not cache its hash, so this one keeps it. Its
    hash, ``==`` and ``repr`` are those of the plain tuple, so a key parsed
    back from a dump finds the same entries.
    """

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


def _bfs(origin, successors) -> dict:
    """BFS distances from ``origin`` along ``successors(node)``; unreachable
    nodes are absent."""
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        for nxt in successors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


class GenerationError(RuntimeError):
    """Layout generation produced an unsolvable grid."""


class GridWorld:
    """Single-owner, seedable lava-crossing environment."""

    n_actions = 3
    action_types = ACTION_TYPES

    def __init__(
        self,
        width: int = 9,
        height: int = 9,
        action_limit: int = 100,
        start: tuple[int, int] = (1, 1),
        goal: tuple[int, int] = (7, 7),
    ):
        if start == goal:
            raise ValueError("start and goal must be different cells")
        self.width = width
        self.height = height
        self.action_limit = action_limit
        self.start = start
        self.goal = goal
        self.cells: Sequence[Sequence[str]] = []
        self.agent_x, self.agent_y = start
        self.heading = "E"
        self.consecutive_turns = 0
        self.step_count = 0
        self.terminal = False
        self._dist: dict[tuple[int, int], int] = {}
        self._layout_key: tuple[tuple, tuple] = ((), ())
        self._ideal = 0
        # Set by from_text: every reset replays the parsed layout.
        self._fixed_layout = False
        # drawn gap rows -> (cells, distance field, layout key, ideal
        # actions), or None when the goal cannot be reached from the start.
        self._layouts: dict[tuple[int, ...], Optional[tuple]] = {}
        # layout key -> frozenset of the (x, y, heading) poses whose forward
        # move it blocks, built on a key's first mask_for.
        self._blocked: dict[tuple[tuple, tuple], frozenset] = {}
        # state -> the one tuple state() returns for every equal state.
        self._states: dict[GridState, GridState] = {}

    # -- layout -----------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, **kwargs) -> "GridWorld":
        g = cls(**kwargs)
        g.reset(seed)
        return g

    def reset(self, seed: Optional[int] = None) -> GridState:
        """Put the agent on the start cell facing east. A seed draws a new
        layout, except on an env built by ``from_text``, which keeps its
        parsed layout; a seedless reset keeps the current layout."""
        if seed is not None and not self._fixed_layout:
            rng = random.Random(seed)
            while True:
                gaps = tuple(rng.choice(GAP_ROWS) for _ in LAVA_COLUMNS)
                if gaps not in self._layouts:
                    self._layouts[gaps] = self._build_layout(gaps)
                layout = self._layouts[gaps]
                if layout is not None:
                    break
                if (len(self._layouts) == len(GAP_ROWS) ** len(LAVA_COLUMNS)
                        and not any(self._layouts.values())):
                    raise GenerationError("no gap draw gives a solvable layout")
            self.cells, self._dist, self._layout_key, self._ideal = layout
        elif not self.cells:
            raise GenerationError("no layout: reset needs a seed the first time")
        self.agent_x, self.agent_y = self.start
        self.heading = "E"
        self.consecutive_turns = 0
        self.step_count = 0
        self.terminal = False
        return self.state()

    def _build_layout(self, gaps: tuple[int, ...]) -> Optional[tuple]:
        """Lay out the grid with the gap of each lava column at ``gaps`` and
        survey it: (cells, distance field, layout key, ideal actions), or
        None when it is unsolvable. The cells are frozen, since every later
        draw of the same gaps shares them."""
        w, h = self.width, self.height
        for x, y in (self.start, self.goal):
            if not (0 <= x < w and 0 <= y < h):
                raise GenerationError(f"cell {(x, y)} is off the {w}x{h} board")
        if not (all(0 < x < w - 1 for x in LAVA_COLUMNS)
                and all(0 < y < h - 1 for y in GAP_ROWS)):
            raise GenerationError(f"the lava columns {LAVA_COLUMNS} and gap rows {GAP_ROWS} "
                                  f"do not fit inside a {w}x{h} board's border")
        cells = [[EMPTY] * w for _ in range(h)]
        for x in range(w):
            cells[0][x] = cells[h - 1][x] = WALL
        for y in range(h):
            cells[y][0] = cells[y][w - 1] = WALL
        for col, gap_y in zip(LAVA_COLUMNS, gaps):
            for y in range(1, h - 1):
                if y != gap_y:
                    cells[y][col] = LAVA
        gx, gy = self.goal
        cells[gy][gx] = GOAL
        self.cells = tuple(map(tuple, cells))
        survey = self._survey()
        return None if survey is None else (self.cells, *survey)

    def _survey(self) -> Optional[tuple]:
        """(distance field, layout key, ideal actions) of the current cells,
        or None when the start cannot reach the goal. One BFS from the goal
        over open cells both decides solvability and gives the distance
        field; one over (x, y, heading) poses from the start pose gives the
        fewest actions to any pose on the goal cell."""
        def open_cells(cell):
            x, y = cell
            return [(x + dx, y + dy) for dx, dy in DELTAS.values() if self.passable(x + dx, y + dy)]

        def poses(pose):
            x, y, heading = pose
            dx, dy = DELTAS[heading]
            ahead = [(x + dx, y + dy, heading)] if self.passable(x + dx, y + dy) else []
            return [(x, y, turned) for turned in TURNS[heading]] + ahead

        dist = _bfs(self.goal, open_cells)
        if self.start not in dist:
            return None
        ideal = min(d for (x, y, _), d in _bfs((*self.start, "E"), poses).items()
                    if (x, y) == self.goal)
        return dist, self._compute_layout_key(), ideal

    def _compute_layout_key(self) -> LayoutKey:
        """(interior walls, lava cells), each sorted — the observable layout."""
        walls = []
        lavas = []
        for y in range(1, self.height - 1):
            for x in range(1, self.width - 1):
                if self.cells[y][x] == WALL:
                    walls.append((x, y))
                elif self.cells[y][x] == LAVA:
                    lavas.append((x, y))
        return LayoutKey((tuple(sorted(walls)), tuple(sorted(lavas))))

    # -- geometry ---------------------------------------------------------

    def cell(self, x: int, y: int) -> str:
        return self.cells[y][x]

    def passable(self, x: int, y: int) -> bool:
        return self.cell(x, y) in (EMPTY, GOAL)

    def distance_field(self) -> dict[tuple[int, int], int]:
        return dict(self._dist)

    def progress_at(self, x: int, y: int) -> float:
        """1 - remaining/initial distance: 0 at the start cell, 1 at the goal.

        Clamped below at 0 for cells even farther from the goal than the
        start is (wandering backwards past the start cell).
        """
        return max(0.0, 1.0 - self._dist[(x, y)] / self._dist[self.start])

    def progress(self) -> float:
        return self.progress_at(self.agent_x, self.agent_y)

    def state(self) -> GridState:
        """Agent pose plus a canonical key for everything observable in the
        layout (interior walls and lava cells). The whole grid is part of
        the state, so values learned under one layout never bleed into
        another, and masks can be recomputed from a stored state alone.
        Equal states are one object: the first tuple built for a state is
        kept and returned from then on."""
        state = (self.agent_x, self.agent_y, self.heading, self._layout_key)
        return self._states.setdefault(state, state)

    # -- dynamics ---------------------------------------------------------

    def step(self, action: int) -> tuple[GridState, StepOutcome, Optional[str]]:
        if self.terminal:
            raise RuntimeError("step on a terminal environment")
        before = self.progress()
        event: Optional[str] = None
        task_complete = False
        if action == FORWARD:
            self.consecutive_turns = 0
            dx, dy = DELTAS[self.heading]
            nx, ny = self.agent_x + dx, self.agent_y + dy
            target = self.cell(nx, ny)
            if target == LAVA:
                self.agent_x, self.agent_y = nx, ny
                self.terminal = True
                event = "lava"
            elif target != WALL:
                self.agent_x, self.agent_y = nx, ny
                if target == GOAL:
                    self.terminal = True
                    task_complete = True
                    event = "goal"
        elif action in (TURN_LEFT, TURN_RIGHT):
            self.heading = TURNS[self.heading][action == TURN_RIGHT]
            self.consecutive_turns += 1
        else:
            raise ValueError(f"unknown action {action}")

        self.step_count += 1
        if not self.terminal and self.step_count >= self.action_limit:
            self.terminal = True
            event = "limit"

        # A step into lava leaves progress pinned at its pre-step value:
        # there is no distance defined on a lava cell.
        after = before if event == "lava" else self.progress()
        outcome = StepOutcome(ACTION_TYPES[action], after > before, before, after,
                              self.terminal, task_complete)
        return self.state(), outcome, event

    def situation_removal_check(self, progress_before: float, progress_after: float) -> bool:
        """Training-time hard-reset trigger: progress lost, or spinning in place."""
        return progress_after < progress_before or self.consecutive_turns > 2

    def instant_reward_override(self, outcome: StepOutcome, reward_kind: str) -> Optional[float]:
        """The environment's own sparse reward — 1 only at the goal — used in
        place of the shaped family for the plain and discounted kinds."""
        if reward_kind in ("base", "discounted"):
            return 1.0 if outcome.task_complete else 0.0
        return None

    # -- masking ----------------------------------------------------------

    def mask_for(self, state: GridState) -> tuple[bool, ...]:
        """Forward is disallowed into lava (fatal) and into walls (certain
        no-op); turning is always allowed. Computed from the state alone so
        replayed states keep the mask of the layout they came from. Every
        call returns one of two shared rows."""
        x, y, heading, key = state
        blocked = self._blocked.get(key)
        if blocked is None:
            blocked = self._blocked[key] = self._blocked_poses(key)
        return FORWARD_BLOCKED if (x, y, heading) in blocked else FORWARD_OPEN

    def _blocked_poses(self, layout_key: tuple[tuple, tuple]) -> frozenset:
        """Every (x, y, heading) pose on the grid whose forward cell is a
        border, an interior wall or lava under ``layout_key``."""
        walls, lavas = layout_key
        w, h = self.width, self.height
        blocked = set()
        for y in range(h):
            for x in range(w):
                for heading, (dx, dy) in DELTAS.items():
                    fx, fy = x + dx, y + dy
                    if (fx in (0, w - 1) or fy in (0, h - 1)
                            or (fx, fy) in walls or (fx, fy) in lavas):
                        blocked.add((x, y, heading))
        return frozenset(blocked)

    # -- planning ---------------------------------------------------------

    def ideal_actions(self) -> int:
        """Fewest actions (moves + turns) from the start pose to the goal;
        a constant of the layout, found when the layout was surveyed."""
        return self._ideal

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """One character per cell; the agent is drawn as ^ > v <."""
        rows = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                if (x, y) == (self.agent_x, self.agent_y):
                    row.append(HEADING_GLYPHS[self.heading])
                else:
                    row.append(self.cell(x, y))
            rows.append("".join(row))
        return "\n".join(rows)

    @classmethod
    def from_text(cls, text: str, action_limit: int = 100) -> "GridWorld":
        """The grid drawn by ``to_text``, with the agent's glyph cell as the
        start; every reset replays this layout from the start facing east.
        The glyph's heading holds only until the first reset. The text
        needs exactly one agent glyph and one goal."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty grid text")
        height = len(lines)
        width = len(lines[0])
        glyph_heading = {v: k for k, v in HEADING_GLYPHS.items()}
        agent = None
        heading = "E"
        goal = None
        cells = []
        for y, line in enumerate(lines):
            if len(line) != width:
                raise ValueError("ragged grid text")
            row = []
            for x, ch in enumerate(line):
                if ch in glyph_heading:
                    if agent is not None:
                        raise ValueError("grid text has more than one agent glyph")
                    agent = (x, y)
                    heading = glyph_heading[ch]
                    row.append(EMPTY)
                    continue
                if ch == GOAL:
                    if goal is not None:
                        raise ValueError("grid text has more than one goal")
                    goal = (x, y)
                if ch not in (EMPTY, WALL, LAVA, GOAL):
                    raise ValueError(f"unknown cell character {ch!r}")
                row.append(ch)
            cells.append(row)
        if agent is None or goal is None:
            raise ValueError("grid text needs an agent glyph and a goal")
        border = lines[0] + lines[-1] + "".join(ln[0] + ln[-1] for ln in lines)
        if set(border) != {WALL}:
            raise ValueError("grid text needs a full '#' border")
        g = cls(width=width, height=height, action_limit=action_limit,
                start=agent, goal=goal)
        g.cells = tuple(map(tuple, cells))
        survey = g._survey()
        if survey is None:
            raise GenerationError("start unreachable from goal")
        g._dist, g._layout_key, g._ideal = survey
        g._fixed_layout = True
        g.reset()
        g.heading = heading
        return g
