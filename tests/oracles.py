"""Independent reference implementations used to cross-check the package.

Everything in this module is written from the documented behaviour alone and
deliberately avoids calling into the code paths it is used to verify: the
trial-reward oracle sums explicit geometric series instead of recursing, the
path-length oracles run Dijkstra searches over their own adjacency
definitions, and the replay/agent mirrors re-derive the sampling and update
arithmetic from scratch.
"""

import hashlib
import heapq
import random

from sortedcontainers import SortedList

from spotrl.rewards import StepOutcome


# ---------------------------------------------------------------------------
# Trial-reward propagation oracle
# ---------------------------------------------------------------------------


def propagated_trial_rewards(instants, completed, discount):
    """Closed-form trial rewards: each nonzero step earns the discounted sum
    of the consecutive nonzero run ahead of it, with the final step counted
    twice when the trial completed.

    Unlike a backward recursion, every output is an explicit left-to-right
    summation of ``discount**k * instants[t + k]`` terms.
    """
    n = len(instants)
    out = []
    for t in range(n):
        if instants[t] == 0.0:
            out.append(0.0)
            continue
        # End of the consecutive nonzero run starting at t (exclusive).
        cut = t
        while cut < n and instants[cut] != 0.0:
            cut += 1
        total = 0.0
        for j in range(t, cut):
            total += (discount ** (j - t)) * instants[j]
        if cut == n and completed:
            # Completion doubles the terminal entry: add its discounted
            # contribution a second time.
            total += (discount ** (n - 1 - t)) * instants[n - 1]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Grid navigation oracles
# ---------------------------------------------------------------------------

_DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
_HEADINGS = "NESW"


def _passable(env, x, y):
    return env.cells[y][x] in (".", "G")


def cell_distance_field(env):
    """Shortest 4-neighbour step counts from every passable cell to the goal,
    computed by Dijkstra over the raw character grid."""
    dist = {}
    frontier = [(0, env.goal)]
    while frontier:
        d, cell = heapq.heappop(frontier)
        if cell in dist:
            continue
        dist[cell] = d
        x, y = cell
        for dx, dy in _DELTAS.values():
            nxt = (x + dx, y + dy)
            if nxt not in dist and _passable(env, *nxt):
                heapq.heappush(frontier, (d + 1, nxt))
    return dist


def pose_graph_shortest(env):
    """Fewest turn/forward actions from the start pose (facing east) to the
    goal cell, by Dijkstra over (x, y, heading) poses.

    Edges: rotate left/right in place, or advance one cell along the current
    heading when the cell ahead is passable.  Every edge costs one action.
    """
    start = (env.start[0], env.start[1], "E")
    best = {}
    frontier = [(0, start)]
    while frontier:
        d, pose = heapq.heappop(frontier)
        if pose in best:
            continue
        best[pose] = d
        x, y, heading = pose
        if (x, y) == env.goal:
            return d
        i = _HEADINGS.index(heading)
        neighbours = [
            (x, y, _HEADINGS[(i - 1) % 4]),
            (x, y, _HEADINGS[(i + 1) % 4]),
        ]
        dx, dy = _DELTAS[heading]
        if _passable(env, x + dx, y + dy):
            neighbours.append((x + dx, y + dy, heading))
        for pose in neighbours:
            if pose not in best:
                heapq.heappush(frontier, (d + 1, pose))
    raise AssertionError("goal not reachable from the start pose")


# ---------------------------------------------------------------------------
# Block-arrangement task predicates and a stacking planner
# ---------------------------------------------------------------------------


def stack_done(env):
    """True when some cell holds a tower of at least the goal size."""
    return any(len(s) >= env.goal_size for s in env.stacks)


def row_done(env):
    """True when some straight line of goal-size consecutive cells holds
    exactly one block each."""
    k = env.goal_size
    for y in range(env.height):
        for x in range(env.width - k + 1):
            if all(len(env.stacks[y * env.width + x + i]) == 1 for i in range(k)):
                return True
    for x in range(env.width):
        for y in range(env.height - k + 1):
            if all(len(env.stacks[(y + i) * env.width + x]) == 1 for i in range(k)):
                return True
    return False


def clear_done(env):
    """True when every block has been removed from the board."""
    return len(env.removed) >= env.num_blocks


def task_done(env):
    """Independent completion check for whichever task the env is running."""
    return {"stack": stack_done, "row": row_done, "clear": clear_done}[env.task](env)


def shortest_stack_plan_length(heights, goal_size):
    """Minimum grasp/place actions to build a goal-size tower, by breadth-first
    search over (held, heights) states with deterministic, topple-free moves.

    ``heights`` is a 16-tuple of stack heights on the 4x4 board.  Place-topple
    randomness is irrelevant to the minimum: an optimal plan never benefits
    from a topple, so the search only needs the success branch.
    """
    start = (0, tuple(heights))
    if max(heights) >= goal_size:
        return 0
    seen = {start}
    frontier = [(start, 0)]
    while frontier:
        (held, hs), depth = frontier.pop(0)
        moves = []
        if held == 0:
            for c in range(16):
                if hs[c] > 0:
                    nxt = list(hs)
                    nxt[c] -= 1
                    moves.append((1, tuple(nxt)))
        else:
            for c in range(16):
                nxt = list(hs)
                nxt[c] += 1
                moves.append((0, tuple(nxt)))
        for state in moves:
            if state in seen:
                continue
            if state[0] == 0 and max(state[1]) >= goal_size:
                return depth + 1
            seen.add(state)
            frontier.append((state, depth + 1))
    raise AssertionError("no stacking plan found")


# ---------------------------------------------------------------------------
# Hand-written recovery trial
# ---------------------------------------------------------------------------


def recovery_trace():
    """A 14-action stacking trial whose progress collapses mid-way and is
    rebuilt before completion.

    Returns ``(outcomes, weights)``.  The storyline, with four blocks on the
    board (progress = tallest stack / 4):

    1.  push a loose block into position       (progress stays 0.25)
    2.  grasp a loose block                    (0.25)
    3.  place it on another: two-stack         (0.25 -> 0.50)
    4.  grasp the top of that stack            (0.50 -> 0.25, reversal)
    5.  drop it on an empty cell, no gain      (0.25, failure)
    6.  grasp a loose block                    (0.25)
    7.  place it: two-stack again              (0.25 -> 0.50)
    8.  push a loose block closer              (0.50)
    9.  push again                             (0.50)
    10. grasp a loose block                    (0.50)
    11. place it: three-stack                  (0.50 -> 0.75)
    12. push the last loose block closer       (0.75)
    13. grasp it                               (0.75)
    14. place it: four-stack, task complete    (0.75 -> 1.00)

    Action 4 succeeds mechanically but undoes progress, so shaped rewards
    give it nothing; action 5 fails outright.
    """
    weights = {"push": 0.5, "grasp": 1.0, "place": 1.25}
    steps = [
        ("push", True, 0.25, 0.25),
        ("grasp", True, 0.25, 0.25),
        ("place", True, 0.25, 0.50),
        ("grasp", True, 0.50, 0.25),
        ("place", False, 0.25, 0.25),
        ("grasp", True, 0.25, 0.25),
        ("place", True, 0.25, 0.50),
        ("push", True, 0.50, 0.50),
        ("push", True, 0.50, 0.50),
        ("grasp", True, 0.50, 0.50),
        ("place", True, 0.50, 0.75),
        ("push", True, 0.75, 0.75),
        ("grasp", True, 0.75, 0.75),
        ("place", True, 0.75, 1.00),
    ]
    outcomes = []
    for i, (atype, success, before, after) in enumerate(steps):
        last = i == len(steps) - 1
        outcomes.append(
            StepOutcome(
                action_type=atype,
                success=success,
                progress_before=before,
                progress_after=after,
                terminal=last,
                task_complete=last,
            )
        )
    return outcomes, weights


# ---------------------------------------------------------------------------
# Scripted / counting random sources
# ---------------------------------------------------------------------------


class ForbiddenRandom:
    """Fails the test if any randomness is consumed."""

    def random(self):
        raise AssertionError("unexpected random() draw")

    def randrange(self, n):
        raise AssertionError("unexpected randrange() draw")


class CountingRandom(random.Random):
    """random.Random that counts calls to random()."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class ScriptedRandom:
    """Feeds a fixed script of unit-interval values to random().

    shuffle() leaves sequences untouched so outcomes that depend on scatter
    order stay predictable.
    """

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def shuffle(self, items):
        pass


# ---------------------------------------------------------------------------
# A three-cell corridor environment
# ---------------------------------------------------------------------------


class ChainEnv:
    """Corridor of `length` cells; the agent starts at the left end and the
    task completes at the right end.

    Action 0 moves left, action 1 moves right (both clamp at the ends).
    Progress is position / (length - 1), every action is always allowed, and
    moves never fail mechanically -- only a move that increases progress
    counts as a success.  Useful as a minimal, fully transparent environment.
    """

    action_types = ("back", "forward")

    def __init__(self, length=3, action_limit=12):
        self.length = length
        self.action_limit = action_limit
        self.pos = 0
        self.steps = 0
        self.terminal = False
        self.resets = []

    @property
    def n_actions(self):
        return 2

    def reset(self, seed=None):
        self.resets.append(seed)
        self.pos = 0
        self.steps = 0
        self.terminal = False
        return self.pos

    def action_type(self, action_id):
        return self.action_types[action_id]

    def mask_for(self, state):
        return [True, True]

    def ideal_actions(self):
        return self.length - 1

    def instant_reward_override(self, outcome, reward_kind):
        return None

    def situation_removal_check(self, progress_before, progress_after):
        return progress_after < progress_before

    def step(self, action_id):
        before = self.pos / (self.length - 1)
        if action_id == 1:
            self.pos = min(self.length - 1, self.pos + 1)
        else:
            self.pos = max(0, self.pos - 1)
        self.steps += 1
        after = self.pos / (self.length - 1)
        complete = self.pos == self.length - 1
        terminal = complete or self.steps >= self.action_limit
        self.terminal = terminal
        outcome = StepOutcome(
            action_type=self.action_types[action_id],
            success=after > before,
            progress_before=before,
            progress_after=after,
            terminal=terminal,
            task_complete=complete,
        )
        return self.pos, outcome


# ---------------------------------------------------------------------------
# Replay-buffer mirror (surprise-ranked sampling, re-derived)
# ---------------------------------------------------------------------------


class MirrorReplay:
    """Re-implementation of surprise-ranked experience sampling for
    instant-reward training, kept deliberately separate from the package.

    Entries are plain dicts; the rank order is a sorted list of
    ``(-surprise, insertion_index)`` keys, one global plus one per
    (action type, success) group.  No eviction: mirrors are only used with
    ample capacity.
    """

    def __init__(self, per_exponent, filter_prob, trial_discount):
        self.per_exponent = per_exponent
        self.filter_prob = filter_prob
        self.trial_discount = trial_discount
        self.entries = []
        self.trials = {}
        self.order = SortedList()
        self.groups = {}
        self.cum = []
        self.last_atype = None
        self.last_success = None

    def __len__(self):
        return len(self.entries)

    def _key(self, i):
        e = self.entries[i]
        reward = e["trial"] if e["trial"] is not None else e["instant"]
        return (-abs(reward - e["predicted"]), i)

    def push(self, *, state, action, atype, instant, predicted, success,
             trial_id, step, next_state, terminal):
        i = len(self.entries)
        self.entries.append({
            "state": state, "action": action, "atype": atype,
            "instant": instant, "trial": None, "predicted": predicted,
            "success": success, "trial_id": trial_id, "step": step,
            "next_state": next_state, "terminal": terminal,
        })
        self.trials.setdefault(trial_id, []).append(i)
        self.last_atype = atype
        self.last_success = success
        key = self._key(i)
        self.order.add(key)
        self.groups.setdefault((atype, success), SortedList()).add(key)
        return i

    def finalize(self, trial_id, completed):
        ids = self.trials[trial_id]
        instants = [self.entries[i]["instant"] for i in ids]
        filled = [0.0] * len(instants)
        for t in range(len(instants) - 1, -1, -1):
            r = instants[t]
            if r == 0.0:
                continue
            if t == len(instants) - 1:
                filled[t] = 2.0 * r if completed else r
            else:
                filled[t] = r + self.trial_discount * filled[t + 1]
        for i, value in zip(ids, filled):
            e = self.entries[i]
            old = self._key(i)
            self.order.remove(old)
            self.groups[(e["atype"], e["success"])].remove(old)
            e["trial"] = value
            new = self._key(i)
            self.order.add(new)
            self.groups[(e["atype"], e["success"])].add(new)

    def sample(self, rng):
        candidates = self.order
        if rng.random() < self.filter_prob:
            group = self.groups.get((self.last_atype, not self.last_success))
            if group:
                candidates = group
        n = len(candidates)
        while len(self.cum) < n:
            prev = self.cum[-1] if self.cum else 0.0
            self.cum.append(prev + (len(self.cum) + 1) ** (-self.per_exponent))
        u = rng.random() * self.cum[n - 1]
        rank = 0
        while rank < n - 1 and self.cum[rank] <= u:
            rank += 1
        return candidates[rank][1]


# ---------------------------------------------------------------------------
# Full corridor learner mirror
# ---------------------------------------------------------------------------


def _derive(base, label):
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def mirror_chain_learner(*, seed, budget, length=3, action_limit=12,
                         learning_rate, epsilon_start, epsilon_end,
                         epsilon_decay_steps, train_steps, per_exponent,
                         filter_prob, learn_discount, trial_discount):
    """Plain-dict Q-learner on the corridor, reproducing the trained agent's
    draw-for-draw behaviour from its documented contract.

    Mirrors: hash-derived named random streams, the epsilon schedule, action
    selection (exploration coin, then either a uniform pick over allowed
    actions or greedy argmax with a tie draw only on real ties), pre-push
    replay training on surprise-ranked samples, immediate updates on instant
    rewards, and trial finalization that re-keys surprises.  Returns the
    learned {(state, action): value} table.
    """
    action_rng = random.Random(_derive(seed, "action"))
    tie_rng = random.Random(_derive(seed, "ties"))
    replay_rng = random.Random(_derive(seed, "replay"))
    env_seed_rng = random.Random(_derive(seed, "env"))

    q = {}
    n_actions = 2

    def value(state, action):
        return q.get((state, action), 0.0)

    def best(state):
        return max(value(state, a) for a in range(n_actions))

    def greedy(state):
        best_v = None
        tied = []
        for a in range(n_actions):
            v = value(state, a)
            if best_v is None or v > best_v:
                best_v = v
                tied = [a]
            elif v == best_v:
                tied.append(a)
        if len(tied) == 1:
            return tied[0]
        return tied[tie_rng.randrange(len(tied))]

    def learn(state, action, reward, next_state, terminal):
        target = reward if terminal else reward + learn_discount * best(next_state)
        old = value(state, action)
        q[(state, action)] = old + learning_rate * (target - old)

    buf = MirrorReplay(per_exponent, filter_prob, trial_discount)
    done = 0
    trial_id = 0
    while done < budget:
        env_seed_rng.randrange(0, 2 ** 31)  # layout seed; the corridor ignores it
        pos = 0
        steps = 0
        step_index = 0
        while True:
            frac = min(1.0, done / epsilon_decay_steps)
            epsilon = epsilon_start + frac * (epsilon_end - epsilon_start)
            if action_rng.random() < epsilon:
                allowed = [0, 1]
                action = allowed[action_rng.randrange(len(allowed))]
            else:
                action = greedy(pos)
            predicted = value(pos, action)
            before = pos / (length - 1)
            nxt = min(length - 1, pos + 1) if action == 1 else max(0, pos - 1)
            after = nxt / (length - 1)
            steps += 1
            complete = nxt == length - 1
            terminal = complete or steps >= action_limit
            reward = 1.0 if after > before else 0.0
            if len(buf) > 0:
                for _ in range(train_steps):
                    i = buf.sample(replay_rng)
                    e = buf.entries[i]
                    learn(e["state"], e["action"], e["instant"],
                          e["next_state"], e["terminal"])
            buf.push(state=pos, action=action, atype=("back", "forward")[action],
                     instant=reward, predicted=predicted, success=after > before,
                     trial_id=trial_id, step=step_index, next_state=nxt,
                     terminal=terminal)
            done += 1
            step_index += 1
            if terminal:
                buf.finalize(trial_id, complete)
            learn(pos, action, reward, nxt, terminal)
            if terminal or done >= budget:
                break
            pos = nxt
        trial_id += 1
    return q


# ---------------------------------------------------------------------------
# Block-world feature oracle (one action at a time)
# ---------------------------------------------------------------------------


def block_feature_key(state, action, n_cells):
    """The block world's joint feature of one (state, action), derived for
    that action alone: its own decode of the action id and its own scan of
    the heights for the tallest stack and ties."""
    held, heights = state
    if action < n_cells:
        atype, cell, direction = "grasp", action, -1
    elif action < 2 * n_cells:
        atype, cell, direction = "place", action - n_cells, -1
    else:
        atype, cell, direction = "push", (action - 2 * n_cells) // 4, (action - 2 * n_cells) % 4
    max_h = max(heights)
    tgt_h = heights[cell]
    if tgt_h == 0:
        rel = "empty"
    elif tgt_h == max_h:
        rel = "lone_max" if heights.count(max_h) == 1 else "tied_max"
    else:
        rel = "below"
    return ((atype, held, max_h, tgt_h, rel, direction),)
