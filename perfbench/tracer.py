"""Per-layer call counts and inclusive seconds, recorded from outside the
program by wrapping its public functions.

A function imported by name (``from .spotq import masked_argmax``) is bound
in several module namespaces; each binding is what its callers look up, so
the wrapper replaces every binding of the original object in every loaded
``spotrl`` module, not only the defining one. Methods are wrapped on each
class that defines them. ``uninstall`` puts every original back, so an
untraced repeat in the same process runs the program unchanged.

The wrappers draw no randomness and pass arguments and results through
untouched, so a traced run must write byte-identical artifacts.
"""
from __future__ import annotations

import sys
import time
from typing import Callable, Optional

# layer metric prefix -> "module:Class.method" or "module:function" targets,
# all relative to the ``spotrl`` package. A prefix aggregates every target
# it lists (both environments report under ``envs``).
TARGETS: dict[str, tuple[str, ...]] = {
    "envs.reset": ("envs.gridworld:GridWorld.reset", "envs.blockworld:BlockWorld.reset"),
    "envs.ideal_actions": ("envs.gridworld:GridWorld.ideal_actions",
                           "envs.blockworld:BlockWorld.ideal_actions"),
    "envs.step": ("envs.gridworld:GridWorld.step", "envs.blockworld:BlockWorld.step"),
    "envs.mask_for": ("envs.gridworld:GridWorld.mask_for", "envs.blockworld:BlockWorld.mask_for"),
    "qfunction.value": ("qfunction:TabularQ.value", "qfunction:LinearQ.value"),
    "qfunction.best_value": ("qfunction:QFunction.best_value", "qfunction:TabularQ.best_value",
                             "qfunction:LinearQ.best_value"),
    "qfunction.update": ("qfunction:TabularQ.update", "qfunction:LinearQ.update"),
    "spotq.targets": ("spotq:targets",),
    "spotq.masked_argmax": ("spotq:masked_argmax",),
    "replay.sample": ("replay:ReplayBuffer.sample",),
    "replay.train_step": ("replay:train_step",),
    "replay.apply_update": ("replay:apply_update",),
    "replay.push": ("replay:ReplayBuffer.push",),
    "replay.finalize_trial": ("replay:ReplayBuffer.finalize_trial",),
    "rewards.backfill": ("rewards:backfill",),
    "rewards.instant_reward": ("rewards:instant_reward",),
    "trainer.select_action": ("trainer:select_action",),
    "trainer.masked_policy_flag": ("trainer:masked_policy_flag",),
    "trainer.run_validation": ("trainer:run_validation",),
    "trainer.evaluate": ("trainer:evaluate",),
    "harness.write_csv": ("harness:write_csv",),
    "harness.dump_qfunction": ("qfunction:dump_qfunction",),
    "harness.write_json": ("harness:write_json",),
}

PACKAGE = "spotrl"


class Tracer:
    """Counts calls and sums inclusive wall seconds per layer prefix.

    Also records the two values only a result can show: how often
    ``spotq.targets`` emitted the extra masked target, and the last replay
    buffer pushed to (for its eligible size once training ends).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {prefix: [0, 0.0] for prefix in TARGETS}
        self.masked_fired = 0
        self.last_buffer = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset_counts(self) -> None:
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
        self.masked_fired = 0
        self.last_buffer = None

    def calls(self, prefix: str) -> int:
        return self.stats[prefix][0]

    def seconds(self, prefix: str) -> float:
        return self.stats[prefix][1]

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, prefix: str, fn: Callable) -> Callable:
        stat = self.stats[prefix]
        clock = time.perf_counter
        after = self._after_hook(prefix)

        if after is None:
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += clock() - t0
        else:
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += clock() - t0
                after(args, result)
                return result
        traced.__wrapped__ = fn
        return traced

    def _after_hook(self, prefix: str) -> Optional[Callable]:
        """Reads a call's arguments or result, outside the timed interval."""
        if prefix == "spotq.targets":
            def count_fired(args, result) -> None:
                if result.masked_action is not None:
                    self.masked_fired += 1
            return count_fired
        if prefix == "replay.push":
            def keep_buffer(args, result) -> None:
                self.last_buffer = args[0]
            return keep_buffer
        return None

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and reads zero instead of failing the run."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for prefix, targets in TARGETS.items():
            for target in targets:
                module_name, _, attr_path = target.partition(":")
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                owner_name, _, method = attr_path.rpartition(".")
                if module is None:
                    self.missing.append(target)
                    continue
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    if cls is None or not hasattr(cls, method):
                        self.missing.append(target)
                        continue
                    if method not in vars(cls):
                        continue  # inherited: wrapped on the defining class
                    original = vars(cls)[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrapper(prefix, original))
                    continue
                original = getattr(module, method, None)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapped = self._wrapper(prefix, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, name, original))
                            setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
