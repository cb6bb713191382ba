"""One workload unit in its own process: a full ``harness.run_single`` cell
on one seed, timed by phase, then checked.

    python3 perfbench/unit.py <workload> <seed> <out-dir> [--smoke] [--trace]

Runs the calibration loop, imports the program, and prints ``ready`` when
training takes its first action (the parent times ``setup_s`` from spawning
this process to that line, less the calibration). Then prints one JSON line
with the unit's timings, machine speed, peak memory, artifact digests, check
errors and, with ``--trace``, the per-layer counts and seconds. A process per
unit gives each unit its own peak-memory reading and its own cold start.
"""
from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from tracer import Tracer
from workloads import WORKLOADS, check_artifacts, check_reload, digests, eval_actions, \
    replay_updates, training_actions

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_LOOPS = 30_000
CALIBRATION_REFERENCE_S = 0.05  # the calibration loops' time at machine speed 1.0


def calibrate() -> float:
    """Seconds for fixed loops of the kinds of work the program's hot paths
    do: reads and writes of dicts keyed by (pose, layout)-shaped tuples, on
    a 64-key table that stays in cache and a 16384-key one that does not,
    with float updates and random draws.

    Shared machines drift in speed by tens of percent over minutes, and a
    drift that long moves a whole unit alike. Each unit runs these loops
    before it imports the program and again after training; the machine
    speed is the reference time over their mean. A run's median rates are
    divided by its median speed and its setup time multiplied by it. The
    loops touch only builtins, so no change to the program can move them.
    """
    rng = random.Random(0)
    elapsed = 0.0
    for n in (64, 16_384):
        keys = [((i % 9, i // 9 % 9, "NESW"[i % 4], ((i % 13, 1), (2, i % 11))), i % 3)
                for i in range(n)]
        table: dict = {}
        t0 = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            key = keys[i * 7919 % n]
            old = table.get(key, 0.0)
            table[key] = old + 0.3 * (rng.random() - old)
        elapsed += time.perf_counter() - t0
    return elapsed


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``src/spotrl``."""


def import_program():
    """The program under ``src/`` next to the benchmark, never an installed copy."""
    if not (SRC / "spotrl" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'spotrl'}")
    sys.path.insert(0, str(SRC))
    import spotrl
    from spotrl import harness
    if not Path(spotrl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"spotrl imported from {spotrl.__file__}, not {SRC}")
    return harness


class PhaseClock:
    """Times training, evaluation and the converging validation round of one
    ``run_single`` call by wrapping the names harness looks up (one call
    each per cell, plus one per validation round)."""

    def __init__(self, harness, rc, tracer: Optional[Tracer]):
        self.harness = harness
        self.rc = rc
        self.tracer = tracer
        self.start = 0.0
        self.train_s = 0.0
        self.eval_s = 0.0
        self.converge_s: Optional[float] = None
        self.train_value_calls = 0
        self._saved = []

    def _value_calls(self) -> int:
        return self.tracer.calls("qfunction.value") if self.tracer else 0

    def _timed(self, fn, attr):
        def timed(*args, **kwargs):
            value_calls = self._value_calls()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, time.perf_counter() - t0)
                if attr == "train_s":
                    self.train_value_calls = self._value_calls() - value_calls
        return timed

    def _on_validation(self, fn):
        def on_validation(logger, round_index, action_count, completed):
            if self.converge_s is None and completed == self.rc.validation_trials:
                self.converge_s = time.perf_counter() - self.start
            return fn(logger, round_index, action_count, completed)
        return on_validation

    def __enter__(self) -> "PhaseClock":
        h = self.harness
        self._saved = [(h, "run_training", h.run_training), (h, "evaluate", h.evaluate),
                       (h.RunLogger, "on_validation", h.RunLogger.on_validation)]
        h.run_training = self._timed(h.run_training, "train_s")
        h.evaluate = self._timed(h.evaluate, "eval_s")
        h.RunLogger.on_validation = self._on_validation(h.RunLogger.on_validation)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)


def run_unit(harness, rc, tracer: Optional[Tracer] = None) -> dict:
    """Run one cell and return its timings, counts and digests."""
    out = Path(rc.out)
    shutil.rmtree(out, ignore_errors=True)
    with PhaseClock(harness, rc, tracer) as clock:
        summary = harness.run_single(rc)
        wall = time.perf_counter() - clock.start
    actions = training_actions(rc, summary)
    result = {
        "wall_s": wall, "train_s": clock.train_s, "eval_s": clock.eval_s,
        "converge_s": clock.converge_s, "actions": actions,
        "updates": replay_updates(rc, summary, out), "eval_trials": rc.eval_trials,
        "eval_actions": eval_actions(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": summary, "digests": digests(out),
    }
    if tracer is not None:
        fired = tracer.masked_fired
        targets_calls = tracer.calls("spotq.targets")
        result["counts"] = {
            **{f"{p}.calls": tracer.calls(p) for p in tracer.stats},
            "qfunction.value.calls_per_action": clock.train_value_calls / actions,
            "spotq.masked_target.fired": fired,
            "spotq.masked_target.fire_ratio": fired / targets_calls if targets_calls else 0.0,
            "replay.eligible_final": tracer.last_buffer.eligible if tracer.last_buffer else 0,
        }
        result["layer_s"] = {p: tracer.seconds(p) for p in tracer.stats}
        result["missing"] = tracer.missing
    return result


def announce_first_action(trainer) -> None:
    """Print ``ready`` on the first training action, then step aside."""
    select_action = trainer.select_action

    def first(*args, **kwargs):
        trainer.select_action = select_action
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return select_action(*args, **kwargs)
    trainer.select_action = first


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    smoke, trace = "--smoke" in argv[3:], "--trace" in argv[3:]
    t0 = time.perf_counter()
    calibration = [calibrate()]
    before_import_s = time.perf_counter() - t0
    try:
        harness = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from spotrl import trainer
    tracer = Tracer() if trace else None
    rc = harness.resolve_run_config(WORKLOADS[name].config_values(seed, smoke, out))
    if tracer is not None:
        tracer.install()
    announce_first_action(trainer)
    try:
        result = run_unit(harness, rc, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration.append(calibrate())
    result["before_import_s"] = before_import_s
    result["speed"] = CALIBRATION_REFERENCE_S / statistics.mean(calibration)
    result["errors"] = check_artifacts(rc, result["summary"], out)
    result["errors"] += check_reload(harness, rc, result["summary"], out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
