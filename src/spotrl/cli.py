"""Command-line front-end: ``spotrl train``, ``spotrl eval``, ``spotrl sweep``.

``train`` and ``sweep`` read an optional flat ``key = value`` config file;
explicit flags override file values, and ``--set`` overrides both. Exit
codes: 0 success, 1 sweep with crashed cells, 2 invalid configuration or
arguments, 3 I/O failure. Commands raise; ``main`` alone turns a failure
into its ``error:`` line and exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import harness
from .rewards import ConfigError
from .trainer import evaluate

EXIT_OK = 0
EXIT_FAILED_CELLS = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class WriteError(Exception):
    """A failed artifact write: exits with ``code``, and its message is the
    stderr line after ``error: ``."""

    code = EXIT_IO


@contextmanager
def _writing(what: str):
    """Turn an OSError in the block into a WriteError naming ``what``."""
    try:
        yield
    except OSError as exc:
        raise WriteError(f"cannot write {what}: {exc}") from None


def _settings(args: argparse.Namespace) -> dict[str, str]:
    """The config file's values, overridden by every flag given, then by
    each ``--set``."""
    values: dict[str, str] = {}
    if args.config is not None:
        try:
            values = harness.parse_config_text(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
    for key, flag in vars(args).items():
        if flag is not None and key not in ("command", "func", "config", "set"):
            values[key] = str(flag)
    for pair in args.set:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        values[key.strip()] = value.strip()
    return values


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat key=value config file")
    p.add_argument("--env", choices=harness.ENVIRONMENTS, help="environment to train in")
    p.add_argument("--task", help="blockworld task (stack, row, clear)")
    p.add_argument("--budget", type=int, help="training action budget")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")


def cli_train(args: argparse.Namespace) -> int:
    rc = harness.resolve_run_config(_settings(args))
    with _writing("run artifacts"):
        summary = harness.run_single(rc)
    print(f"run {summary['run_id']}: completion_rate={summary['completion_rate']:.3f} "
          f"mean_efficiency={summary['mean_efficiency']:.3f} "
          f"convergence_actions={summary['convergence_actions']}")
    print(f"artifacts: {rc.out}")
    return EXIT_OK


def cli_eval(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    out_path = Path(args.out) if args.out else harness.output_root() / "eval.json"
    if out_path.suffix == ".csv":
        raise ConfigError(f"--out {out_path} is where the trial CSV goes; "
                          "give the JSON another suffix")
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ConfigError(f"model file not found: {model_path}")
    try:
        q, rc = harness.load_qdump(model_path)
    except ConfigError as exc:
        raise ConfigError(f"model header: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot parse model file: {exc}") from None

    use_mask = rc.use_mask if args.mask is None else args.mask
    env_factory = rc.make_env
    if args.scenario is not None:
        try:
            env = rc.make_env(Path(args.scenario).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file: {exc}") from None
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"bad scenario file: {exc}") from None
        env_factory = lambda: env

    summary, trials = evaluate(q, env_factory, args.trials, seed=args.seed,
                               use_mask=use_mask)
    payload = {
        "model": str(model_path),
        "trials": args.trials,
        "seed": args.seed,
        "use_mask": use_mask,
        **summary,
    }
    with _writing(str(out_path)):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        harness.write_json(out_path, payload)
        harness.write_csv(out_path.with_suffix(".csv"), harness.TRIAL_COLUMNS,
                           harness.trial_csv_rows(trials))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cli_sweep(args: argparse.Namespace) -> int:
    spec = harness.resolve_experiment_spec(_settings(args))
    with _writing("sweep artifacts"):
        crashes, table = harness.run_sweep(spec)
    print(table, end="")
    print(f"artifacts: {spec.out}")
    for rc, tb, written in crashes:
        if written:
            print(f"error: run {rc.out} crashed; see {Path(rc.out) / 'error.txt'}",
                  file=sys.stderr)
        else:
            print(f"error: run {rc.out} crashed and its error.txt could not be written:\n"
                  f"{tb}", end="", file=sys.stderr)
    return EXIT_FAILED_CELLS if crashes else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotrl",
        description="Train, evaluate, and sweep masked Q-learning agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one cell on one seed")
    _common_run_flags(p_train)
    p_train.add_argument("--seed", type=int, help="run seed")
    p_train.add_argument("--cell", help="cell token, e.g. spotq+progress")
    p_train.set_defaults(func=cli_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved Q-function")
    p_eval.add_argument("--model", required=True, help="qtable.txt from a run")
    p_eval.add_argument("--trials", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--mask", action=argparse.BooleanOptionalAction, default=None,
                        help="override the model's own masking setting")
    p_eval.add_argument("--scenario", metavar="FILE",
                        help="replay a fixed start (the model env's to_text) on every trial")
    p_eval.add_argument("--out", help="where to write eval JSON (and CSV beside it)")
    p_eval.set_defaults(func=cli_eval)

    p_sweep = sub.add_parser("sweep", help="run an ablation grid of cells x seeds")
    _common_run_flags(p_sweep)
    p_sweep.add_argument("--cells", help="comma-separated cell tokens")
    p_sweep.add_argument("--seeds", help="comma-separated seeds")
    p_sweep.add_argument("--workers", type=int, help="parallel worker processes")
    p_sweep.set_defaults(func=cli_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
