"""Command-line front-end: ``spotrl train``, ``spotrl eval``, ``spotrl sweep``.

``train`` and ``sweep`` read an optional flat ``key = value`` config file;
explicit flags override file values, and ``--set`` overrides both. Exit
codes: 0 success, 1 sweep with crashed cells, 2 invalid configuration or
arguments, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .rewards import ConfigError
from .trainer import evaluate

EXIT_OK = 0
EXIT_FAILED_CELLS = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return harness.parse_config_text(text)


def _apply_set_overrides(values: dict[str, str], pairs: list[str]) -> None:
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        values[key.strip()] = value.strip()


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat key=value config file")
    p.add_argument("--env", choices=harness.ENVIRONMENTS, help="environment to train in")
    p.add_argument("--task", help="blockworld task (stack, row, clear)")
    p.add_argument("--budget", type=int, help="training action budget")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")


def _merge_flags(args: argparse.Namespace, values: dict[str, str]) -> None:
    """Fold explicit flags over the config-file values (flags win)."""
    for key in ("env", "task", "seed", "budget", "out", "cell", "cells", "seeds", "workers"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    _apply_set_overrides(values, args.set)


def cli_train(args: argparse.Namespace) -> int:
    try:
        values = _load_config_file(args.config)
        _merge_flags(args, values)
        rc = harness.resolve_run_config(values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = harness.run_single(rc)
    except OSError as exc:
        print(f"error: cannot write run artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"run {summary['run_id']}: completion_rate={summary['completion_rate']:.3f} "
          f"mean_efficiency={summary['mean_efficiency']:.3f} "
          f"convergence_actions={summary['convergence_actions']}")
    print(f"artifacts: {rc.out}")
    return EXIT_OK


def cli_eval(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    out_path = Path(args.out) if args.out else harness.output_root() / "eval.json"
    if out_path.suffix == ".csv":
        print(f"error: --out {out_path} is where the trial CSV goes; "
              "give the JSON another suffix", file=sys.stderr)
        return EXIT_CONFIG
    model_path = Path(args.model)
    if not model_path.is_file():
        print(f"error: model file not found: {model_path}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        q, fields = harness.load_qdump(model_path)
        rc = harness.header_run_config(fields)
    except ConfigError as exc:
        print(f"error: model header: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"error: cannot parse model file: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    use_mask = rc.use_mask if args.mask is None else args.mask
    env_factory = rc.make_env
    if args.scenario is not None:
        try:
            env = rc.make_env(Path(args.scenario).read_text())
        except OSError as exc:
            print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (ValueError, RuntimeError) as exc:
            print(f"error: bad scenario file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        env_factory = lambda: env

    summary, trials = evaluate(q, env_factory, args.trials, seed=args.seed,
                               use_mask=use_mask)
    payload = {
        "model": str(model_path),
        "trials": args.trials,
        "seed": args.seed,
        "use_mask": use_mask,
        "completion_rate": summary["completion_rate"],
        "mean_efficiency": summary["mean_efficiency"],
        "success_rates": summary["success_rates"],
    }
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        harness.write_json(out_path, payload)
        harness.write_csv(out_path.with_suffix(".csv"), harness.TRIAL_COLUMNS,
                           harness.trial_csv_rows(trials))
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cli_sweep(args: argparse.Namespace) -> int:
    try:
        values = _load_config_file(args.config)
        _merge_flags(args, values)
        spec = harness.resolve_experiment_spec(values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        crashes, cell_summaries = harness.run_sweep(spec)
    except OSError as exc:
        print(f"error: cannot write sweep artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    table = harness.format_aligned(harness.SWEEP_COLUMNS,
                                   harness.sweep_table_rows(cell_summaries))
    print(table, end="")
    print(f"artifacts: {spec.out}")
    for rc, tb, written in crashes:
        if written:
            print(f"error: run {rc.out} crashed; see {Path(rc.out) / 'error.txt'}",
                  file=sys.stderr)
        else:
            print(f"error: run {rc.out} crashed and its error.txt could not be written:\n"
                  f"{tb}", end="", file=sys.stderr)
    if crashes:
        return EXIT_FAILED_CELLS
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
