"""Command-line experiment runner.

Verbs: validate, train, run, table, sweep, curves. Results land under
--out, defaulting to $UAVISAC_OUT or ./results. Exit codes: 0 success,
1 bad input (a usage or validation error), 2 runtime failure.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .drl_mappo import train
from .harness import (AXES, METHODS, ExperimentSpec, emit_comparison_table,
                      emit_sweep_data, run_experiment, scenario_config_for,
                      seed_problems, train_checkpoint, training_config,
                      validate_spec)
from .scenario import build_scenario, validate_config


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error, exiting 1 (bad input) rather than 2."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_root(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("UAVISAC_OUT", "results")


# the search and training counts that size a loop or an array
_COUNT_KEYS = (("pso", "swarm"), ("ga", "population"), ("mappo", "hidden"),
               ("mappo", "minibatch"), ("mappo", "epochs"),
               ("mappo", "smooth_window"), ("mappo", "max_episodes"),
               ("mappo", "rollout"))


def _require_counts(named):
    """Bad input unless every (name, value) count is unset (None) or >= 1."""
    low = [name for name, value in named if value is not None and value < 1]
    if low:
        raise ValidationFailure(f"counts must be at least 1: {', '.join(low)}")


def _load_config(path):
    """The run configuration; unreadable or malformed files, propulsion
    parameters out of range, counts below 1, non-finite reals and an energy
    scale that is not positive are bad input."""
    try:
        run_config = load_config(path)
    except (OSError, ValueError, configparser.Error) as exc:
        raise ValidationFailure(f"cannot load config: {exc}") from exc
    try:
        run_config.propulsion.validate()
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    _require_counts((f"[{section}] {key}", getattr(getattr(run_config, section), key))
                    for section, key in _COUNT_KEYS)
    # the scenario and propulsion checks cover their own reals
    non_finite = [f"[{section}] {key}" for section in ("reward", "pso", "ga", "mappo")
                  for key, value in vars(getattr(run_config, section)).items()
                  if isinstance(value, float) and not math.isfinite(value)]
    if non_finite:
        raise ValidationFailure(f"values must be finite: {', '.join(non_finite)}")
    if run_config.reward.energy_scale <= 0:
        raise ValidationFailure("[reward] energy_scale must be positive")
    return run_config


def _number(tok: str):
    """An int, or a float when written with a point, minus or exponent."""
    return float(tok) if any(c in tok for c in ".-eE") else int(tok)


def _parse_list(raw: str, convert, flag: str) -> tuple:
    try:
        return tuple(convert(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ValidationFailure(f"{flag}: {exc}") from exc


def _require(problems):
    for p in problems:
        print(f"violation: {p}")
    if problems:
        raise ValidationFailure(f"{len(problems)} violation(s)")


def _spec_from_args(args) -> ExperimentSpec:
    _require_counts((("--episodes", args.episodes), ("--workers", args.workers)))
    spec = ExperimentSpec(
        run_config=_load_config(args.config),
        methods=tuple(args.methods.replace(",", " ").split()),
        axis=args.axis,
        values=_parse_list(args.values, _number, "--values"),
        seeds=_parse_list(args.seeds, int, "--seeds"),
        out_dir=_out_root(args),
        train_first=args.train_first,
        train_episodes=args.episodes,
        workers=args.workers,
    )
    problems = validate_spec(spec)
    if not problems:
        for value in spec.values:
            problems += validate_config(
                scenario_config_for(spec.run_config, spec.axis, value))
    _require(problems)
    return spec


def cmd_validate(args) -> int:
    run_config = _load_config(args.config)
    _require(validate_config(run_config.scenario))
    build_scenario(run_config.scenario)
    print("configuration valid")
    return 0


def _progress(label: str, mappo):
    """A train progress callback that prints, to stderr, every 50 episodes
    and after the last one, the episode, the smoothed reward and the success
    rate over the smoothing window."""
    def report(episode, curve):
        done = episode + 1
        if done % 50 and done != mappo.max_episodes:
            return
        window = curve.success[-mappo.smooth_window:]
        print(f"{label}: episode {done}/{mappo.max_episodes}, smoothed reward "
              f"{curve.smoothed[-1]:.3f}, success {sum(window) / len(window):.2f}",
              file=sys.stderr, flush=True)
    return report


def _train_progress(spec):
    """The _progress callback of each axis value's checkpoint training."""
    mappo = training_config(spec)
    return lambda value: _progress(f"train {spec.axis} = {value}", mappo)


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    progress = _train_progress(spec)
    for value in spec.values:
        path = train_checkpoint(spec, value, progress(value))
        print(f"checkpoint written: {path}")
    return 0


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    rows = run_experiment(spec, _train_progress(spec))
    print(f"{len(rows)} result rows written to {spec.out_dir}/results.csv")
    return 0


def cmd_table(args) -> int:
    path = emit_comparison_table(_out_root(args))
    print(f"comparison table written: {path}")
    return 0


def cmd_sweep(args) -> int:
    path = emit_sweep_data(_out_root(args), args.axis)
    print(f"sweep data written: {path}")
    return 0


def cmd_curves(args) -> int:
    _require_counts((("--episodes", args.episodes),))
    run_config = _load_config(args.config)
    _require(validate_config(run_config.scenario))
    seeds = _parse_list(args.seeds, int, "--seeds")
    _require(seed_problems(seeds))
    out = Path(_out_root(args))
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        mappo = replace(run_config.mappo, seed=seed)
        if args.episodes is not None:
            mappo = replace(mappo, max_episodes=args.episodes)
        scenario = build_scenario(run_config.scenario)
        _, curve = train(scenario, mappo, run_config.reward,
                         _progress(f"curves seed {seed}", mappo),
                         run_config.propulsion)
        path = out / f"curve_seed{seed}.csv"
        curve.write_csv(path)
        print(f"learning curve written: {path}")
    return 0


def _comma(items) -> str:
    return ",".join(map(str, items))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uavisac",
        description="Multi-UAV corridor data-collection experiments with "
                    "ISAC QoS feasibility checks")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_grid=False):
        p.add_argument("--config", default=None,
                       help="config file (built-in defaults otherwise)")
        p.add_argument("--out", default=None,
                       help="output directory (default $UAVISAC_OUT or ./results)")
        if needs_grid:
            p.add_argument("--methods", default=_comma(METHODS),
                           help=f"comma list from {METHODS}")
            p.add_argument("--axis", default=ExperimentSpec.axis, choices=AXES)
            p.add_argument("--values", default=_comma(ExperimentSpec.values),
                           help="sweep values (sinr_threshold axis in dB)")
            p.add_argument("--seeds", default=_comma(ExperimentSpec.seeds))
            p.add_argument("--train-first", action="store_true",
                           help="train missing DRL checkpoints before running")
            p.add_argument("--episodes", type=int, default=None,
                           help="training episode override")
            p.add_argument("--workers", type=int, default=1,
                           help="parallel grid workers: a task is the DRL pair, "
                           "greedy_online, or the offline plans (greedy_offline, PSO, "
                           "GA) of one value (the CSVs do not depend on it)")

    p = sub.add_parser("validate", help="check a configuration file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train MAPPO checkpoints for sweep values")
    common(p, needs_grid=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run a method/axis/seed experiment grid")
    common(p, needs_grid=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table", help="emit the UAV-count comparison table")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="emit long-format sweep + reduction data")
    common(p)
    p.add_argument("--axis", default="md_count", choices=AXES)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("curves", help="train and emit learning curves")
    common(p)
    p.add_argument("--seeds", default=_comma(ExperimentSpec.seeds))
    p.add_argument("--episodes", type=int, default=None)
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
