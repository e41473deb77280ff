"""Command-line entry point.

  subcont run    --experiment monotone_nqp --n 100 --m 50 --K 50 --seeds 20 --out results/
  subcont check  --function nonmonotone_nqp --property submodular --trials 500 --seed 0
  subcont oracle --function nonmonotone_nqp --n 4 --grid 51 --seed 0

The environment variable SUBCONT_SEED overrides the base seed; per-instance
seeds are base + index so sweeps stay independently reproducible.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .core import BoxDomain
from .harness import ExperimentConfig, grid_brute_force, load_bipartite_tsv, run_experiment
from .properties import CHECKERS, DEFAULT_TOL
from .zoo import RevenueInstance, named_instance

DEFAULT_BASE_SEED = 0


def _base_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SUBCONT_SEED")
    if not env:
        return DEFAULT_BASE_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SUBCONT_SEED must be an int, got {env!r}") from None


def _function_or_path(name: str, n: int, seed: int):
    if Path(name).is_file():
        inst = load_bipartite_tsv(name)
        handle = inst.handle()
        if isinstance(inst, RevenueInstance):
            return handle, inst.box()
        return handle, BoxDomain([0.0] * handle.dimension, [1.0] * handle.dimension)
    return named_instance(name, n, seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subcont",
                                     description="benchmark harness for submodular "
                                                 "continuous maximization")
    sub = parser.add_subparsers(dest="command", required=True)

    # unset flags stay out of the namespace, so ExperimentConfig's defaults hold
    run = sub.add_parser("run", help="run an experiment sweep",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--experiment", required=True)
    run.add_argument("--n", type=int)
    run.add_argument("--m", type=int)
    run.add_argument("--K", type=int)
    run.add_argument("--seeds", dest="seed_count", type=int, default=1,
                     help="number of instance seeds")
    run.add_argument("--seed-base", type=int, default=None)
    run.add_argument("--ks", dest="k_s", type=int)
    run.add_argument("--steps", help="comma-separated ProjGrad step sizes")
    run.add_argument("--sweep", help="comma-separated sweep values")
    run.add_argument("--methods", help="comma-separated method names")
    run.add_argument("--grid-oracle", action="store_true")
    run.add_argument("--grid", dest="grid_points", type=int,
                     help="grid points per dimension")
    run.add_argument("--data", dest="data_path")
    run.add_argument("--out", dest="output_dir")

    check = sub.add_parser("check", help="run a sampled property certificate")
    check.add_argument("--function", required=True,
                       help="zoo family name or a TSV edge-list path")
    check.add_argument("--property", dest="prop", required=True,
                       choices=sorted(CHECKERS))
    check.add_argument("--n", type=int, default=4)
    check.add_argument("--trials", type=int, default=500)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)

    oracle = sub.add_parser("oracle", help="grid brute-force maximization")
    oracle.add_argument("--function", required=True)
    oracle.add_argument("--n", type=int, default=4)
    oracle.add_argument("--grid", type=int, default=51)
    oracle.add_argument("--seed", type=int, default=None)
    return parser


def _comma_list(text: str, kind) -> list:
    return [kind(s) for s in text.split(",") if s]


def _cmd_run(args) -> int:
    base = _base_seed(args.seed_base)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
             if hasattr(args, f.name)}
    for key, kind in (("steps", float), ("sweep", float), ("methods", str)):
        if key in given:
            given[key] = _comma_list(given[key], kind)
    cfg = ExperimentConfig(**given, seeds=[base + i for i in range(args.seed_count)])
    records = run_experiment(cfg)
    print(f"wrote {len(records)} result records to {cfg.output_dir}")
    return 0


def _cmd_check(args) -> int:
    seed = _base_seed(args.seed)
    handle, box = _function_or_path(args.function, args.n, seed)
    report = CHECKERS[args.prop](handle, box, args.trials, args.tol, seed=seed)
    print(json.dumps({"function": args.function, "property": args.prop,
                      "seed": seed, "report": report.to_dict()},
                     indent=2, sort_keys=True))
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    seed = _base_seed(args.seed)
    handle, box = _function_or_path(args.function, args.n, seed)
    x_star, f_star = grid_brute_force(handle, box, args.grid)
    print(json.dumps({"function": args.function, "seed": seed,
                      "points_per_dim": args.grid,
                      "x_star": x_star.tolist(), "f_star": f_star},
                     indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_oracle(args)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
