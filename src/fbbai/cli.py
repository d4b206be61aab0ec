"""Command line front end.

Subcommands: ``run`` (one Monte-Carlo point), ``sweep`` (a named preset),
``design`` (solve and print an exploration design for an arms CSV), and
``bound`` (print a theoretical error bound).  Exit codes: 0 success, 2
configuration or input error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bounds import (BoundInputs, bound_glm_general, bound_glm_gopt,
                     bound_linear_general, bound_linear_gopt)
from .design import allocate_budget, fw_g_optimal
from .errors import (BudgetTooSmallError, ConfigurationError,
                     DegenerateInputError, FbbaiError, SingularDesignError,
                     UndefinedBoundError)
from .harness import (PRESETS, VARIANTS, SweepPoint, format_csv, format_json,
                      run_point, run_preset, write_csv, write_json)
from .instances import load_features

# the instance options each family reads; giving any other one is an error
FAMILY_OPTIONS = {
    "adaptive": ("d", "omega", "sigma2"),
    "static": ("delta", "K", "sigma2"),
    "sphere": ("K", "d", "sigma2"),
    "logistic": ("K", "d"),
    "corner": ("K", "sigma2"),
    "csv": ("features", "theta", "model", "bernoulli", "sigma2"),
}
INSTANCE_OPTIONS = tuple(dict.fromkeys(
    name for names in FAMILY_OPTIONS.values() for name in names))
# the values a family uses for options that are not given
FAMILY_DEFAULTS = {
    "static": {"delta": 1.0},
    "sphere": {"K": 16, "d": 10},
    "logistic": {"K": 8, "d": 10},
    "corner": {"K": 10},
    "csv": {"model": "linear", "sigma2": 1.0},
}
# the options a family cannot run without
FAMILY_REQUIRED = {"adaptive": ("d",), "csv": ("features", "theta")}
# options whose instance keyword has another name
PARAM_NAMES = {"features": "features_path", "theta": "theta_path"}

CONFIG_ERRORS = (ConfigurationError, DegenerateInputError, SingularDesignError,
                 BudgetTooSmallError, UndefinedBoundError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbbai",
        description="Fixed-budget best-arm identification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one Monte-Carlo point")
    run.add_argument("--family", required=True, choices=tuple(FAMILY_OPTIONS))
    run.add_argument("--variant", required=True, choices=sorted(VARIANTS))
    run.add_argument("--budget", required=True, type=int)
    run.add_argument("--replications", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--eta", type=float, default=2.0)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--no-wall-time", action="store_true",
                     help="omit the wall-time column for byte-stable output")
    run.add_argument("--K", type=int, default=None)
    run.add_argument("--d", type=int, default=None)
    run.add_argument("--delta", type=float, default=None,
                     help="gap parameter of the static family")
    run.add_argument("--omega", type=float, default=None,
                     help="angle parameter of the adaptive family")
    run.add_argument("--sigma2", type=float, default=None)
    run.add_argument("--features", default=None,
                     help="arms CSV for --family csv")
    run.add_argument("--theta", default=None,
                     help="parameter vector file for --family csv")
    run.add_argument("--model", choices=("linear", "glm"), default=None,
                     help="reward model for --family csv (default linear)")
    run.add_argument("--bernoulli", action="store_true",
                     help="Bernoulli rewards for --family csv with --model glm")

    sweep = sub.add_parser("sweep", help="run a named preset")
    sweep.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--replications", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--format", choices=("csv", "json", "both"),
                       default="both")
    sweep.add_argument("--no-wall-time", action="store_true")

    design = sub.add_parser("design", help="solve an exploration design")
    design.add_argument("--arms", required=True, help="arms CSV (header x1..xd)")
    design.add_argument("--budget", type=int, default=None,
                        help="also print a rounded allocation of this size")
    design.add_argument("--tol", type=float, default=0.01)
    design.add_argument("--iterations", type=int, default=None)

    bound = sub.add_parser("bound", help="print a theoretical error bound")
    bound.add_argument("--K", required=True, type=int)
    bound.add_argument("--d", required=True, type=int)
    bound.add_argument("--eta", type=float, default=2.0)
    bound.add_argument("--sigma2", required=True, type=float)
    bound.add_argument("--delta-min", required=True, type=float)
    bound.add_argument("--B", type=int, default=None)
    bound.add_argument("--c-min", type=float, default=None,
                       help="mean-function derivative floor (selects GLM bound)")
    bound.add_argument("--norm-terms", default=None,
                       help="comma-separated per-stage norms (selects general form)")
    return parser


def _family_params(args: argparse.Namespace) -> dict:
    # by identity: 0 == False, and --d 0 or --sigma2 0 counts as given
    given = {name: getattr(args, name) for name in INSTANCE_OPTIONS
             if getattr(args, name) is not None
             and getattr(args, name) is not False}
    foreign = [f"--{name}" for name in given
               if name not in FAMILY_OPTIONS[args.family]]
    if foreign:
        raise ConfigurationError(
            f"--family {args.family} does not take {', '.join(foreign)}")
    required = FAMILY_REQUIRED.get(args.family, ())
    if any(name not in given for name in required):
        raise ConfigurationError(f"--family {args.family} needs "
                                 + " and ".join(f"--{name}" for name in required))
    params = {**FAMILY_DEFAULTS.get(args.family, {}), **given}
    return {PARAM_NAMES.get(name, name): value for name, value in params.items()}


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out and not Path(args.out).parent.is_dir():
        raise ConfigurationError(
            f"cannot write {args.out}: directory {Path(args.out).parent} "
            "does not exist")
    point = SweepPoint(args.family, args.family, _family_params(args),
                       "budget", float(args.budget), args.variant,
                       args.budget, args.eta)
    row = run_point(point, args.replications, args.seed, args.workers)
    include_wall = not args.no_wall_time
    if args.format == "json":
        text = format_json([row], include_wall_time=include_wall)
    else:
        text = format_csv([row], include_wall_time=include_wall)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = run_preset(args.preset, replications=args.replications,
                        seed=args.seed, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    include_wall = not args.no_wall_time
    if args.format in ("csv", "both"):
        write_csv(out / f"{args.preset}.csv", result.rows,
                  include_wall_time=include_wall)
    if args.format in ("json", "both"):
        write_json(out / f"{args.preset}.json", result.rows,
                   include_wall_time=include_wall)
    print(f"wrote {len(result.rows)} rows to {out}", file=sys.stderr)
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    arms = load_features(args.arms)
    design = fw_g_optimal(arms, iterations=args.iterations, tol=args.tol)
    counts = None
    if args.budget is not None:
        counts = allocate_budget(args.budget, design, arms)
    print(f"arms={arms.shape[0]} dim={arms.shape[1]} "
          f"g={design.g_value:.6f} certified={design.certified} "
          f"iterations={design.iterations_used}", file=sys.stderr)
    header = "arm,weight" + (",count" if counts is not None else "")
    print(header)
    for i, w in enumerate(design.weights):
        line = f"{i},{w:.12g}"
        if counts is not None:
            line += f",{counts[i]}"
        print(line)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    norm_terms = None
    if args.norm_terms:
        norm_terms = tuple(float(v) for v in args.norm_terms.split(","))
    inputs = BoundInputs(K=args.K, d=args.d, eta=args.eta, sigma2=args.sigma2,
                         delta_min=args.delta_min, budget=args.B,
                         c_min=args.c_min if args.c_min is not None else 1.0,
                         norm_terms=norm_terms)
    glm = args.c_min is not None
    if norm_terms is not None:
        value = bound_glm_general(inputs) if glm else bound_linear_general(inputs)
    else:
        value = bound_glm_gopt(inputs) if glm else bound_linear_gopt(inputs)
    print(f"{value:.12g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "design": _cmd_design,
                "bound": _cmd_bound}
    try:
        return handlers[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"fbbai: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"fbbai: {exc}", file=sys.stderr)
        return 2
    except FbbaiError as exc:
        print(f"fbbai: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
