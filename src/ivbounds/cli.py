"""Command-line interface: bounds estimation, simulation, illustration, checks.

Subcommands
-----------
bounds      estimate ATE bounds from a CSV file and emit a JSON report
simulate    run the margin-design RMSE experiment grid (JSON + long CSV)
illustrate  emit the illustration design's true and estimated quantities
check       check the closed-form bounds of random laws against the LP sharpness
            oracle, and that they contain the ATE and nest in the natural bounds
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import ctypes
import json
import os
import sys

import numpy as np

from . import __version__
from .bounds import check_sharpness
from .continuous import OutcomeTransform, continuous_bounds
from .crossfit import (DEFAULT_EPS, DEFAULT_FOLDS, check_cross_fit_settings, cross_fit,
                       rng_stream)
from .data import ColumnMapping, LoadError, load_csv
from .estimators import direct_bounds, wald_interval
from .learners import FitError, parse_learner_spec
from .lse import check_temperature, lse_bounds
from .simulation import (gen_illustration, illustration_truth, rmse_experiment,
                         width_comparison)

__all__ = ["main", "build_parser"]

REPORT_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ivbounds",
                                description="Nonparametric instrument-based ATE bounds")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    what = "estimate ATE bounds from a CSV file and emit a JSON report"
    b = sub.add_parser("bounds", help=what, description=what)
    b.add_argument("input", help="CSV file with a header row")
    b.add_argument("--covariates", required=True,
                   help="comma-separated covariate column names")
    b.add_argument("--instrument", required=True, help="binary instrument column Z")
    b.add_argument("--exposure", required=True, help="binary exposure column A")
    b.add_argument("--outcome", required=True,
                   help="outcome column Y: binary, or bounded with --method continuous")
    b.add_argument("--weights-col", default=None, help="positive sampling-weight column")
    b.add_argument("--method", choices=["direct", "lse", "continuous"], default="direct",
                   help="one-step, smooth (log-sum-exp) or bounded-continuous-outcome "
                        "estimator (default %(default)s)")
    b.add_argument("--learner-pi", default="histogram",
                   help="joint-cell learner spec, e.g. histogram, knn:50, softmax")
    b.add_argument("--learner-lambda", default="histogram",
                   help="propensity learner spec; known:<p> for a known design")
    b.add_argument("--folds", type=int, default=DEFAULT_FOLDS,
                   help="cross-fitting folds (default %(default)s)")
    b.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="propensity truncation level")
    b.add_argument("--t", type=float, default=None,
                   help="smoothing temperature (lse only; default 100 n^{1/4})")
    b.add_argument("--m", type=int, default=None,
                   help="threshold replicates (continuous only; default 20)")
    b.add_argument("--delta", type=float, default=0.05,
                   help="interval miscoverage level")
    b.add_argument("--seed", type=int, default=0,
                   help="seed of the folds and threshold draws, in [0, 2**32)")
    b.add_argument("--clamp", action="store_true",
                   help="clamp reported bounds into [-1, 1]")
    b.add_argument("--output", default=None, help="write JSON here instead of stdout")

    what = "run the margin-design RMSE experiment grid (JSON and long-format CSV)"
    s = sub.add_parser("simulate", help="margin-design RMSE experiment", description=what)
    s.add_argument("--n-grid", default="500,1000,5000",
                   help="comma-separated sample sizes (default %(default)s)")
    s.add_argument("--r-grid", default=",".join(
        f"{0.10 + 0.05 * k:.2f}" for k in range(9)),
        help="comma-separated nuisance error rates r, for error of order n^-r")
    s.add_argument("--reps", type=int, default=500,
                   help="replicates per (n, r) cell (default %(default)s)")
    s.add_argument("--seed", type=int, default=0, help="experiment seed, in [0, 2**32)")
    s.add_argument("--output", default=None, help="JSON output path")
    s.add_argument("--csv", default=None, help="long-format CSV output path")

    what = ("emit the illustration design's true bounds, its population bounds "
            "under each covariate adjustment, and the estimate from one sample")
    i = sub.add_parser("illustrate", help="illustration-design truth and estimates",
                       description=what)
    i.add_argument("--n", type=int, default=5000, help="sample size (default %(default)s)")
    i.add_argument("--folds", type=int, default=10,
                   help="cross-fitting folds (default %(default)s)")
    i.add_argument("--seed", type=int, default=0,
                   help="seed of the sample and the folds, in [0, 2**32)")
    i.add_argument("--delta", type=float, default=0.05, help="interval miscoverage level")
    i.add_argument("--learner-pi", default="histogram",
                   help="joint-cell learner spec (default %(default)s)")
    i.add_argument("--learner-lambda", default="known:0.5",
                   help="propensity learner spec (default %(default)s)")
    i.add_argument("--appendix-f-compat", action="store_true",
                   help="drop the always/never-taker strata as in the published script")
    i.add_argument("--output", default=None, help="write JSON here instead of stdout")

    what = ("check the closed-form bounds of random laws against the LP sharpness "
            "oracle, and that they contain the ATE and nest in the natural bounds")
    c = sub.add_parser("check", help=what, description=what)
    c.add_argument("--laws", type=int, default=1000,
                   help="random laws to check (default %(default)s)")
    c.add_argument("--seed", type=int, default=0,
                   help="seed of the random laws, in [0, 2**32)")
    c.add_argument("--tol", type=float, default=1e-8,
                   help="largest gap allowed between the closed-form and LP bounds "
                        "(default %(default)s)")
    return p


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps({"schema_version": REPORT_SCHEMA_VERSION,
                       "software_version": __version__, **payload},
                      indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolved_config(args) -> dict:
    skip = {"command", "output", "csv"}
    return {k.replace("_", "-"): v for k, v in vars(args).items() if k not in skip}


def _report(est, args, diagnostics) -> dict:
    lo, hi = wald_interval(est, args.delta)
    lower, upper = est.lower, est.upper
    freqs = est.selection_frequencies()
    warnings = []
    if est.lower > est.upper:
        warnings.append("estimated lower bound exceeds estimated upper bound")
    if args.clamp:
        lower, upper = max(lower, -1.0), min(upper, 1.0)
        lo, hi = max(lo, -1.0), min(hi, 1.0)
    return {
        "method": est.method,
        "method_metadata": est.extra,
        "n": est.n,
        "lower": lower,
        "upper": upper,
        "var_lower": est.var_lower,
        "var_upper": est.var_upper,
        "interval": {"lo": lo, "hi": hi, "level": 1.0 - args.delta},
        "selection_frequencies": freqs and {k: v.tolist() for k, v in freqs.items()},
        "diagnostics": diagnostics,
        "seed": args.seed,
        "config": _resolved_config(args),
        "warnings": warnings,
    }


def _simplex_max_violation(pi: np.ndarray) -> float:
    """max |sum of pi[i, :, :, z] - 1|, the cells added as ``pi.sum(axis=(1, 2))``
    adds them, without its strided reduction, in one (n, 2) buffer."""
    total = pi[:, 0, 0] + pi[:, 0, 1]
    total += pi[:, 1, 0]
    total += pi[:, 1, 1]
    return float(np.abs(np.subtract(total, 1.0, out=total), out=total).max())


def _cmd_bounds(args) -> int:
    mapping = ColumnMapping(
        covariates=[c for c in args.covariates.split(",") if c],
        instrument=args.instrument, exposure=args.exposure,
        outcome=args.outcome, weight=args.weights_col)
    if args.t is not None:
        if args.method != "lse":
            raise ValueError("--t applies only to --method lse")
        check_temperature(args.t, "--t")
    if args.method == "continuous":
        args.m = 20 if args.m is None else args.m  # the report's config shows it
        if args.m < 1:
            raise ValueError("m must be at least 1")
    elif args.m is not None:
        raise ValueError("--m applies only to --method continuous")
    pi_spec = parse_learner_spec(args.learner_pi)
    lam_spec = parse_learner_spec(args.learner_lambda)
    check_cross_fit_settings(args.folds, pi_spec, lam_spec, args.eps)
    outcome_kind = "bounded-continuous" if args.method == "continuous" else "binary"
    data = load_csv(args.input, mapping, outcome_kind)

    if args.method == "continuous":
        transform = OutcomeTransform.from_data(data.y)  # a constant outcome fails before any fit
        nuis = cross_fit(data, args.folds, pi_spec, lam_spec, args.seed, args.eps)
        est = continuous_bounds(data, nuis, args.m, args.seed, transform=transform)
        diagnostics = {"outcome_scale": est.extra["scale"]}
    else:
        nuis = cross_fit(data, args.folds, pi_spec, lam_spec, args.seed, args.eps)
        lam1, pi = nuis.evaluate(data)
        diagnostics = {
            "propensity_range": [float(lam1.min()), float(lam1.max())],
            "simplex_max_violation": _simplex_max_violation(pi),
            "nuisance": {"pi": pi_spec.name, "lambda": lam_spec.name,
                         "folds": args.folds, "eps": args.eps},
        }
        est = (lse_bounds(data, lam1, pi, args.t) if args.method == "lse"
               else direct_bounds(data, lam1, pi))
    _emit(_report(est, args, diagnostics), args.output)
    return 0


def _cmd_simulate(args) -> int:
    n_grid = [int(v) for v in args.n_grid.split(",")]
    r_grid = [float(v) for v in args.r_grid.split(",")]
    rows = rmse_experiment(n_grid, r_grid, args.reps, args.seed)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv_mod.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit({"experiment": "margin-rmse", "rows": rows,
           "config": _resolved_config(args)}, args.output)
    return 0


def _cmd_illustrate(args) -> int:
    pi_spec = parse_learner_spec(args.learner_pi)
    lam_spec = parse_learner_spec(args.learner_lambda)
    check_cross_fit_settings(args.folds, pi_spec, lam_spec, n=args.n)
    truth = illustration_truth(appendix_compat=args.appendix_f_compat)
    widths = width_comparison(args.appendix_f_compat)
    data = gen_illustration(args.n, args.seed, args.appendix_f_compat)
    nuis = cross_fit(data, args.folds, pi_spec, lam_spec, args.seed)
    lam1, pi = nuis.evaluate(data)
    est = direct_bounds(data, lam1, pi)
    lo, hi = wald_interval(est, args.delta)
    _emit({
        "truth": {k: float(v) for k, v in truth.items()},
        "population_bounds_by_adjustment": {
            k: list(v) for k, v in widths.items()},
        "estimate": {"lower": est.lower, "upper": est.upper,
                     "interval": {"lo": lo, "hi": hi, "level": 1.0 - args.delta},
                     "n": est.n},
        "seed": args.seed,
        "config": _resolved_config(args),
    }, args.output)
    return 0


def _cmd_check(args) -> int:
    if args.laws < 1:
        raise ValueError(f"--laws {args.laws} is below 1")
    if not 0 <= args.tol < float("inf"):  # nan fails too
        raise ValueError(f"--tol {args.tol} is negative or not finite")
    laws = rng_stream(args.seed, 99).dirichlet(np.ones(16), size=args.laws)
    result = check_sharpness(laws, args.tol)
    print(json.dumps({**result, "failures": result["failures"][:20]}, indent=2))
    return 0 if result["ok"] else 1


def _check_output(path: str) -> None:
    """Fail before any work if ``path`` could not be written; it is written only at the end."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise OSError(f"{path}: not a writable file in an existing directory")


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the whole calling process (importing ``ivbounds`` does not
    call this).  glibc's trimming made each bound kernel fault its temporaries in afresh:
    ~53k minor faults, a third of ``simulate --reps 10`` (2-vCPU x86-64, glibc 2.36).
    One arena serves every thread, so the fit threads share its kept heap."""
    libc = ctypes.CDLL(None) if sys.platform != "win32" else None  # no CDLL(None) there
    if mallopt := getattr(libc, "mallopt", None):  # macOS has none; musl's ignores these
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD at its 64-bit maximum, not moved by frees
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    commands = {"bounds": _cmd_bounds, "simulate": _cmd_simulate,
                "illustrate": _cmd_illustrate, "check": _cmd_check}
    try:
        if not 0 <= args.seed < 2 ** 32:  # the entries rng_stream accepts
            raise ValueError(f"--seed {args.seed} outside [0, 2**32)")
        if "delta" in vars(args) and not 0 < args.delta < 1:  # z_quantile needs (0, 1)
            raise ValueError(f"--delta {args.delta} outside (0, 1)")
        paths = [p for p in (getattr(args, k, None) for k in ("input", "output", "csv")) if p]
        if len({os.path.realpath(p) for p in paths}) < len(paths):
            raise ValueError(f"{', '.join(paths)}: two of these paths name one file")
        for path in filter(None, (getattr(args, "output", None), getattr(args, "csv", None))):
            _check_output(path)
        return commands[args.command](args)
    except (OSError, FitError, ValueError) as exc:
        code = (exc.code if isinstance(exc, LoadError) else
                "io-error" if isinstance(exc, OSError) else
                "fit-error" if isinstance(exc, FitError) else "invalid-config")
        print(json.dumps({"error": code, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
