"""Correctness checks on one CLI report, and the values compared for drift.

``check_report`` returns the problems found (empty when the report passes)
and the named numbers that ``max_result_drift`` compares with the recorded
reference.  Checks by command:

* ``bounds``: finite ``lower``/``upper`` and variances; an outer interval
  (``lo <= lower``, ``hi >= upper``).  Unless lambda is ``known:``, also
  ``simplex_max_violation <= 1e-9`` and ``propensity_range`` inside
  [eps, 1 - eps] (continuous mode reports neither).
* ``simulate``: one row per (n, r) grid cell, with finite RMSEs.
* ``illustrate``: finite estimate with an outer interval, a truth ATE within
  1e-3 of the exact 0.11725, and nested population bounds
  full within x2_only within none (to 1e-9).
"""

from __future__ import annotations

import json
import math

SIMPLEX_TOL = 1e-9
ILLUSTRATION_ATE = 0.11725
ATE_TOL = 1e-3
# x2-only and no adjustment give the same lower bound exactly; the grid mean
# and the pooled law differ in the last bits (about 2e-14).
NEST_TOL = 1e-9
DEFAULT_EPS = 0.01  # the CLI's --eps default


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _outer(lower, upper, interval, label, problems):
    lo, hi = interval["lo"], interval["hi"]
    if not _finite(lower, upper, lo, hi):
        problems.append(f"{label}: non-finite bound or interval end")
    elif not (lo <= lower and hi >= upper):
        problems.append(f"{label}: interval [{lo}, {hi}] is not outside "
                        f"[{lower}, {upper}]")


def _check_bounds(argv, rep, problems, values):
    _outer(rep["lower"], rep["upper"], rep["interval"], "bounds", problems)
    if not _finite(rep["var_lower"], rep["var_upper"]):
        problems.append("bounds: non-finite variance")
    lam = _flag(argv, "--learner-lambda", "histogram")
    if _flag(argv, "--method", "direct") != "continuous" and not lam.startswith("known:"):
        diag = rep["diagnostics"]
        eps = float(_flag(argv, "--eps", str(DEFAULT_EPS)))
        if not diag["simplex_max_violation"] <= SIMPLEX_TOL:
            problems.append(f"bounds: simplex violation {diag['simplex_max_violation']}")
        p_lo, p_hi = diag["propensity_range"]
        if not eps <= p_lo <= p_hi <= 1.0 - eps:
            problems.append(f"bounds: propensity range {[p_lo, p_hi]} outside "
                            f"[{eps}, {1.0 - eps}]")
    values.update(lower=rep["lower"], upper=rep["upper"],
                  lo=rep["interval"]["lo"], hi=rep["interval"]["hi"])


def _check_simulate(argv, rep, problems, values):
    n_grid = [int(v) for v in _flag(argv, "--n-grid", "500,1000,5000").split(",")]
    r_grid = [float(v) for v in _flag(argv, "--r-grid", ",".join(
        f"{0.10 + 0.05 * k:.2f}" for k in range(9))).split(",")]
    cells = sorted((row["n"], row["r"]) for row in rep["rows"])
    if cells != sorted((n, r) for n in n_grid for r in r_grid):
        problems.append(f"simulate: {len(cells)} rows do not match the "
                        f"{len(n_grid)}x{len(r_grid)} grid")
    for row in rep["rows"]:
        for key, v in row.items():
            if key.startswith(("rmse_", "bias_")):
                if key.startswith("rmse_") and not _finite(v):
                    problems.append(f"simulate: non-finite {key} at n={row['n']}, "
                                    f"r={row['r']}")
                values[f"{row['n']}/{row['r']}/{key}"] = v


def _check_illustrate(argv, rep, problems, values):
    est = rep["estimate"]
    _outer(est["lower"], est["upper"], est["interval"], "illustrate", problems)
    ate = rep["truth"]["ate"]
    if not abs(ate - ILLUSTRATION_ATE) <= ATE_TOL:
        problems.append(f"illustrate: truth ATE {ate} is not {ILLUSTRATION_ATE}")
    pop = rep["population_bounds_by_adjustment"]
    (f_lo, f_hi), (p_lo, p_hi), (n_lo, n_hi) = pop["full"], pop["x2_only"], pop["none"]
    if not (n_lo - NEST_TOL <= p_lo <= f_lo + NEST_TOL
            and f_hi - NEST_TOL <= p_hi <= n_hi + NEST_TOL):
        problems.append(f"illustrate: widths not nested: {pop}")
    values.update(lower=est["lower"], upper=est["upper"],
                  lo=est["interval"]["lo"], hi=est["interval"]["hi"])
    values.update({f"truth/{k}": v for k, v in rep["truth"].items()})
    values.update({f"population/{k}/{i}": v for k, pair in pop.items()
                   for i, v in enumerate(pair)})


_CHECKS = {"bounds": _check_bounds, "simulate": _check_simulate,
           "illustrate": _check_illustrate}


def check_report(argv: list[str], exit_code, stdout: str) -> tuple[list[str], dict]:
    """Problems with one request's outcome, and its values for drift."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems: list[str] = []
    values: dict[str, float] = {}
    try:
        _CHECKS[argv[0]](argv, json.loads(stdout), problems, values)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems, values


def drift(values: dict, reference: dict) -> tuple[float, list[str]]:
    """Largest absolute difference from ``reference``, and keys it lacks."""
    missing = sorted(k for k in reference if k not in values)
    diffs = [abs(values[k] - v) for k, v in reference.items() if k in values]
    return max(diffs, default=0.0), missing
