"""Simulation designs and verification experiments.

Two data-generating processes:

* the margin design, a one-sided-noncompliance law whose lower and upper
  bound functionals both equal 0 and whose candidate selection sits on the
  margin (several candidates tie at the optimum), stress-testing the hard
  selection step; and
* the illustration design, a four-stratum compliance-type law with a
  binary and a uniform covariate where covariate adjustment visibly
  narrows the bounds.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .bounds import theta_profile
from .crossfit import ClosedFormNuisance, _in_task_order, oracle_noisy_nuisance, rng_stream
from .data import Dataset
# plugin_bounds is imported only for perfbench/spans.py, which traces it
# under this module's name.
from .estimators import ROW_BLOCK, _by_blocks, _mean, direct_bounds, plugin_bounds, wald_interval
from .lse import _smooth_phi, lse_bounds

__all__ = [
    "gen_margin",
    "margin_truth",
    "gen_illustration",
    "illustration_pi",
    "illustration_lambda1",
    "illustration_truth",
    "rmse_experiment",
    "coverage_experiment",
    "width_comparison",
    "MARGIN_H",
]

MARGIN_H = 2.25


def _temperature(n: int, h: float, r: float) -> float:
    """The simulations' lse temperature t = 2 h n^r, for nuisance error of order n^-r."""
    return 2.0 * h * n ** r


# ---------------------------------------------------------------------------
# Margin design: X ~ U(0,1), Z ~ Bern(clip(x^2, .1, .9)), perfect compliance
# A = Z, U ~ U(0,1), Y = 1(U < A(1-X) + (1-A)X).  Both bound functionals are
# exactly 0 and the per-row optimum is attained by multiple candidates.

def _margin_lambda1(x):
    return np.clip(x[:, 0] ** 2, 0.10, 0.90)


def _margin_pi(x):
    v = x[:, 0]
    pi = np.zeros((len(v), 2, 2, 2))
    pi[:, 0, 0, 0] = 1.0 - v / 2.0        # z=0: A=0, Y ~ Bern(x/2)
    pi[:, 1, 0, 0] = v / 2.0
    pi[:, 0, 1, 1] = 1.0 - (1.0 - v) / 2.0  # z=1: A=1, Y ~ Bern((1-x)/2)
    pi[:, 1, 1, 1] = (1.0 - v) / 2.0
    return pi


_MARGIN_ZEROS = np.ones((2, 2, 2), dtype=bool)
for _y in (0, 1):
    _MARGIN_ZEROS[_y, 0, 0] = False
    _MARGIN_ZEROS[_y, 1, 1] = False


def margin_truth() -> ClosedFormNuisance:
    return ClosedFormNuisance(_margin_lambda1, _margin_pi, _MARGIN_ZEROS)


def gen_margin(n: int, seed: int, replicate: int = 0) -> Dataset:
    """Margin-design sample from the stream (seed, 10, replicate); replicate 0
    is the stream (seed, 10)."""
    rng = rng_stream(seed, 10, replicate)
    x = rng.random((n, 1))
    lam1 = _margin_lambda1(x)
    z = (rng.random(n) < lam1).astype(int)
    a = z
    u = rng.random(n)
    y = (rng.random(n) < u * (a * (1.0 - x[:, 0]) + (1 - a) * x[:, 0])).astype(float)
    return Dataset(x=x, z=z, a=a, y=y)


# ---------------------------------------------------------------------------
# Illustration design.  Z ~ Bern(1/2); X1 ~ Bern(0.7); X2 ~ U(-1, 1).
# Compliance strata from (X1, X2): always-takers when X2 >= 0.99,
# never-takers when X2 <= -0.99, defiers when X1 = 0 and X2 in (-0.5, 0.5],
# compliers otherwise.  The strata change only at the X2 cut points, so the
# law is constant in X2 between consecutive cuts.  Strata are coded
# 0 = AT, 1 = NT, 2 = DE, 3 = CO; outcome means and exposures by stratum:

_X2_CUTS = (-0.99, -0.5, 0.5, 0.99)
_X1_PROBS = (0.3, 0.7)  # P(X1 = 0), P(X1 = 1)

_ILLU_BETA = np.array([(0.20, 0.35), (0.90, 0.95), (0.65, 0.725), (0.25, 0.375)])  # Y at A=0, 1
_ILLU_EXPOSURE = np.array([(1, 1), (0, 0), (1, 0), (0, 1)])  # A at z=0, 1


def _strata(x1, x2, appendix_compat=False):
    """Stratum code per row; compat mode drops the tail strata entirely.
    The defier band and the tails do not overlap."""
    nt_cut, de_low, de_high, at_cut = _X2_CUTS
    s = np.full(len(x1), 3)
    s[(x1 == 0) & (x2 > de_low) & (x2 <= de_high)] = 2
    if not appendix_compat:
        s[x2 >= at_cut] = 0
        s[x2 <= nt_cut] = 1
    return s


def gen_illustration(n: int, seed: int, appendix_compat: bool = False) -> Dataset:
    rng = rng_stream(seed, 11)
    z = (rng.random(n) < 0.5).astype(int)
    x1 = (rng.random(n) < _X1_PROBS[1]).astype(int)
    x2 = rng.uniform(-1.0, 1.0, n)
    s = _strata(x1, x2, appendix_compat)
    a = _ILLU_EXPOSURE[s, z]
    y = (rng.random(n) < _ILLU_BETA[s, a]).astype(float)
    return Dataset(x=np.column_stack([x1, x2]).astype(float), z=z,
                   a=a.astype(int), y=y)


def illustration_lambda1(x):
    return np.full(np.atleast_2d(x).shape[0], 0.5)


def _stratum_weights(x, appendix_compat=False):
    """Row-wise probability of each stratum given covariates (AT, NT, DE, CO)."""
    x = np.atleast_2d(x)
    s = _strata(x[:, 0].astype(int), x[:, 1], appendix_compat)
    return (s[:, None] == np.arange(4)).astype(float)


def illustration_pi(x, appendix_compat: bool = False):
    """Closed-form joint cells; strata are deterministic in the covariates."""
    w = _stratum_weights(x, appendix_compat)
    pi = np.zeros((len(w), 2, 2, 2))
    for j in range(4):
        for z, a in enumerate(_ILLU_EXPOSURE[j]):
            p = _ILLU_BETA[j, a]
            pi[:, 1, a, z] += w[:, j] * p
            pi[:, 0, a, z] += w[:, j] * (1.0 - p)
    return pi


def _illustration_atoms():
    """Covariate atoms (10, 2) and their probabilities for exact integrals.

    Each of the five X2 intervals between the cut points is represented by
    its midpoint, weighted by P(X1 = x1) times its length over 2.  Rows run
    X1-major: the five intervals for x1 = 0, then for x1 = 1.
    """
    edges = np.array([-1.0, *_X2_CUTS, 1.0])
    mids = (edges[:-1] + edges[1:]) / 2.0
    x = np.column_stack([np.repeat([0.0, 1.0], len(mids)), np.tile(mids, 2)])
    return x, np.outer(_X1_PROBS, np.diff(edges) / 2.0).ravel()


def illustration_truth(appendix_compat: bool = False) -> dict:
    """Exact bound functionals and ATE as finite sums over the five X2
    intervals and the two values of X1."""
    x, w = _illustration_atoms()
    prof = theta_profile(illustration_pi(x, appendix_compat))
    cate = _ILLU_BETA[:, 1] - _ILLU_BETA[:, 0]
    return {"lower": float(w @ prof.gamma_l), "upper": float(w @ prof.gamma_u),
            "ate": float(w @ (_stratum_weights(x, appendix_compat) @ cate))}


# ---------------------------------------------------------------------------
# Experiments.  Replicate ``rep`` of master seed ``seed`` draws its data and
# its nuisance noise from the stream paths (seed, 10, rep) and (seed, 1, rep),
# so distinct seeds never share a replicate.  Neither depends on the rate r,
# which only rescales the noise, so each (n, rep) is drawn once.  Only floats
# leave a replicate, so replicates run on worker processes and each
# experiment aggregates them in a fixed order: reports do not depend on the
# number of workers.

def _check_design(n_grid, r_grid, reps: int) -> None:
    """Raise before any replicate runs if a setting would fail in one."""
    if (reps < 1 or not n_grid or not r_grid or any(n < 1 for n in n_grid)
            or not all(0 < r <= 0.5 for r in r_grid)):
        raise ValueError("need reps >= 1 and non-empty grids with every n >= 1 "
                         "and every r in (0, 0.5]")


def _bounds_by_rate(data, noise, logits, rates, h: float) -> list[dict]:
    """Per rate, (lower, upper) of the direct, smooth and plug-in estimates,
    from one block loop over the rates stacked on rows: row ``i * n + j`` is
    row j at rate i.  Only floats leave, so no stacked array outlives the
    chunk while the next chunk's are built."""
    n = data.n
    lam1, pi = (np.concatenate(parts) for parts in zip(
        *(replace(noise, scale=h * n ** (-r)).shift(logits) for r in rates)))
    t = np.repeat([_temperature(n, h, r) for r in rates], n)
    phi = _by_blocks(data.subset(np.tile(np.arange(n), len(rates))), lam1, pi,
                     lambda k, rows: (*k.direct_phi(), k.gamma_l, k.gamma_u,
                                      *_smooth_phi(k, t[rows])))
    w = data.normalized_weights()
    means = [_mean(w, p.reshape(len(rates), n)) for p in phi]
    return [{m: (float(means[2 * j][i]), float(means[2 * j + 1][i]))
             for j, m in enumerate(("direct", "plugin", "lse"))} for i in range(len(rates))]


def _run_replicates(fn, tasks: list[tuple[int, int]]) -> list:
    """``fn(n, rep)`` per task, in task order, by ``crossfit._in_task_order`` on processes
    forked where the platform has fork (inheriting the imported modules and the allocator
    policy), else started by its default method; the map cancels what is queued at the first
    failure in task order.  Only ``fn``'s settings, the tasks and the results are pickled."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()  # the first is the default
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    return _in_task_order(fn, tasks, partial(ProcessPoolExecutor, mp_context=context))


def _rmse_replicate(n: int, rep: int, *, r_grid, seed: int, h: float) -> list[dict]:
    """Per rate, (lower, upper) of each estimator on replicate ``rep`` at ``n``,
    its rates run in chunks of as many as fit in one ``ROW_BLOCK``, at least one."""
    data = gen_margin(n, seed, rep)
    noise = oracle_noisy_nuisance(margin_truth(), n, r_grid[0], h, seed, rep)
    logits = noise.truth_logits(data)  # checked once, rescaled per r
    per_chunk = max(1, ROW_BLOCK // n)
    return [b for lo in range(0, len(r_grid), per_chunk)
            for b in _bounds_by_rate(data, noise, logits, r_grid[lo:lo + per_chunk], h)]


def rmse_experiment(n_grid, r_grid, reps: int, seed: int,
                    h: float = MARGIN_H) -> list[dict]:
    """RMSE of direct, smooth, and plug-in estimators on the margin design.

    Nuisances are the closed-form truth perturbed on the logit scale by one
    N(h n^-r, h^2 n^-2r) draw per function, giving nuisance error of order
    n^-r.  True lower and upper bounds are both 0.  Rows are in (n, r) order.
    Each (n, rep) stacks its rates on rows in chunks of max(1, ROW_BLOCK // n)
    rates, so rates with n below ``ROW_BLOCK`` share one kernel and a chunk
    outgrows one block only when a single rate does.
    """
    _check_design(n_grid, r_grid, reps)
    replicate = partial(_rmse_replicate, r_grid=r_grid, seed=seed, h=h)
    errs = _run_replicates(replicate, [(n, rep) for n in n_grid for rep in range(reps)])
    rows = []
    for k, n in enumerate(n_grid):
        for i, r in enumerate(r_grid):
            row = {"n": n, "r": r, "reps": reps}
            for name in ("direct", "lse", "plugin"):
                arr = np.asarray([e[i][name] for e in errs[k * reps:(k + 1) * reps]])
                row[f"rmse_lower_{name}"] = float(np.sqrt(np.mean(arr[:, 0] ** 2)))
                row[f"rmse_upper_{name}"] = float(np.sqrt(np.mean(arr[:, 1] ** 2)))
                row[f"bias_lower_{name}"] = float(np.mean(arr[:, 0]))
                row[f"bias_upper_{name}"] = float(np.mean(arr[:, 1]))
            rows.append(row)
    return rows


def _coverage_replicate(n: int, rep: int, *, r: float, seed: int, h: float,
                        alpha: float) -> tuple[int, int]:
    """Whether the direct and the smoothed-conservative CI of replicate ``rep``
    cover 0, as 0 or 1 each."""
    data = gen_margin(n, seed, rep)
    lam1, pi = oracle_noisy_nuisance(margin_truth(), n, r, h, seed, rep).evaluate(data)
    lo, hi = wald_interval(direct_bounds(data, lam1, pi), alpha)
    lo_s, hi_s = wald_interval(lse_bounds(data, lam1, pi, _temperature(n, h, r)), alpha)
    return int(lo <= 0.0 <= hi), int(lo_s <= 0.0 <= hi_s)


def coverage_experiment(n: int, reps: int, r: float, seed: int,
                        h: float = MARGIN_H, alpha: float = 0.05) -> dict:
    """Coverage of [L, U] = [0, 0] by the direct and smoothed-conservative CIs."""
    _check_design([n], [r], reps)
    replicate = partial(_coverage_replicate, r=r, seed=seed, h=h, alpha=alpha)
    hits = _run_replicates(replicate, [(n, rep) for rep in range(reps)])
    hit_direct, hit_lse = (sum(col) for col in zip(*hits))
    return {"n": n, "reps": reps, "r": r,
            "coverage_direct": hit_direct / reps,
            "coverage_lse": hit_lse / reps}


def width_comparison(appendix_compat: bool = False) -> dict:
    """Population bounds under no, partial (X2 only) and full adjustment.

    Exact sums over the five X2 intervals: ``none`` profiles the pooled
    cells, ``x2_only`` pools X1 within each interval, and ``full`` is the
    pair of bounds from ``illustration_truth``.
    """
    x, w = _illustration_atoms()
    pi = illustration_pi(x, appendix_compat)
    none = theta_profile(np.tensordot(w, pi, axes=1))
    # Rows are X1-major, so (x1, interval) blocks pool over X1 per interval.
    part = theta_profile(np.tensordot(_X1_PROBS, pi.reshape(2, -1, 2, 2, 2), axes=1))
    p_x2 = w.reshape(2, -1).sum(axis=0)
    truth = illustration_truth(appendix_compat)
    return {"none": (none.gamma_l, none.gamma_u),
            "x2_only": (float(p_x2 @ part.gamma_l), float(p_x2 @ part.gamma_u)),
            "full": (truth["lower"], truth["upper"])}
