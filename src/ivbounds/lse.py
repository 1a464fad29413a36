"""Log-sum-exp smoothing of the row-wise max/min over bound candidates.

g_t(v) = (1/t) log sum_j exp(t v_j) approximates max(v) from above within
log(k)/t; h_t(v) = -g_t(-v) approximates min(v) from below.  The smooth
one-step estimator replaces the hard candidate selection with the softmax
gradient of g_t; ``wald_interval`` widens its interval by log(8)/t on each
side, the estimate's ``smoothing_bias``.

The kernel works on candidate columns (k, ...), the layout of ``bounds``:
the max, the exponentials, the tie count and the sums are column chains,
and the sums of eight columns keep NumPy's pairwise order.  ``lse`` and
``lse_grad`` take and return the last-axis layout.  ``lse_bounds`` finishes
``_smooth_phi``'s per-row values from ``estimators``' block loop.
"""

from __future__ import annotations

import functools

import numpy as np

from .bounds import _last
# The theta_* functions and psi_correction are imported only for
# perfbench/spans.py, which traces them under this module's name too.
from .bounds import theta_lower, theta_lower_linear, theta_upper, theta_upper_linear
from .data import Dataset
from .estimators import BoundEstimate, BoundKernel, _by_blocks, _finish, psi_correction

__all__ = [
    "lse",
    "lse_grad",
    "lse_hess",
    "lse_bounds",
    "check_temperature",
]


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """Sum of the columns (k, ...).  Eight columns add in NumPy's pairwise
    order for 8 terms, ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)),
    so the result equals ``np.sum`` over a contiguous last axis bit for bit."""
    if len(cols) != 8:
        return cols.sum(axis=0)
    while len(cols) > 1:
        cols = cols[0::2] + cols[1::2]
    return cols[0]


def _lse_gap(gap: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """``lse(v, t) - max(v)`` and ``lse_grad(v, t)`` for the columns
    gap = v - max(v) (k, ...), from one exp(t gap), which overwrites gap;
    ``t`` broadcasts against one column."""
    is_max = gap == 0.0  # exactly the maximizing entries
    gap *= t
    e = np.exp(gap, out=gap)
    # Split off the maximizing entries (each contributes exactly 1) so the
    # remainder enters through log1p and strict domination of the max is
    # preserved even when the other exponentials are tiny.
    n_max = _column_sum(is_max.view(np.uint8))
    e -= is_max  # exact: 1 - 1 = 0 at the maxima, and undone exactly below
    rest = _column_sum(e)
    e += is_max
    e /= _column_sum(e)
    return np.log1p((n_max - 1.0) + rest) / t, e


def _lse_and_grad(v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``lse(v, t)`` and ``lse_grad(v, t)`` from one exp(t (v - max))."""
    cols = np.ascontiguousarray(np.moveaxis(np.asarray(v, dtype=float), -1, 0))
    m = functools.reduce(np.maximum, cols)
    part, grad = _lse_gap(cols - m, t)
    return m + part, _last(grad)


def lse(v: np.ndarray, t: float) -> np.ndarray:
    """(1/t) log sum exp(t v) along the last axis, computed max-stably."""
    return _lse_and_grad(v, t)[0]


def lse_grad(v: np.ndarray, t: float) -> np.ndarray:
    """Softmax weights exp(t v_j) / sum, the gradient of lse in v."""
    return _lse_and_grad(v, t)[1]


def lse_hess(v: np.ndarray, t: float) -> np.ndarray:
    """Hessian t * (diag(s) - s s^T) with s the softmax weights."""
    s = lse_grad(v, t)
    return t * (s[..., :, None] * np.eye(s.shape[-1]) - s[..., :, None] * s[..., None, :])


def _smooth_phi(kernel: BoundKernel, t) -> tuple[np.ndarray, np.ndarray]:
    """Per-row smooth contributions: each row's lse plus its softmax-weighted
    corrections, the kernel's linear candidates at c, at temperature ``t`` (a
    float, or one per row of the kernel).  The lower side smooths the
    candidates, the upper side their negatives, whose max is -gamma_u."""
    c_l, c_u = kernel.c
    part, grad = _lse_gap(kernel.cand_l - kernel.gamma_l, t)
    grad *= c_l
    phi_l = (kernel.gamma_l + part) + _column_sum(grad)
    part, grad = _lse_gap(kernel.gamma_u - kernel.cand_u, t)
    grad *= c_u
    return phi_l, -(-kernel.gamma_u + part) + _column_sum(grad)


def check_temperature(t, name: str = "t") -> float:
    """``t`` as a float; a ValueError naming it ``name`` unless positive and finite."""
    if not 0 < t < np.inf:  # nan fails too
        raise ValueError(f"{name} {t} is not positive and finite")
    return float(t)


def lse_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray,
               t: float | None = None) -> BoundEstimate:
    """Smooth one-step estimator at temperature ``t``, which must be positive
    and finite; None takes the data-analysis rule t = 100 n^{1/4} of the full n."""
    if t is None:
        t, rule = 100.0 * data.n ** 0.25, "data-analysis"
    else:
        t, rule = check_temperature(t), "fixed"
    return _finish(data, *_by_blocks(data, lam1, pi, lambda k, rows: (
        *_smooth_phi(k, t), k.d_l, k.d_u)), "lse", {"t": t, "t_rule": rule})
