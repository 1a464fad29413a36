"""Log-sum-exp smoothing of the row-wise max/min over bound candidates.

g_t(v) = (1/t) log sum_j exp(t v_j) approximates max(v) from above within
log(k)/t; h_t(v) = -g_t(-v) approximates min(v) from below.  The smooth
one-step estimator replaces the hard candidate selection with the softmax
gradient of g_t, and its confidence interval is widened by log(8)/t on
each side to cover the smoothing bias.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# theta_lower, theta_upper and psi_correction are imported only for
# perfbench/spans.py, which traces them under this module's name too.
from .bounds import theta_lower, theta_lower_linear, theta_upper, theta_upper_linear
from .data import Dataset
from .estimators import BoundEstimate, BoundKernel, _finish, psi_correction, z_quantile

__all__ = [
    "lse",
    "lse_grad",
    "lse_hess",
    "LseConfig",
    "lse_bounds",
    "lse_estimate",
    "conservative_interval",
]


def _lse_and_grad(v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``lse(v, t)`` and ``lse_grad(v, t)`` from one exp(t (v - max))."""
    v = np.asarray(v, dtype=float)
    # A chain of column maxima: np.max over a short last axis is ~10x slower.
    m = functools.reduce(np.maximum, np.moveaxis(v, -1, 0))[..., None]
    e = np.exp(t * (v - m))
    # Split off the maximizing entries (each contributes exactly 1) so the
    # remainder enters through log1p and strict domination of the max is
    # preserved even when the other exponentials are tiny.
    is_max = v == m
    n_max = is_max.sum(axis=-1)
    e[is_max] = 0.0  # each exactly 1, restored below: no masked copy of e
    rest = np.sum(e, axis=-1)
    e[is_max] = 1.0
    value = m[..., 0] + np.log1p((n_max - 1.0) + rest) / t
    e /= np.sum(e, axis=-1, keepdims=True)
    return value, e


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


@dataclass(frozen=True)
class LseConfig:
    """Temperature rule for the smooth estimator.

    rule: "fixed" (uses ``t``), "data-analysis" (t = 100 n^{1/4}), or
    "simulation" (t = 2 h n^r with the nuisance-error parameters).
    """

    rule: str = "data-analysis"
    t: float | None = None
    h: float = 2.25
    r: float = 0.3

    def temperature(self, n: int) -> float:
        if self.rule == "fixed":
            if self.t is None or self.t <= 0:
                raise ValueError("fixed rule needs a positive t")
            return float(self.t)
        if self.rule == "data-analysis":
            return 100.0 * n ** 0.25
        if self.rule == "simulation":
            return 2.0 * self.h * n ** self.r
        raise ValueError(f"unknown temperature rule: {self.rule!r}")


def lse_estimate(kernel: BoundKernel, config: LseConfig = LseConfig()) -> BoundEstimate:
    """Smooth one-step estimate: each row's lse plus its softmax-weighted c."""
    t = config.temperature(kernel.data.n)
    p = kernel.profile
    value, grad = _lse_and_grad(p.theta_l, t)
    grad *= theta_lower_linear(kernel.c)
    phi_l = value + np.sum(grad, axis=-1)
    value, grad = _lse_and_grad(-p.theta_u, t)
    grad *= theta_upper_linear(kernel.c)
    phi_u = -value + np.sum(grad, axis=-1)
    return _finish(kernel.data, phi_l, phi_u, p.d_l, p.d_u, "lse",
                   {"t": t, "t_rule": config.rule})


def lse_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray,
               config: LseConfig = LseConfig()) -> BoundEstimate:
    """Smooth one-step estimator of the bounds at the configured temperature."""
    return lse_estimate(BoundKernel(data, lam1, pi), config)


def conservative_interval(est: BoundEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Wald interval widened by log(8)/t per side to absorb smoothing bias."""
    if est.method != "lse" or "t" not in est.extra:
        raise ValueError("conservative interval requires a smooth estimate with a temperature")
    t = est.extra["t"]
    z = z_quantile(alpha)
    pad = np.log(8.0) / t
    return (est.lower - pad - z * est.se_lower, est.upper + pad + z * est.se_upper)
