"""Log-sum-exp smoothing of the row-wise max/min over bound candidates.

g_t(v) = (1/t) log sum_j exp(t v_j) approximates max(v) from above within
log(k)/t; h_t(v) = -g_t(-v) approximates min(v) from below.  The smooth
one-step estimator replaces the hard candidate selection with the softmax
gradient of g_t, and its confidence interval is widened by log(8)/t on
each side to cover the smoothing bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import theta_lower, theta_lower_linear, theta_upper, theta_upper_linear
from .data import Dataset
from .estimators import BoundEstimate, _finish, psi_correction, z_quantile

__all__ = [
    "lse",
    "lse_grad",
    "lse_hess",
    "LseConfig",
    "lse_bounds",
    "conservative_interval",
]


def lse(v: np.ndarray, t: float) -> np.ndarray:
    """(1/t) log sum exp(t v) along the last axis, computed max-stably."""
    v = np.asarray(v, dtype=float)
    m = np.max(v, axis=-1, keepdims=True)
    e = np.exp(t * (v - m))
    # Split off the maximizing entries (each contributes exactly 1) so the
    # remainder enters through log1p and strict domination of the max is
    # preserved even when the other exponentials are tiny.
    is_max = v == m
    n_max = is_max.sum(axis=-1)
    rest = np.sum(np.where(is_max, 0.0, e), axis=-1)
    return m[..., 0] + np.log1p((n_max - 1.0) + rest) / t


def lse_grad(v: np.ndarray, t: float) -> np.ndarray:
    """Softmax weights exp(t v_j) / sum, the gradient of lse in v."""
    v = np.asarray(v, dtype=float)
    e = np.exp(t * (v - np.max(v, axis=-1, keepdims=True)))
    return e / np.sum(e, axis=-1, keepdims=True)


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


def lse_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray,
               config: LseConfig = LseConfig()) -> BoundEstimate:
    """Smooth one-step estimator of the bounds at the configured temperature."""
    t = config.temperature(data.n)
    th_l = theta_lower(pi)
    th_u = theta_upper(pi)
    c = psi_correction(data, lam1, pi)
    low_lin = theta_lower_linear(c)
    upp_lin = theta_upper_linear(c)
    phi_l = lse(th_l, t) + np.sum(lse_grad(th_l, t) * low_lin, axis=-1)
    phi_u = -lse(-th_u, t) + np.sum(lse_grad(-th_u, t) * upp_lin, axis=-1)
    return _finish(data, phi_l, phi_u, np.argmax(th_l, axis=-1) + 1,
                   np.argmin(th_u, axis=-1) + 1, "lse",
                   {"t": t, "t_rule": config.rule})


def conservative_interval(est: BoundEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Wald interval widened by log(8)/t per side to absorb smoothing bias."""
    if est.method != "lse" or "t" not in est.extra:
        raise ValueError("conservative interval requires a smooth estimate with a temperature")
    t = est.extra["t"]
    z = z_quantile(alpha)
    pad = np.log(8.0) / t
    return (est.lower - pad - z * est.se_lower, est.upper + pad + z * est.se_upper)
