"""Influence-function estimators of the nonparametric outcome bounds.

Given nuisance evaluations lam1 = P(Z=1|X) and pi[i, y, a, z] =
P(Y=y, A=a | X=x_i, Z=z), each observation contributes a mean-zero
correction

    c[i, y, a, z] = 1(z_i = z) / lam_z(x_i) * (1(y_i = y, a_i = a) - pi[i, y, a, z]),

and the one-step bound estimates average the candidate expressions
evaluated at pi + c, selecting per row the candidate that is extreme at
the plug-in pi.

``BoundKernel`` computes what the direct, plug-in and smooth estimators
share, once: the candidates at pi with their extremes and selectors, and c.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# theta_*_linear are imported only for perfbench/spans.py, which traces them
# under this module's name as well as lse's.
from .bounds import (theta_lower, theta_lower_linear, theta_profile, theta_upper,
                     theta_upper_linear)
from .data import Dataset

__all__ = [
    "psi_correction",
    "BoundEstimate",
    "BoundKernel",
    "direct_bounds",
    "plugin_bounds",
    "wald_interval",
    "z_quantile",
]


def z_quantile(alpha: float) -> float:
    """Two-sided standard-normal critical value, e.g. 1.959... at alpha=0.05."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def psi_correction(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-observation correction array of shape (n, 2, 2, 2)."""
    if not np.all((data.y == 0.0) | (data.y == 1.0)):
        raise ValueError("the correction needs an outcome in {0, 1}")
    rows, z, lam1 = np.arange(data.n), data.z, np.asarray(lam1, dtype=float)
    inv_lam = np.zeros((data.n, 1, 1, 2))  # 1 / lam_z in the row's own arm z, else 0
    inv_lam[rows, 0, 0, z] = 1.0 / np.where(z == 1, lam1, 1.0 - lam1)
    c = np.zeros((data.n, 2, 2, 2))
    c[rows, data.y.astype(int), data.a] = 1.0
    c -= pi
    c *= inv_lam
    return c


@dataclass
class BoundEstimate:
    """Point estimates with per-observation influence values.

    ``phi_lower``/``phi_upper`` are the uncentered per-row contributions
    whose weighted means are ``lower``/``upper``; variances are weighted
    second moments about those means.  ``d_lower``/``d_upper`` hold the
    1-based plug-in selector per row, or ``None`` when selection is not
    tracked (replicate-averaged estimates).
    """

    lower: float
    upper: float
    var_lower: float
    var_upper: float
    n: int
    method: str
    phi_lower: np.ndarray
    phi_upper: np.ndarray
    d_lower: np.ndarray | None
    d_upper: np.ndarray | None
    crossed: bool
    extra: dict

    @property
    def se_lower(self) -> float:
        return float(np.sqrt(self.var_lower / self.n))

    @property
    def se_upper(self) -> float:
        return float(np.sqrt(self.var_upper / self.n))

    def selection_frequencies(self) -> dict | None:
        if self.d_lower is None:
            return None
        return {
            "lower": np.bincount(self.d_lower - 1, minlength=8) / len(self.d_lower),
            "upper": np.bincount(self.d_upper - 1, minlength=8) / len(self.d_upper),
        }


def _finish(data, lower_phi, upper_phi, d_l, d_u, method, extra) -> BoundEstimate:
    w = data.normalized_weights()
    lhat = float(w @ lower_phi)
    uhat = float(w @ upper_phi)
    return BoundEstimate(
        lower=lhat, upper=uhat,
        var_lower=float(w @ (lower_phi - lhat) ** 2),
        var_upper=float(w @ (upper_phi - uhat) ** 2),
        n=data.n, method=method,
        phi_lower=lower_phi, phi_upper=upper_phi,
        d_lower=d_l, d_upper=d_u,
        crossed=lhat > uhat, extra=extra,
    )


class BoundKernel:
    """Per-row pieces shared by the estimators at nuisances (lam1, pi): the
    ``profile`` of the candidates at pi and, on first use, the correction c."""

    def __init__(self, data: Dataset, lam1: np.ndarray, pi: np.ndarray):
        self.data, self.lam1, self.pi = data, lam1, pi
        self.profile = theta_profile(pi)

    @functools.cached_property
    def c(self) -> np.ndarray:
        return psi_correction(self.data, self.lam1, self.pi)

    def direct(self) -> BoundEstimate:
        p, corrected = self.profile, self.pi + self.c
        rows = np.arange(self.data.n)
        return _finish(self.data, theta_lower(corrected)[rows, p.d_l - 1],
                       theta_upper(corrected)[rows, p.d_u - 1],
                       p.d_l, p.d_u, "direct", {})

    def plugin(self) -> BoundEstimate:
        p = self.profile
        return _finish(self.data, p.gamma_l, p.gamma_u, p.d_l, p.d_u, "plugin", {})


def direct_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """One-step estimator selecting the plug-in maximizer/minimizer per row."""
    return BoundKernel(data, lam1, pi).direct()


def plugin_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """Sample average of the row-wise extreme candidates at the plug-in pi."""
    return BoundKernel(data, lam1, pi).plugin()


def wald_interval(est: BoundEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Outer confidence interval: lower end below L-hat, upper end above U-hat."""
    z = z_quantile(alpha)
    return est.lower - z * est.se_lower, est.upper + z * est.se_upper
