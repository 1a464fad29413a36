"""Influence-function estimators of the nonparametric outcome bounds.

Given nuisance evaluations lam1 = P(Z=1|X) and pi[i, y, a, z] =
P(Y=y, A=a | X=x_i, Z=z), each observation contributes a mean-zero
correction

    c[i, y, a, z] = 1(z_i = z) / lam_z(x_i) * (1(y_i = y, a_i = a) - pi[i, y, a, z]),

and the one-step bound estimates average the candidate expressions
evaluated at pi + c, selecting per row the candidate that is extreme at
the plug-in pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# theta_*_linear are imported only for perfbench/spans.py, which traces them
# under this module's name as well as lse's.
from .bounds import theta_lower, theta_lower_linear, theta_upper, theta_upper_linear
from .data import Dataset

__all__ = [
    "psi_correction",
    "BoundEstimate",
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
    lam1 = np.asarray(lam1, dtype=float)
    lam = np.where(data.z[:, None, None, None] == 1, lam1[:, None, None, None],
                   1.0 - lam1[:, None, None, None])
    zmatch = (data.z[:, None, None, None]
              == np.arange(2)[None, None, None, :]).astype(float)
    cell = ((data.y.astype(int)[:, None, None, None]
             == np.arange(2)[None, :, None, None])
            & (data.a[:, None, None, None]
               == np.arange(2)[None, None, :, None])).astype(float)
    return zmatch / lam * (cell - pi)


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


def direct_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """One-step estimator selecting the plug-in maximizer/minimizer per row."""
    th_l = theta_lower(pi)
    th_u = theta_upper(pi)
    d_l = np.argmax(th_l, axis=-1)
    d_u = np.argmin(th_u, axis=-1)
    c = psi_correction(data, lam1, pi)
    rows = np.arange(data.n)
    phi_l = theta_lower(pi + c)[rows, d_l]
    phi_u = theta_upper(pi + c)[rows, d_u]
    return _finish(data, phi_l, phi_u, d_l + 1, d_u + 1, "direct", {})


def plugin_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """Sample average of the row-wise extreme candidates at the plug-in pi."""
    th_l = theta_lower(pi)
    th_u = theta_upper(pi)
    d_l = np.argmax(th_l, axis=-1)
    d_u = np.argmin(th_u, axis=-1)
    return _finish(data, np.max(th_l, axis=-1), np.min(th_u, axis=-1),
                   d_l + 1, d_u + 1, "plugin", {})


def wald_interval(est: BoundEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Outer confidence interval: lower end below L-hat, upper end above U-hat."""
    z = z_quantile(alpha)
    return est.lower - z * est.se_lower, est.upper + z * est.se_upper
