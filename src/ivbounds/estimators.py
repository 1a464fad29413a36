"""Influence-function estimators of the nonparametric outcome bounds.

Given nuisance evaluations lam1 = P(Z=1|X) and pi[i, y, a, z] =
P(Y=y, A=a | X=x_i, Z=z), each observation contributes a mean-zero
correction

    c[i, y, a, z] = 1(z_i = z) / lam_z(x_i) * (1(y_i = y, a_i = a) - pi[i, y, a, z]),

and the one-step bound estimates average, per row, the candidate that is
extreme at the plug-in pi plus that candidate's linear part at c.

``BoundKernel`` computes what the direct, plug-in and smooth contributions
share, once, on the cell-major layout of ``bounds``: pi is checked and laid
out as eight cell columns when the kernel starts, the candidates at pi with
their extremes and selectors follow, and the direct and smooth estimators
share the linear candidates at c, built on first use.  One block loop,
``_by_blocks``, runs every kernel: one per ``ROW_BLOCK`` rows, in turn in
the caller, whose per-row values it writes into full-length arrays.  Each
kernel step is row-wise, so the block size moves no bit.  Every estimate is
finished once, by ``_finish`` over the joined values;
``simulation`` stacks its noise rates on the rows of a tiled dataset and
takes each rate's means from one loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bounds import _LOWER, _UPPER, _candidates, _cells, _profile, _rows, _select
# The theta_* functions are imported only for perfbench/spans.py, which traces
# them under this module's name as well as lse's.
from .bounds import theta_lower, theta_lower_linear, theta_upper, theta_upper_linear
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
    """Per-observation correction array of shape (n, 2, 2, 2) for lam1 of
    shape (n,) and pi of shape (n, 2, 2, 2)."""
    if not np.all((data.y == 0.0) | (data.y == 1.0)):
        raise ValueError("the correction needs an outcome in {0, 1}")
    cells, lam1, z = _cells(pi, check=False), np.asarray(lam1, dtype=float), data.z
    with np.errstate(divide="ignore"):  # a zero is rejected below
        own = 1.0 / np.where(z == 1, lam1, 1.0 - lam1)  # 1 / lam_z in the row's own arm z
    if not np.all(np.isfinite(own)):
        raise ValueError("the correction needs 0 < lam1 < 1 in each row's own arm")
    inv_lam = own * (z == [[0], [1]])  # per arm z: 1 / lam_z in own rows, else 0
    observed = 2 * data.y + data.a == np.arange(4)[:, None]  # row 2y + a: 1(y_i = y, a_i = a)
    c = observed.reshape(4, 1, data.n) - cells.reshape(4, 2, data.n)
    c *= inv_lam
    return _rows(c.reshape(cells.shape))


@dataclass
class BoundEstimate:
    """Point estimates with per-observation influence values.

    ``phi_lower``/``phi_upper`` are the uncentered per-row contributions
    whose weighted means are ``lower``/``upper``; variances are weighted
    second moments about those means.  ``d_lower``/``d_upper`` hold the
    1-based plug-in selector per row (uint8), or ``None`` when selection is not
    tracked (replicate-averaged estimates).  An estimate smoothed at
    temperature ``extra["t"]`` lies within ``smoothing_bias`` of each bound.
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
    extra: dict

    @property
    def se_lower(self) -> float:
        return float(np.sqrt(self.var_lower / self.n))

    @property
    def se_upper(self) -> float:
        return float(np.sqrt(self.var_upper / self.n))

    @property
    def smoothing_bias(self) -> float:
        """log(8)/t for an estimate smoothed at temperature t, else 0."""
        return np.log(8.0) / self.extra["t"] if "t" in self.extra else 0.0

    def selection_frequencies(self) -> dict | None:
        if self.d_lower is None:
            return None
        return {
            "lower": np.bincount(self.d_lower - 1, minlength=8) / len(self.d_lower),
            "upper": np.bincount(self.d_upper - 1, minlength=8) / len(self.d_upper),
        }


def _mean(w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.sum(w * phi, axis=-1)  # pairwise: unlike a BLAS dot, thread-independent


def _finish(data, lower_phi, upper_phi, d_l, d_u, method, extra) -> BoundEstimate:
    """The estimate from per-row contributions."""
    w = data.normalized_weights()
    lhat, uhat = float(_mean(w, lower_phi)), float(_mean(w, upper_phi))
    return BoundEstimate(
        lower=lhat, upper=uhat,
        var_lower=float(_mean(w, (lower_phi - lhat) ** 2)),
        var_upper=float(_mean(w, (upper_phi - uhat) ** 2)),
        n=data.n, method=method,
        phi_lower=lower_phi, phi_upper=upper_phi,
        d_lower=d_l, d_upper=d_u,
        extra=extra,
    )


class BoundKernel:
    """Per-row pieces shared by the estimators at nuisances (lam1, pi): the
    cell columns of pi (until ``c`` is built), the candidate columns (8, ...)
    at them (``cand_l``, ``cand_u``) with their extremes and 1-based
    selectors, and, on first use, ``c``, the linear lower and upper
    candidates at the correction; ``_by_blocks`` runs one per block."""

    def __init__(self, data: Dataset, lam1: np.ndarray, pi: np.ndarray):
        self.data, self.lam1 = data, lam1
        self.cells = _cells(pi)  # the only finiteness check of pi
        (self.cand_l, self.cand_u, self.gamma_l, self.d_l,
         self.gamma_u, self.d_u) = _profile(self.cells)

    @functools.cached_property
    def c(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear lower and upper candidates at the correction, each (8, ...).
        The cell columns of pi are read only here, and dropped."""
        pi, self.cells = _rows(self.cells), None
        c = _cells(psi_correction(self.data, self.lam1, pi), check=False)
        del pi
        return _candidates(c, _LOWER, linear=True), _candidates(c, _UPPER, linear=True)

    def direct_phi(self) -> tuple[np.ndarray, np.ndarray]:
        c_l, c_u = self.c
        return self.gamma_l + _select(c_l, self.d_l), self.gamma_u + _select(c_u, self.d_u)


ROW_BLOCK = 8192  # rows per kernel: its eight candidate columns (512 KiB) stay in L2


def _by_blocks(data: Dataset, lam1, pi, phi) -> list[np.ndarray]:
    """The per-row arrays of ``phi(kernel, rows)``, one kernel per block ``rows`` of
    at most ``ROW_BLOCK`` rows, in turn, writing into the arrays the first allocates."""
    lam1, pi = np.asarray(lam1, dtype=float), np.asarray(pi, dtype=float)
    if not data.n or lam1.shape != (data.n,) or pi.shape != (data.n, 2, 2, 2):
        raise ValueError(f"lam1 {lam1.shape} and pi {pi.shape} need the data's {data.n} "
                         "rows, and the data at least one")
    out = []
    for rows in (slice(lo, lo + ROW_BLOCK) for lo in range(0, data.n, ROW_BLOCK)):
        parts = phi(BoundKernel(data.subset(rows), lam1[rows], pi[rows]), rows)
        if not out:
            out.extend(np.empty(data.n, dtype=part.dtype) for part in parts)
        for full, part in zip(out, parts):
            full[rows] = part
    return out


def direct_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """One-step estimator selecting the plug-in maximizer/minimizer per row."""
    return _finish(data, *_by_blocks(data, lam1, pi, lambda k, rows: (
        *k.direct_phi(), k.d_l, k.d_u)), "direct", {})


def plugin_bounds(data: Dataset, lam1: np.ndarray, pi: np.ndarray) -> BoundEstimate:
    """Sample average of the row-wise extreme candidates at the plug-in pi."""
    return _finish(data, *_by_blocks(data, lam1, pi, lambda k, rows: (
        k.gamma_l, k.gamma_u, k.d_l, k.d_u)), "plugin", {})


def wald_interval(est: BoundEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Outer confidence interval: lower end below L-hat, upper end above U-hat,
    each widened by the estimate's smoothing bias."""
    z, pad = z_quantile(alpha), est.smoothing_bias
    return est.lower - pad - z * est.se_lower, est.upper + pad + z * est.se_upper
