"""Bounded continuous outcomes via randomized threshold dichotomization.

A bounded outcome rescaled to [0, 1] is replaced by the pseudo-outcome
1(Y <= W) with W ~ Uniform(0, 1) drawn independently per observation.
The binary-outcome machinery applied to the pseudo-outcome bounds
E[1(Y(a) <= W)] = E[1 - Y(a)], so ATE bounds for Y are the negated and
swapped pseudo-outcome bounds.  Averaging the per-observation influence
values over m independent threshold draws reduces the dichotomization
noise: the variance of the m-averaged estimator is
(1/n) (sigma^2 + (mu (1 - mu) - sigma^2) / m)
when a single draw has mean mu and influence variance sigma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import rng_stream
from .data import Dataset
from .estimators import BoundEstimate, _finish, direct_bounds
from .lse import check_temperature, lse_bounds

__all__ = [
    "OutcomeTransform",
    "threshold_draw",
    "augment",
    "continuous_bounds",
    "threshold_mean_estimate",
    "averaged_variance",
]


def averaged_variance(mu: float, sigma2: float, n: int, m: int) -> float:
    """Variance of the m-averaged randomized-threshold mean estimator."""
    return (sigma2 + (mu * (1.0 - mu) - sigma2) / m) / n


def threshold_mean_estimate(t_values: np.ndarray, m: int, seed: int) -> float:
    """Unbiased estimate of E[T] from indicators 1(T > W), averaged over m draws."""
    t_values = np.asarray(t_values, dtype=float)
    n = len(t_values)
    est = 0.0
    for rep in range(m):
        w = threshold_draw(n, seed, rep)
        est += np.count_nonzero(t_values > w) / n
    return est / m


@dataclass(frozen=True)
class OutcomeTransform:
    """Affine map of a bounded outcome onto [0, 1]; the range must be positive."""

    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError("outcome range must be positive")

    @property
    def range(self) -> float:
        return self.high - self.low

    def to_unit(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.low) / self.range

    @classmethod
    def from_data(cls, y: np.ndarray) -> "OutcomeTransform":
        return cls(float(np.min(y)), float(np.max(y)))


def threshold_draw(n: int, seed: int, replicate: int) -> np.ndarray:
    """Uniform thresholds strictly inside (0, 1), one stream per replicate."""
    rng = rng_stream(seed, 20, replicate)
    return rng.integers(1, 2 ** 53, size=n) / 2.0 ** 53


def augment(data: Dataset, transform: OutcomeTransform, seed: int,
            replicate: int) -> Dataset:
    """Dataset with outcome 1(Y01 <= W) for fresh thresholds W."""
    y01 = transform.to_unit(data.y)
    bad = np.flatnonzero((y01 < 0) | (y01 > 1))
    if bad.size:
        raise ValueError(
            f"outcome outside the declared range at rows {bad[:10].tolist()}")
    w = threshold_draw(data.n, seed, replicate)
    return data.replace_outcome((y01 <= w).astype(float), "binary")


def continuous_bounds(data: Dataset, nuisances, m: int, seed: int,
                      method: str = "direct", t: float | None = None,
                      transform: OutcomeTransform | None = None) -> BoundEstimate:
    """ATE bounds for a bounded outcome, averaging m threshold replicates.

    ``nuisances.evaluate(aug)`` is called once per replicate's pseudo-outcome
    dataset ``aug``, which differs from ``data`` in its outcome alone.  A
    ``FoldedNuisances`` from one ``cross_fit`` of ``data`` keeps its folds and
    propensity, which do not read the outcome, and fits the joint cells of
    each pseudo-outcome.  For m > 1 a source with ``keep_neighbours`` keeps
    its knn neighbours, so later replicates recount them with no search.
    ``method`` is "direct" or "lse", which smooths at ``t`` as ``lse_bounds`` and
    keeps its ``t`` and ``t_rule`` in ``extra``; a ``t`` with "direct" is rejected.
    Point estimates and per-row influence values are averaged across
    replicates before the variance is formed, so the reported variance
    reflects the dichotomization-noise reduction from larger m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if method not in ("direct", "lse"):
        raise ValueError(f"method {method!r} is neither 'direct' nor 'lse'")
    if t is not None:
        if method != "lse":
            raise ValueError("t applies only to method 'lse'")
        check_temperature(t)
    if transform is None:
        transform = OutcomeTransform.from_data(data.y)
    if m > 1 and hasattr(nuisances, "keep_neighbours"):
        nuisances.keep_neighbours()
    acc_l = np.zeros(data.n)
    acc_u = np.zeros(data.n)
    for rep in range(m):
        aug = augment(data, transform, seed, rep)
        lam1, pi = nuisances.evaluate(aug)
        est = lse_bounds(aug, lam1, pi, t) if method == "lse" else direct_bounds(aug, lam1, pi)
        # Pseudo-outcome bounds sandwich E[1 - Y(a)]; negate and swap so the
        # accumulators track the ATE of the unit-scale outcome.
        acc_l += -est.phi_upper
        acc_u += -est.phi_lower
    extra = {"m": m, "outcome_low": transform.low, "outcome_high": transform.high,
             "scale": transform.range, **est.extra}
    return _finish(data, acc_l / m, acc_u / m, None, None,
                   f"continuous-{method}", extra)
