"""Nuisance fitting, K-fold cross-fitting, and oracle nuisance evaluators.

Every nuisance source shares one protocol, ``evaluate(data) -> (lam1, pi)``
with ``lam1[i] = P(Z=1 | x_i)`` and ``pi[i, y, a, z] = P(Y=y, A=a | x_i, Z=z)``.
Fitted nuisances are plain predictors: ``fit_propensity`` returns
``x -> lam1`` truncated into [eps, 1-eps] and ``fit_joint`` returns
``x -> (n, 2, 2)`` cells of one instrument arm.  ``FoldedNuisances`` holds,
per fold, the predictors fitted without that fold and evaluates each row
out of fold.

Randomness uses the Philox counter-based generator.  Streams are split by
seeding ``SeedSequence`` with an explicit path of integers (master seed,
then purpose, then replicate), so every fold/replication draws from its
own documented stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import Dataset
from .learners import FitError, LearnerSpec, make_classifier

__all__ = [
    "rng_stream",
    "FoldedNuisances",
    "fit_propensity",
    "fit_joint",
    "fold_assignment",
    "cross_fit",
    "ClosedFormNuisance",
    "oracle_noisy_nuisance",
    "DEFAULT_EPS",
    "DEFAULT_FOLDS",
]

DEFAULT_EPS = 0.01
DEFAULT_FOLDS = 5

# Joint-model class index for the 4 cells per instrument arm, in the order
# (y=0,a=0), (y=0,a=1), (y=1,a=0), (y=1,a=1): class = 2*y + a.

Predictor = Callable[[np.ndarray], np.ndarray]


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator on the sub-stream addressed by (seed, *path).

    ``SeedSequence`` zero-pads the path, so paths that differ only by
    trailing zeros are one stream: ``(s, 10, 0)`` draws exactly ``(s, 10)``.
    The paths in use are listed in the README under "Reproducibility".
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


def expit(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def fit_propensity(data: Dataset, learner: LearnerSpec,
                   eps: float = DEFAULT_EPS) -> Predictor:
    """Predictor x -> P(Z=1 | X=x), truncated into [eps, 1-eps]."""
    if data.n == 0:
        raise FitError("empty data")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    if learner.name == "known":
        c = float(learner.params["value"])
        if not 0.0 < c < 1.0:
            raise ValueError(f"known propensity {c} outside (0, 1)")
        if not eps <= c <= 1.0 - eps:
            raise ValueError(f"known propensity {c} outside [eps, 1-eps]")

        def raw(x):
            return np.full(x.shape[0], c)
    else:
        if len(np.unique(data.z)) < 2:
            raise FitError("degenerate data: instrument takes a single value")
        clf = make_classifier(learner, 2).fit(data.x, data.z, data.w)

        def raw(x):
            return clf.predict_proba(x)[:, 1]
    return lambda x: np.clip(raw(np.atleast_2d(x)), eps, 1.0 - eps)


def fit_joint(data: Dataset, z: int, learner: LearnerSpec) -> Predictor:
    """Predictor x -> (n, 2, 2) cells P(Y=y, A=a | X=x, Z=z), indexed [y, a]."""
    if not np.all(np.isin(data.y, [0.0, 1.0])):
        raise FitError("joint cells need an outcome in {0, 1}")
    arm = data.z == z
    if not np.any(arm):
        raise FitError(f"no observations in instrument arm z={z}")
    labels = (2 * data.y[arm].astype(int) + data.a[arm]).astype(int)
    clf = make_classifier(learner, 4).fit(data.x[arm], labels, data.w[arm])
    return lambda x: clf.predict_proba(np.atleast_2d(x)).reshape(-1, 2, 2)


def _fit_arms(train: Dataset, learner: LearnerSpec) -> tuple[Predictor, Predictor]:
    """Joint-cell predictors for the z=0 and z=1 arms of one training set."""
    return fit_joint(train, 0, learner), fit_joint(train, 1, learner)


@dataclass
class FoldedNuisances:
    """Per-fold predictors, each fitted on its fold's complement, with
    out-of-fold evaluation."""

    folds: np.ndarray                         # (n,) fold index per row, 0..K-1
    propensity: list[Predictor]               # per fold: x -> lam1
    joint: list[tuple[Predictor, Predictor]]  # per fold: (z=0, z=1) cells
    descriptor: dict
    fitted_on: Dataset = field(repr=False)

    def _check_rows(self, data: Dataset) -> None:
        """Raise unless ``data`` has the fitted rows' x, z and w; y may differ."""
        ref = self.fitted_on
        if data.n != ref.n or not all(
                np.array_equal(a, b) for a, b in
                ((data.x, ref.x), (data.z, ref.z), (data.w, ref.w))):
            raise ValueError("dataset differs from the rows the folds were fitted on")

    def refit_joint(self, data: Dataset, pi_learner: LearnerSpec) -> "FoldedNuisances":
        """Copy with every fold's joint cells refit on ``data``.

        The folds and the propensity predictors depend on (x, z, w) only, so
        they are shared; ``data`` may differ from the fitted rows in its
        outcome alone.
        """
        self._check_rows(data)
        joint = [_fit_arms(data.subset(np.flatnonzero(self.folds != k)), pi_learner)
                 for k in range(len(self.joint))]
        return replace(self, joint=joint,
                       descriptor={**self.descriptor, "pi": pi_learner.name})

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Out-of-fold nuisances on the fitted rows; ``data`` may differ from
        them in its outcome alone."""
        self._check_rows(data)
        lam1 = np.empty(data.n)
        pi = np.empty((data.n, 2, 2, 2))
        for k, (lam_k, arms) in enumerate(zip(self.propensity, self.joint)):
            idx = np.flatnonzero(self.folds == k)
            x = data.x[idx]
            lam1[idx] = lam_k(x)
            for z, cells in enumerate(arms):
                pi[idx, :, :, z] = cells(x)
        return lam1, pi


def fold_assignment(u: np.ndarray, n_folds: int) -> np.ndarray:
    """Fold labels from per-row uniform draws.

    Rows are ranked by their draw and dealt round-robin, so sizes differ by
    at most one and a common permutation of rows and draws permutes the
    assignment identically.
    """
    ranks = np.empty(len(u), dtype=int)
    ranks[np.argsort(u, kind="stable")] = np.arange(len(u))
    return ranks % n_folds


def cross_fit(data: Dataset, n_folds: int, pi_learner: LearnerSpec,
              lambda_learner: LearnerSpec, seed: int,
              eps: float = DEFAULT_EPS) -> FoldedNuisances:
    """Fit per-fold predictors on each fold's complement."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if data.n < 2 * n_folds:
        raise ValueError("need n >= 2K observations")
    folds = fold_assignment(rng_stream(seed, 0).random(data.n), n_folds)
    propensity, joint = [], []
    for k in range(n_folds):
        train = data.subset(np.flatnonzero(folds != k))
        if len(np.unique(train.z)) < 2:
            raise FitError(f"fold {k}: training complement lacks an instrument arm")
        propensity.append(fit_propensity(train, lambda_learner, eps))
        joint.append(_fit_arms(train, pi_learner))
    return FoldedNuisances(folds, propensity, joint,
                           {"pi": pi_learner.name, "lambda": lambda_learner.name,
                            "folds": n_folds, "eps": eps}, data)


@dataclass
class ClosedFormNuisance:
    """Closed-form nuisance truth for simulation DGPs.

    ``pi_fn`` maps covariates (n, d) to cells (n, 2, 2, 2); ``zero_mask``
    marks cells that are structurally zero (never perturbed).
    """

    lambda1_fn: Callable[[np.ndarray], np.ndarray]
    pi_fn: Callable[[np.ndarray], np.ndarray]
    zero_mask: np.ndarray | None = None

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.lambda1_fn(data.x), dtype=float),
                np.asarray(self.pi_fn(data.x), dtype=float))


@dataclass
class _NoisyNuisance:
    truth: ClosedFormNuisance
    eps_lambda: float
    eps_pi: np.ndarray  # (2, 2, 2) per-function shifts

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        lam1, pi = self.truth.evaluate(data)
        zero = (self.truth.zero_mask if self.truth.zero_mask is not None
                else np.zeros((2, 2, 2), dtype=bool))
        if np.any((lam1 <= 0) | (lam1 >= 1)):
            raise ValueError("propensity truth of 0/1 cannot be logit-perturbed")
        out = np.array(pi)
        live = ~zero
        if np.any((pi[:, live] <= 0) | (pi[:, live] >= 1)):
            raise ValueError("only structurally-zero cells may be exactly 0/1")
        out[:, live] = expit(logit(pi[:, live]) + self.eps_pi[live])
        return expit(logit(lam1) + self.eps_lambda), out


def oracle_noisy_nuisance(truth: ClosedFormNuisance, n: int, r: float, h: float,
                          seed: int, replicate: int | None = None):
    """Truth-based evaluators with one logit-scale Gaussian shift per function.

    Shifts are iid N(h * n^-r, h^2 * n^-2r), drawn once per non-structurally-
    zero nuisance function, giving L2 error of order n^-r.  They come from
    the stream (seed, 1, replicate), or (seed, 1) without a replicate.
    """
    if not 0 < r <= 0.5:
        raise ValueError("r must lie in (0, 0.5]")
    if h < 0:
        raise ValueError("h must be nonnegative")
    rng = rng_stream(seed, 1, *([] if replicate is None else [replicate]))
    scale = h * n ** (-r)
    draws = scale + scale * rng.standard_normal(9)
    return _NoisyNuisance(truth, float(draws[0]), draws[1:].reshape(2, 2, 2))
