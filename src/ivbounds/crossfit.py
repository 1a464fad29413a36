"""Nuisance fitting, K-fold cross-fitting, and oracle nuisance evaluators.

Randomness uses the Philox counter-based generator.  Streams are split by
seeding ``SeedSequence`` with an explicit path of integers (master seed,
then purpose-specific indices), so every fold/replication draws from its
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
    "PropensityModel",
    "JointModel",
    "FoldedNuisances",
    "SingleModelNuisances",
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


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator on the sub-stream addressed by (seed, *path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


def expit(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


@dataclass
class PropensityModel:
    """Evaluator for P(Z=1 | X), truncated into [eps, 1-eps]."""

    eps: float
    descriptor: str
    _predict: Callable[[np.ndarray], np.ndarray]
    truncate: bool = True

    def lambda1(self, x: np.ndarray) -> np.ndarray:
        p = np.asarray(self._predict(np.atleast_2d(x)), dtype=float)
        if self.truncate:
            p = np.clip(p, self.eps, 1.0 - self.eps)
        return p


@dataclass
class JointModel:
    """Evaluator for the 4-simplex of (Y, A) cells within one instrument arm."""

    z: int
    descriptor: str
    _predict: Callable[[np.ndarray], np.ndarray]

    def cell_probs(self, x: np.ndarray) -> np.ndarray:
        """Probabilities with shape (n, 2, 2) indexed [y, a]."""
        p = np.asarray(self._predict(np.atleast_2d(x)), dtype=float)
        return p.reshape(-1, 2, 2)


def fit_propensity(data: Dataset, learner: LearnerSpec,
                   eps: float = DEFAULT_EPS) -> PropensityModel:
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
        return PropensityModel(eps, f"known({c})",
                               lambda x: np.full(np.atleast_2d(x).shape[0], c),
                               truncate=False)
    if len(np.unique(data.z)) < 2:
        raise FitError("degenerate data: instrument takes a single value")
    clf = make_classifier(learner, 2).fit(data.x, data.z, data.w)
    return PropensityModel(eps, learner.name, lambda x: clf.predict_proba(x)[:, 1])


def fit_joint(data: Dataset, z: int, learner: LearnerSpec) -> JointModel:
    if data.outcome_kind == "binary" and not np.all(np.isin(data.y, [0.0, 1.0])):
        raise FitError("non-binary outcome under binary outcome kind")
    arm = data.z == z
    if not np.any(arm):
        raise FitError(f"no observations in instrument arm z={z}")
    labels = (2 * data.y[arm].astype(int) + data.a[arm]).astype(int)
    clf = make_classifier(learner, 4).fit(data.x[arm], labels, data.w[arm])
    return JointModel(z, learner.name, clf.predict_proba)


@dataclass
class SingleModelNuisances:
    """One (propensity, joint-pair) model applied to every row."""

    propensity: PropensityModel
    joint: dict  # z -> JointModel

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        lam1 = self.propensity.lambda1(data.x)
        pi = np.empty((data.n, 2, 2, 2))
        for z in (0, 1):
            pi[:, :, :, z] = self.joint[z].cell_probs(data.x)
        return lam1, pi


@dataclass
class FoldedNuisances:
    """Per-fold nuisance models with out-of-fold evaluation."""

    folds: np.ndarray                      # (n,) fold index per row, 0..K-1
    models: list[SingleModelNuisances]     # trained on the fold's complement
    seed: int
    descriptor: dict = field(default_factory=dict)
    fitted_on: Dataset | None = field(default=None, repr=False)

    @property
    def n_folds(self) -> int:
        return len(self.models)

    def refit_joint(self, data: Dataset, pi_learner: LearnerSpec) -> "FoldedNuisances":
        """Copy with every fold's joint cells refit on ``data``.

        The folds and the propensity models depend on (x, z, w) only, so they
        are shared; ``data`` may differ from the fitted rows in its outcome
        alone.
        """
        ref = self.fitted_on
        if ref is None or data.n != ref.n or not all(
                np.array_equal(a, b) for a, b in
                ((data.x, ref.x), (data.z, ref.z), (data.w, ref.w))):
            raise ValueError("dataset differs from the rows the folds were fitted on")
        models = []
        for k, model in enumerate(self.models):
            train = data.subset(np.flatnonzero(self.folds != k))
            models.append(SingleModelNuisances(
                model.propensity, {z: fit_joint(train, z, pi_learner) for z in (0, 1)}))
        return replace(self, models=models,
                       descriptor={**self.descriptor, "pi": pi_learner.name})

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        if len(self.folds) != data.n:
            raise ValueError("fold assignment does not cover this dataset")
        lam1 = np.empty(data.n)
        pi = np.empty((data.n, 2, 2, 2))
        for k in range(self.n_folds):
            idx = np.flatnonzero(self.folds == k)
            if idx.size == 0:
                continue
            lam_k, pi_k = self.models[k].evaluate(data.subset(idx))
            lam1[idx] = lam_k
            pi[idx] = pi_k
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
    """Fit per-fold nuisances on each fold's complement."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if data.n < 2 * n_folds:
        raise ValueError("need n >= 2K observations")
    u = rng_stream(seed, 0).random(data.n)
    folds = fold_assignment(u, n_folds)
    models = []
    for k in range(n_folds):
        train = data.subset(np.flatnonzero(folds != k))
        if len(np.unique(train.z)) < 2:
            raise FitError(f"fold {k}: training complement lacks an instrument arm")
        models.append(SingleModelNuisances(
            fit_propensity(train, lambda_learner, eps),
            {z: fit_joint(train, z, pi_learner) for z in (0, 1)},
        ))
    return FoldedNuisances(folds, models, seed,
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
                          seed: int):
    """Truth-based evaluators with one logit-scale Gaussian shift per function.

    Shifts are iid N(h * n^-r, h^2 * n^-2r), drawn once per non-structurally-
    zero nuisance function, giving L2 error of order n^-r.
    """
    if not 0 < r <= 0.5:
        raise ValueError("r must lie in (0, 0.5]")
    if h < 0:
        raise ValueError("h must be nonnegative")
    rng = rng_stream(seed, 1)
    scale = h * n ** (-r)
    draws = scale + scale * rng.standard_normal(9)
    return _NoisyNuisance(truth, float(draws[0]), draws[1:].reshape(2, 2, 2))
