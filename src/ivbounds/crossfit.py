"""Nuisance fitting, K-fold cross-fitting, and oracle nuisance evaluators.

Every nuisance source shares one protocol, ``evaluate(data) -> (lam1, pi)``
with ``lam1[i] = P(Z=1 | x_i)`` and ``pi[i, y, a, z] = P(Y=y, A=a | x_i, Z=z)``.
Fitted nuisances are plain predictors: ``fit_propensity`` returns
``x -> lam1`` truncated into [eps, 1-eps] and ``fit_joint`` returns
``x -> (n, 2, 2)`` cells of one instrument arm (a ``JointCells``, which
keeps its learner for a later refit).  ``cross_fit`` fits both per fold
and returns a ``FoldedNuisances``: the out-of-fold lam1 and each fold's
joint cells.

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
    "JointCells",
    "fold_assignment",
    "cross_fit",
    "check_cross_fit_settings",
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
    Entries must lie in [0, 2**32): a larger one is split into 32-bit words,
    so ``(2**32 + 5, 10)`` would be ``(5, 1, 10)``.  The paths in use are
    listed in the README under "Reproducibility".
    """
    if not all(0 <= v < 2 ** 32 for v in (seed, *path)):
        raise ValueError(f"stream path {(seed, *path)} has an entry outside [0, 2**32)")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


def expit(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def _check_propensity_settings(learner: LearnerSpec, eps: float) -> None:
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    if learner.name == "known":
        c = float(learner.params["value"])
        if not 0.0 < c < 1.0:
            raise ValueError(f"known propensity {c} outside (0, 1)")
        if not eps <= c <= 1.0 - eps:
            raise ValueError(f"known propensity {c} outside [eps, 1-eps]")


def check_cross_fit_settings(n_folds: int, pi_learner: LearnerSpec,
                             lambda_learner: LearnerSpec, eps: float = DEFAULT_EPS,
                             n: int | None = None) -> None:
    """Raise ``ValueError`` for settings ``cross_fit`` rejects (with ``n``, also n < 2K)."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    make_classifier(pi_learner, 4)  # fails for a joint-cell spec with no classifier
    _check_propensity_settings(lambda_learner, eps)
    if n is not None and n < 2 * n_folds:
        raise ValueError("need n >= 2K observations")


def fit_propensity(data: Dataset, learner: LearnerSpec,
                   eps: float = DEFAULT_EPS) -> Predictor:
    """Predictor x -> P(Z=1 | X=x), truncated into [eps, 1-eps]."""
    if data.n == 0:
        raise FitError("empty data")
    _check_propensity_settings(learner, eps)
    if learner.name == "known":
        c = float(learner.params["value"])

        def raw(x):
            return np.full(x.shape[0], c)
    else:
        if data.z.all() or not data.z.any():  # z is in {0, 1}
            raise FitError("degenerate data: instrument takes a single value")
        clf = make_classifier(learner, 2).fit(data.x, data.z, data.w)

        def raw(x):
            return clf.predict_proba(x)[:, 1]
    return lambda x: np.clip(raw(np.atleast_2d(x)), eps, 1.0 - eps)


@dataclass(frozen=True)
class JointCells:
    """Predictor x -> (n, 2, 2) cells of one instrument arm, indexed [y, a],
    with the learner spec and the classifier fitted on that arm."""

    learner: LearnerSpec
    classifier: object

    def __call__(self, x):
        return self.classifier.predict_proba(np.atleast_2d(x)).reshape(-1, 2, 2)


def fit_joint(data: Dataset, z: int, learner: LearnerSpec,
              previous: JointCells | None = None) -> JointCells:
    """Predictor x -> (n, 2, 2) cells P(Y=y, A=a | X=x, Z=z), indexed [y, a].

    ``previous`` is this arm's predictor fitted by the same learner on rows
    whose x, z and w equal ``data``'s.  A knn learner then keeps its tree
    and any neighbours it kept, and recounts the new outcome's labels
    (``KnnFrequency.relabel``, which checks the rows); every other learner
    is fitted afresh.
    """
    if not np.all((data.y == 0) | (data.y == 1)):
        raise FitError("joint cells need an outcome in {0, 1}")
    arm = np.flatnonzero(data.z == z)  # take is faster than a boolean mask here
    if not len(arm):
        raise FitError(f"no observations in instrument arm z={z}")
    fit_args = (data.x.take(arm, axis=0), 2 * data.y.take(arm).astype(int) + data.a.take(arm),
                data.w.take(arm))
    if learner.name == "knn" and previous is not None and previous.learner == learner:
        return JointCells(learner, previous.classifier.relabel(*fit_args))
    return JointCells(learner, make_classifier(learner, 4).fit(*fit_args))


@dataclass
class FoldedNuisances:
    """Per-fold joint-cell predictors, each fitted on its fold's complement,
    and the out-of-fold propensity ``cross_fit`` predicted."""

    folds: np.ndarray                           # (n,) fold index per row, 0..K-1
    lam1: np.ndarray = field(repr=False)        # (n,) out-of-fold lam1, read-only
    joint: list[tuple[JointCells, JointCells]]  # per fold: (z=0, z=1) cells
    descriptor: dict
    fitted_on: Dataset = field(repr=False)

    def _check_rows(self, data: Dataset) -> None:
        """Raise unless ``data`` has the fitted rows' x, z and w; y may differ."""
        ref = self.fitted_on
        if data.n != ref.n or not all(
                np.array_equal(a, b) for a, b in
                ((data.x, ref.x), (data.z, ref.z), (data.w, ref.w))):
            raise ValueError("dataset differs from the rows the folds were fitted on")

    def refit_joint(self, data: Dataset) -> "FoldedNuisances":
        """Copy with every fold's joint cells refit on ``data``, which may
        differ from the fitted rows in its outcome alone; the folds and
        ``lam1`` are shared.  Each arm refits by its own learner from its
        current cells (see ``fit_joint``), so a knn arm reuses the neighbours
        it kept after ``keep_neighbours``, with no search."""
        self._check_rows(data)
        joint = []
        for k, arms in enumerate(self.joint):
            train = data.subset(np.flatnonzero(self.folds != k))
            joint.append(tuple(fit_joint(train, z, cells.learner, cells)
                               for z, cells in enumerate(arms)))
        return replace(self, joint=joint)

    def keep_neighbours(self) -> "FoldedNuisances":
        """Make each knn joint arm keep the neighbours of the fold it answers,
        for the copies ``refit_joint`` makes; they cost n * k * 8 bytes per
        arm, so only a caller that refits asks for them."""
        for arms in self.joint:
            for cells in arms:
                if cells.learner.name == "knn":
                    cells.classifier.keep_neighbours()
        return self

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Out-of-fold nuisances on the fitted rows; ``data`` may differ from
        them in its outcome alone.  The propensity is ``lam1``, read-only."""
        self._check_rows(data)
        pi = np.empty((data.n, 2, 2, 2))
        for k, arms in enumerate(self.joint):
            idx = np.flatnonzero(self.folds == k)
            x = data.x[idx]
            for z, cells in enumerate(arms):
                pi[idx, :, :, z] = cells(x)
        return self.lam1, pi


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
    """Fit per-fold predictors on each fold's complement, and predict the
    propensity of each fold's rows from its fit."""
    check_cross_fit_settings(n_folds, pi_learner, lambda_learner, eps, data.n)
    folds = fold_assignment(rng_stream(seed, 0).random(data.n), n_folds)
    lam1, joint = np.empty(data.n), []
    for k in range(n_folds):
        train = data.subset(np.flatnonzero(folds != k))
        if train.z.all() or not train.z.any():
            raise FitError(f"fold {k}: training complement lacks an instrument arm")
        idx = np.flatnonzero(folds == k)
        lam1[idx] = fit_propensity(train, lambda_learner, eps)(data.x[idx])
        joint.append((fit_joint(train, 0, pi_learner), fit_joint(train, 1, pi_learner)))
    lam1.flags.writeable = False
    return FoldedNuisances(folds, lam1, joint,
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
    zero_mask: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 2), dtype=bool))

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.lambda1_fn(data.x), dtype=float),
                np.asarray(self.pi_fn(data.x), dtype=float))


@dataclass
class _NoisyNuisance:
    """The truth shifted on the logit scale by ``scale * (1 + e)`` for nine
    fixed standard normals ``e``: one for lam1, then one per cell."""

    truth: ClosedFormNuisance
    normals: np.ndarray
    scale: float

    def __post_init__(self):
        draws = self.scale + self.scale * self.normals
        self.eps_lambda, self.eps_pi = float(draws[0]), draws[1:].reshape(2, 2, 2)

    def truth_logits(self, data: Dataset) -> tuple:
        """The checked truth at ``data``'s rows, which ``shift`` perturbs:
        logit lam1, and the cells with their live ones on the logit scale."""
        lam1, pi = self.truth.evaluate(data)
        if np.any((lam1 <= 0) | (lam1 >= 1)):
            raise ValueError("propensity truth of 0/1 cannot be logit-perturbed")
        live = ~self.truth.zero_mask
        if np.any((pi[:, live] <= 0) | (pi[:, live] >= 1)):
            raise ValueError("only structurally-zero cells may be exactly 0/1")
        cells = np.array(pi)
        cells[:, live] = logit(pi[:, live])
        return logit(lam1), cells

    def shift(self, logits: tuple) -> tuple[np.ndarray, np.ndarray]:
        lam_logit, cells = logits
        live = ~self.truth.zero_mask
        out = np.array(cells)
        out[:, live] = expit(cells[:, live] + self.eps_pi[live])
        return expit(lam_logit + self.eps_lambda), out

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        return self.shift(self.truth_logits(data))


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
    return _NoisyNuisance(truth, rng.standard_normal(9), h * n ** (-r))
