"""Nuisance fitting, K-fold cross-fitting, and oracle nuisance evaluators.

Every nuisance source shares one protocol, ``evaluate(data) -> (lam1, pi)``
with ``lam1[i] = P(Z=1 | x_i)`` and ``pi[i, y, a, z] = P(Y=y, A=a | x_i, Z=z)``.
Fitted nuisances are plain predictors: ``fit_propensity`` returns
``x -> lam1`` truncated into [eps, 1-eps] and ``fit_joint`` returns
``x -> (n, 2, 2)`` cells of one instrument arm (a ``JointCells``, which
keeps its learner for a later refit).  The cross-fit is split where the
outcome enters: ``cross_fit`` draws the folds and predicts the out-of-fold
lam1, neither of which reads the outcome, and its ``FoldedNuisances`` fits
each fold's joint cells for the outcome of the data it evaluates.  So the
pseudo-outcomes of continuous mode, which differ in y alone, share one
cross-fit.

The fits are independent; each learner gets the full arrays and its fold
complement's row index.  From ``POOL_MIN_ROWS`` rows they run on one thread
per usable CPU, and each task writes only its fold's rows, so no number
depends on the thread count.

Randomness uses the Philox counter-based generator.  Streams are split by
seeding ``SeedSequence`` with an explicit path of integers (master seed,
then purpose, then replicate), so every fold/replication draws from its
own documented stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
# Rows from which the fits run on threads.  Below it two threads contending for the GIL
# over many small NumPy calls ran slower than one (README "Performance" has the crossover).
POOL_MIN_ROWS = 2 ** 16

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)  # macOS and Windows have none
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _in_task_order(fn, tasks: list[tuple], executor) -> list:
    """``fn(*task)`` per task, results in task order, by ``executor(workers)``'s map with
    one worker per usable CPU and task; with one worker, here in turn.  The first failing
    task in task order raises, as serially, and the map cancels the tasks still queued."""
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2:
        return [fn(*task) for task in tasks]
    with executor(workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _fits(fn, tasks: list[tuple], n: int) -> list:
    """In turn below ``POOL_MIN_ROWS`` rows, else on threads by ``_in_task_order``."""
    if n < POOL_MIN_ROWS:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor  # not imported by a small request
    return _in_task_order(fn, tasks, ThreadPoolExecutor)


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


def fit_propensity(data: Dataset, learner: LearnerSpec, eps: float = DEFAULT_EPS,
                   rows: np.ndarray | None = None) -> Predictor:
    """Predictor x -> P(Z=1 | X=x), truncated into [eps, 1-eps], fitted on
    the rows the boolean mask ``rows`` selects (every row by default)."""
    train = None if rows is None else np.flatnonzero(rows)
    z = data.z if train is None else data.z.take(train)
    if not len(z):
        raise FitError("empty data")
    _check_propensity_settings(learner, eps)
    if learner.name == "known":
        c = float(learner.params["value"])

        def raw(x):
            return np.full(x.shape[0], c)
    else:
        if z.all() or not z.any():  # z is in {0, 1}
            raise FitError("degenerate data: instrument takes a single value")
        clf = make_classifier(learner, 2).fit(data.x, data.z, data.w, train)

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
              previous: JointCells | None = None,
              rows: np.ndarray | None = None) -> JointCells:
    """Predictor x -> (n, 2, 2) cells P(Y=y, A=a | X=x, Z=z), indexed [y, a],
    fitted on the arm's rows among those the mask ``rows`` selects (every row by default).

    ``previous`` is this arm's predictor fitted by the same learner on rows
    whose x, z and w equal these rows'.  A classifier with ``relabel`` (knn)
    then keeps its tree and any neighbours it kept, and recounts the new
    outcome's labels (``KnnFrequency.relabel``, which checks the rows); every
    other learner is fitted afresh.
    """
    arm = np.flatnonzero(data.z == z if rows is None else rows & (data.z == z))  # take beats masks
    if not len(arm):
        raise FitError(f"no observations in instrument arm z={z}")
    y = data.y.take(arm)
    if not np.all((y == 0) | (y == 1)):
        raise FitError("joint cells need an outcome in {0, 1}")
    labels = 2 * (data.y == 1).astype(np.int8) + data.a  # class 2y + a, read in the arm only
    fit_args = (data.x, labels, data.w, arm)
    if previous is not None and previous.learner == learner and hasattr(
            previous.classifier, "relabel"):
        return JointCells(learner, previous.classifier.relabel(*fit_args))
    return JointCells(learner, make_classifier(learner, 4).fit(*fit_args))


@dataclass
class FoldedNuisances:
    """The folds and out-of-fold propensity ``cross_fit`` predicted, and the
    joint cells of the outcome last evaluated.

    ``evaluate`` fits each fold's two arms on the fold's complement for its
    data's outcome, handing each arm its cells from the previous call (see
    ``fit_joint``), and keeps them for the next call.
    """

    folds: np.ndarray                        # (n,) fold index per row, 0..K-1, uint8
    lam1: np.ndarray = field(repr=False)     # (n,) out-of-fold lam1, read-only
    pi_learner: LearnerSpec
    joint: list[tuple]                       # per fold: (z=0, z=1) cells, None unfitted
    fitted_on: Dataset = field(repr=False)
    keep: bool = False                       # arms whose learner can keep neighbours do

    def keep_neighbours(self) -> "FoldedNuisances":
        """Make each joint arm that can (knn) keep the neighbours of the fold it
        answers, so a later ``evaluate`` recounts over them with no search; they
        cost n * k * 8 bytes per arm, so only a caller that evaluates more than
        one outcome asks for them."""
        self.keep = True
        return self

    def evaluate(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Out-of-fold nuisances on the fitted rows; ``data`` may differ from
        them in its outcome alone.  The propensity is ``lam1``, read-only.  Each
        of its 2K (fold, arm) tasks, shared more evenly than K, writes its fold's pi."""
        ref = self.fitted_on
        if data.n != ref.n or not all(
                np.array_equal(a, b) for a, b in
                ((data.x, ref.x), (data.z, ref.z), (data.w, ref.w))):
            raise ValueError("dataset differs from the rows the folds were fitted on")
        pi = np.empty((data.n, 2, 2, 2))

        def fit(k, z):
            cells = fit_joint(data, z, self.pi_learner, self.joint[k][z], self.folds != k)
            if self.keep and hasattr(cells.classifier, "keep_neighbours"):
                cells.classifier.keep_neighbours()
            idx = np.flatnonzero(self.folds == k)
            pi[idx, :, :, z] = cells(data.x[idx])
            return cells

        cells = _fits(fit, [(k, z) for k in range(len(self.joint)) for z in (0, 1)], data.n)
        self.joint = list(zip(cells[::2], cells[1::2]))
        return self.lam1, pi


def fold_assignment(u: np.ndarray, n_folds: int) -> np.ndarray:
    """Fold labels from per-row uniform draws.

    Rows are ranked by their draw and dealt round-robin, so sizes differ by
    at most one and a common permutation of rows and draws permutes the
    assignment identically.  Tied draws rank in row order (a stable sort);
    distinct ones rank the same by NumPy's faster default sort.  The labels
    come in the smallest unsigned type that holds them (uint8 below 257 folds).
    """
    order = np.argsort(u)
    s = np.take(u, order)
    if not np.all(s[1:] > s[:-1]):  # only distinct draws rank alike under every sort
        order = np.argsort(u, kind="stable")
    ranks = np.empty(len(u), dtype=int)
    ranks[order] = np.arange(len(u))
    ranks %= n_folds
    return ranks.astype(np.min_scalar_type(n_folds - 1))


def cross_fit(data: Dataset, n_folds: int, pi_learner: LearnerSpec,
              lambda_learner: LearnerSpec, seed: int,
              eps: float = DEFAULT_EPS) -> FoldedNuisances:
    """Draw the folds; fold k's task fits the propensity on the fold's complement,
    predicts the fold's rows and writes them, so its model is freed with the task.
    Reads no outcome: the joint cells are fitted by ``FoldedNuisances.evaluate``."""
    check_cross_fit_settings(n_folds, pi_learner, lambda_learner, eps, data.n)
    folds = fold_assignment(rng_stream(seed, 0).random(data.n), n_folds)
    size = np.bincount(folds, minlength=n_folds)
    ones = np.bincount(folds, weights=data.z, minlength=n_folds)  # rows with z = 1
    lam1 = np.empty(data.n)

    def fit(k):
        if ones.sum() - ones[k] in (0, data.n - size[k]):
            raise FitError(f"fold {k}: training complement lacks an instrument arm")
        idx = np.flatnonzero(folds == k)
        lam1[idx] = fit_propensity(data, lambda_learner, eps, folds != k)(data.x[idx])

    _fits(fit, [(k,) for k in range(n_folds)], data.n)
    lam1.flags.writeable = False
    return FoldedNuisances(folds, lam1, pi_learner, [(None, None)] * n_folds, data)


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
                          seed: int, replicate: int = 0):
    """Truth-based evaluators with one logit-scale Gaussian shift per function.

    Shifts are iid N(h * n^-r, h^2 * n^-2r), drawn once per non-structurally-
    zero nuisance function, giving L2 error of order n^-r.  They come from
    the stream (seed, 1, replicate); replicate 0 is the stream (seed, 1).
    """
    if not 0 < r <= 0.5:
        raise ValueError("r must lie in (0, 0.5]")
    if h < 0:
        raise ValueError("h must be nonnegative")
    rng = rng_stream(seed, 1, replicate)
    return _NoisyNuisance(truth, rng.standard_normal(9), h * n ** (-r))
