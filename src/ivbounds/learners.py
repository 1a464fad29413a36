"""Built-in nuisance learners.

All classifiers share the interface ``fit(X, labels, w)`` /
``predict_proba(X) -> (n, k)`` with rows on the k-simplex.  Frequency-based
learners apply Laplace smoothing so no predicted cell is exactly 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "FitError",
    "LearnerSpec",
    "parse_learner_spec",
    "ConstantFrequency",
    "HistogramPartition",
    "KnnFrequency",
    "SoftmaxRegression",
    "make_classifier",
]

LAPLACE_ALPHA = 1.0


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class LearnerSpec:
    """Named learner with keyword parameters, e.g. ``histogram(max_depth=3)``."""

    name: str
    params: dict = field(default_factory=dict)


def parse_learner_spec(text: str) -> LearnerSpec:
    """Parse CLI-style specs such as ``known:0.5``, ``knn:50``, ``histogram``."""
    name, _, arg = text.partition(":")
    name = name.strip()
    if name == "known":
        return LearnerSpec("known", {"value": float(arg)})
    if name == "knn" and arg:
        return LearnerSpec("knn", {"k": int(arg)})
    if name == "histogram" and arg:
        return LearnerSpec("histogram", {"max_depth": int(arg)})
    if name in ("constant", "histogram", "knn", "logistic", "softmax"):
        return LearnerSpec(name)
    raise ValueError(f"unknown learner spec: {text!r}")


class ConstantFrequency:
    """Pooled smoothed class frequencies, ignoring covariates."""

    def __init__(self, n_classes: int, alpha: float = LAPLACE_ALPHA):
        self.n_classes = n_classes
        self.alpha = alpha

    def fit(self, X, labels, w):
        counts = np.bincount(labels, weights=w, minlength=self.n_classes)
        smoothed = counts + self.alpha
        self.proba_ = smoothed / smoothed.sum()
        return self

    def predict_proba(self, X):
        return np.tile(self.proba_, (np.atleast_2d(X).shape[0], 1))


class HistogramPartition:
    """Axis-aligned recursive partition with per-cell smoothed frequencies.

    Splits greedily maximize the weighted multinomial log-likelihood over a
    quantile grid of candidate thresholds, subject to a depth cap and a
    minimum cell count.  Each node scores every threshold of a feature in
    one pass: rows are binned into the sorted unique thresholds, class
    counts per bin are accumulated from each end, and the gains are
    evaluated together.  Within a feature the first threshold of maximal
    gain wins; a later feature wins only with a strictly greater gain, and
    no split is made unless the gain exceeds 1e-12.
    """

    def __init__(self, n_classes: int, max_depth: int = 4, min_cell: int = 25,
                 n_thresholds: int = 16, alpha: float = LAPLACE_ALPHA):
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_cell = min_cell
        self.n_thresholds = n_thresholds
        self.alpha = alpha

    def _leaf(self, labels, w):
        counts = np.bincount(labels, weights=w, minlength=self.n_classes)
        smoothed = counts + self.alpha
        return {"proba": smoothed / smoothed.sum()}

    @staticmethod
    def _loglik(counts):
        """Multinomial log-likelihood of the class counts on the last axis."""
        total = counts.sum(axis=-1, keepdims=True)
        ratio = np.divide(counts, total, out=np.ones(counts.shape), where=counts > 0)
        return np.sum(counts * np.log(ratio), axis=-1)

    def _split(self, X, labels, w):
        """(feature, threshold) of the best split, or None."""
        k = self.n_classes
        n = len(labels)
        base = self._loglik(np.bincount(labels, weights=w, minlength=k))
        levels = np.linspace(0, 1, self.n_thresholds + 2)[1:-1]
        best_gain, best = 1e-12, None
        for j in range(X.shape[1]):
            col = X[:, j]
            thr = np.unique(np.quantile(col, levels))
            # A row lies left of thr[i] exactly when its bin is <= i.
            bins = np.searchsorted(thr, col)
            cells = np.bincount(bins * k + labels, weights=w,
                                minlength=(len(thr) + 1) * k).reshape(-1, k)
            left = np.cumsum(cells, axis=0)[:-1]
            right = np.cumsum(cells[::-1], axis=0)[-2::-1]
            n_left = np.cumsum(np.bincount(bins, minlength=len(thr) + 1))[:-1]
            gain = self._loglik(left) + self._loglik(right) - base
            gain[(n_left < self.min_cell) | (n - n_left < self.min_cell)] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain, best = gain[i], (j, thr[i])
        return best

    def _build(self, X, labels, w, depth):
        node = self._leaf(labels, w)
        if depth >= self.max_depth or len(labels) < 2 * self.min_cell:
            return node
        split = self._split(X, labels, w)
        if split is None:
            return node
        j, thr = split
        left = X[:, j] <= thr
        node.update(feature=j, threshold=thr,
                    left=self._build(X[left], labels[left], w[left], depth + 1),
                    right=self._build(X[~left], labels[~left], w[~left], depth + 1))
        return node

    def fit(self, X, labels, w):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.tree_ = self._build(X, np.asarray(labels), np.asarray(w, dtype=float), 0)
        return self

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.n_classes))
        idx = np.arange(X.shape[0])
        stack = [(self.tree_, idx)]
        while stack:
            node, rows = stack.pop()
            if "feature" not in node:
                out[rows] = node["proba"]
                continue
            left = X[rows, node["feature"]] <= node["threshold"]
            stack.append((node["left"], rows[left]))
            stack.append((node["right"], rows[~left]))
        return out


class KnnFrequency:
    """k-nearest-neighbor smoothed class frequencies."""

    def __init__(self, n_classes: int, k: int = 50, alpha: float = LAPLACE_ALPHA):
        self.n_classes = n_classes
        self.k = k
        self.alpha = alpha

    def fit(self, X, labels, w):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.tree_ = cKDTree(X)
        self.labels_ = np.asarray(labels)
        self.w_ = np.asarray(w, dtype=float)
        self.k_ = min(self.k, X.shape[0])
        return self

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _, nbr = self.tree_.query(X, k=self.k_)
        nbr = np.atleast_2d(nbr)
        counts = np.zeros((X.shape[0], self.n_classes))
        lab = self.labels_[nbr]
        wgt = self.w_[nbr]
        for c in range(self.n_classes):
            counts[:, c] = np.sum(wgt * (lab == c), axis=1)
        counts += self.alpha
        return counts / counts.sum(axis=1, keepdims=True)


class SoftmaxRegression:
    """Multinomial logistic regression by monotone gradient ascent.

    The weighted log-likelihood is maximized with a backtracking step rule,
    so it never decreases between iterations (asserted).  A small ridge term
    keeps the problem strictly concave under separation.
    """

    def __init__(self, n_classes: int, max_iter: int = 300, tol: float = 1e-9,
                 ridge: float = 1e-4):
        self.n_classes = n_classes
        self.max_iter = max_iter
        self.tol = tol
        self.ridge = ridge

    @staticmethod
    def _design(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.hstack([np.ones((X.shape[0], 1)), X])

    @staticmethod
    def _proba(phi, beta):
        logits = phi @ beta
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        return expl / expl.sum(axis=1, keepdims=True)

    def _objective(self, phi, onehot, w, beta):
        logits = phi @ beta
        shift = logits.max(axis=1, keepdims=True)
        logz = shift[:, 0] + np.log(np.exp(logits - shift).sum(axis=1))
        ll = float(np.sum(w * (np.sum(onehot * logits, axis=1) - logz)))
        return ll - 0.5 * self.ridge * float(np.sum(beta**2))

    def fit(self, X, labels, w):
        phi = self._design(X)
        labels = np.asarray(labels)
        w = np.asarray(w, dtype=float)
        w = w / w.mean()
        onehot = np.eye(self.n_classes)[labels]
        beta = np.zeros((phi.shape[1], self.n_classes))
        obj = self._objective(phi, onehot, w, beta)
        step = 1.0 / max(1.0, float(np.mean(np.sum(phi**2, axis=1))))
        self.history_ = [obj]
        for _ in range(self.max_iter):
            grad = phi.T @ (w[:, None] * (onehot - self._proba(phi, beta))) / len(w)
            grad -= self.ridge * beta / len(w)
            while True:
                cand = beta + step * grad
                new_obj = self._objective(phi, onehot, w, cand)
                if new_obj >= obj or step < 1e-12:
                    break
                step *= 0.5
            if new_obj < obj:
                break
            assert new_obj >= self.history_[-1]
            beta, gain, obj = cand, new_obj - obj, new_obj
            self.history_.append(obj)
            step *= 1.2
            if gain < self.tol * (1.0 + abs(obj)):
                break
        self.beta_ = beta
        return self

    def predict_proba(self, X):
        return self._proba(self._design(X), self.beta_)


def make_classifier(spec: LearnerSpec, n_classes: int):
    if spec.name == "constant":
        return ConstantFrequency(n_classes, **spec.params)
    if spec.name == "histogram":
        return HistogramPartition(n_classes, **spec.params)
    if spec.name == "knn":
        return KnnFrequency(n_classes, **spec.params)
    if spec.name in ("softmax", "logistic"):
        return SoftmaxRegression(n_classes, **spec.params)
    raise ValueError(f"no classifier for learner {spec.name!r}")
