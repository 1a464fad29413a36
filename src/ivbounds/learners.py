"""Built-in nuisance learners.

All classifiers share the interface ``fit(X, labels, w)`` /
``predict_proba(X) -> (n, k)`` with rows on the k-simplex.  Frequency-based
learners apply Laplace smoothing so no predicted cell is exactly 0 or 1.
"""

from __future__ import annotations

import copy
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


# The argument a learner takes after ``name:``: (keyword, type, least value).
_ARGUMENTS = {"known": ("value", float, None), "knn": ("k", int, 1),
              "histogram": ("max_depth", int, 0),
              "constant": None, "logistic": None, "softmax": None}


def parse_learner_spec(text: str) -> LearnerSpec:
    """Parse CLI-style specs such as ``known:0.5``, ``knn:50``, ``histogram``.

    ``known:c`` needs a number, ``knn:k`` takes an integer k >= 1 and
    ``histogram:d`` an integer depth d >= 0; the other learners take no
    argument.  Any other spec raises ``ValueError``.
    """
    name, sep, arg = text.partition(":")
    name = name.strip()
    if name not in _ARGUMENTS:
        raise ValueError(f"unknown learner spec: {text!r}")
    if not sep and name != "known":
        return LearnerSpec(name)
    if _ARGUMENTS[name] is None:
        raise ValueError(f"learner {name!r} takes no argument: {text!r}")
    key, kind, least = _ARGUMENTS[name]
    try:
        value = kind(arg)
    except ValueError:
        kind_name = "a number" if kind is float else "an integer"
        raise ValueError(f"{key} of learner {name!r} must be {kind_name}: {text!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{key} of learner {name!r} must be >= {least}: {text!r}")
    return LearnerSpec(name, {key: value})


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
    minimum cell count.  Within a feature the first threshold of maximal
    gain wins; a later feature wins only with a strictly greater gain, and
    no split is made unless the gain exceeds 1e-12.

    ``fit`` argsorts each column once; a node holds one row order per
    feature, and each child keeps its rows of the parent's orders, which
    stay sorted (presorted CART: Breiman et al. 1984; SLIQ, Mehta et al.
    1996).  A node's thresholds are read from its sorted columns by NumPy's
    ``linear`` quantile rule (virtual index ``(m - 1) q``, then NumPy's
    ``_lerp``), so they equal ``np.quantile`` bitwise.  A binary search of
    each sorted column gives the rows left of every threshold; each row's
    bin goes back to row order, and the class counts per bin are summed in
    row order, as a fit on the unsorted rows sums them.  So the tree depends
    on the sorted values alone, and the order ``np.argsort`` leaves ties in
    does not matter.  All features of a node are scored in one pass over a
    ``(d, m)`` stack of orders.  Repeated thresholds are kept: they only add
    empty bins, which change no count, and the first of equal gains wins.
    ``fit`` rejects non-finite covariates or weights with ``ValueError``.
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

    @staticmethod
    def _quantiles(cols, levels):
        """``np.quantile(c, levels)`` of each sorted row ``c`` of ``cols``,
        bitwise: NumPy's ``linear`` rule reads virtual index ``(m - 1) q``
        between its neighbouring order statistics (the last one from index
        m - 1 on) and interpolates as NumPy's ``_lerp`` does."""
        m = cols.shape[1]
        pos = (m - 1) * levels
        above = pos >= m - 1
        lo = np.where(above, -1.0, np.floor(pos))
        gamma = pos - lo
        lo = lo.astype(np.intp)
        a, b = cols[:, lo], cols[:, np.where(above, -1, lo + 1)]
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
        return out

    def fit(self, X, labels, w):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        labels = np.asarray(labels)
        w = np.asarray(w, dtype=float)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(w))):
            raise ValueError("histogram fit needs finite covariates and weights")
        n, d = X.shape
        k, n_bins = self.n_classes, self.n_thresholds + 1
        levels = np.linspace(0, 1, self.n_thresholds + 2)[1:-1]
        # Cell index offset of (feature j, bin b): (j * n_bins + b) * k.
        offsets = np.arange(d * n_bins) * k
        Xt = np.ascontiguousarray(X.T)
        cell_of = np.empty((d, n), dtype=np.intp)  # each row's offset, per feature
        is_left = np.empty(n, dtype=bool)
        self.tree_ = {}
        # (node, its rows in row order, its rows sorted by each feature or
        # None at the depth cap, depth)
        stack = [(self.tree_, np.arange(n), np.argsort(Xt, axis=1), 0)]
        while stack:
            node, rows, order, depth = stack.pop()
            lab, wt = labels.take(rows), w.take(rows)
            node.update(self._leaf(lab, wt))
            m = len(rows)
            if depth >= self.max_depth or m < 2 * self.min_cell or d == 0:
                continue
            col = np.empty((d, m))
            for j in range(d):
                Xt[j].take(order[j], out=col[j])
            thr = self._quantiles(col, levels)
            thr.sort(axis=1)
            # bounds[j, i + 1] rows have feature j <= thr[j, i]; the rows
            # with feature j in (thr[j, i - 1], thr[j, i]] fall in bin i.
            bounds = np.empty((d, n_bins + 1), dtype=np.intp)
            bounds[:, 0], bounds[:, -1] = 0, m
            for j in range(d):
                bounds[j, 1:-1] = col[j].searchsorted(thr[j], side="right")
            edges = bounds[:, 1:-1]
            sorted_cells = offsets.repeat((bounds[:, 1:] - bounds[:, :-1]).ravel())
            for j in range(d):
                cell_of[j, order[j]] = sorted_cells[j * m:(j + 1) * m]
            cell = cell_of.take(rows, axis=1)
            cell += lab
            counts = np.bincount(cell.ravel(), weights=wt[None].repeat(d, axis=0).ravel(),
                                 minlength=d * n_bins * k).reshape(d, n_bins, k)
            # Counts left of each threshold, and right of each in reverse.
            sides = np.empty((2, d, n_bins - 1, k))
            np.cumsum(counts[:, :-1], axis=1, out=sides[0])
            np.cumsum(counts[:, :0:-1], axis=1, out=sides[1])
            left, right = self._loglik(sides)
            base = self._loglik(np.bincount(lab, weights=wt, minlength=k))
            gain = left + right[:, ::-1] - base
            gain[(edges < self.min_cell) | (m - edges < self.min_cell)] = -np.inf
            best = gain.argmax(axis=1)
            j = int(np.argmax(gain[np.arange(d), best]))
            i = best[j]
            if not gain[j, i] > 1e-12:
                continue
            node.update(feature=j, threshold=thr[j, i], left={}, right={})
            is_left[order[j, :edges[j, i]]] = True
            is_left[order[j, edges[j, i]:]] = False
            go = is_left.take(rows)
            left_rows, right_rows = np.compress(go, rows), np.compress(~go, rows)
            if depth + 1 < self.max_depth:
                go = is_left.take(order).ravel()
                left_order = np.compress(go, order).reshape(d, -1)
                right_order = np.compress(~go, order).reshape(d, -1)
            else:  # children at the depth cap are leaves and need no orders
                left_order = right_order = None
            stack.append((node["right"], right_rows, right_order, depth + 1))
            stack.append((node["left"], left_rows, left_order, depth + 1))
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
    """k-nearest-neighbour smoothed class frequencies.

    A row's class frequencies are the weighted label counts of its k nearest
    training rows (all of them when there are fewer than k), plus the
    Laplace ``alpha``.  After ``keep_neighbours``, ``predict_proba`` keeps
    the neighbour indices of the rows it last answered (n * k * 8 bytes).
    ``relabel`` refits the same training rows and weights with new labels
    and hands those indices on, so the copy answers the same rows by
    recounting labels, with no search; other rows are searched afresh.
    """

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
        self.keep_ = False
        self.last_query_ = (None, None)  # (rows, neighbour indices), set together
        return self

    def keep_neighbours(self):
        """From now on keep the neighbour indices of the rows last answered,
        here and in the copies ``relabel`` makes."""
        self.keep_ = True
        return self

    def relabel(self, X, labels, w):
        """A copy fitted with ``labels`` on the training rows and weights of
        this fit, which ``X`` and ``w`` must equal."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        labels = np.asarray(labels)
        if not (labels.shape == self.labels_.shape and np.array_equal(X, self.tree_.data)
                and np.array_equal(np.asarray(w, dtype=float), self.w_)):
            raise ValueError("relabel needs the rows and weights of the fit")
        model = copy.copy(self)
        model.labels_ = labels
        return model

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        query, nbr = self.last_query_
        if query is None or not np.array_equal(X, query):
            _, nbr = self.tree_.query(X, k=self.k_)
            nbr = nbr.reshape(X.shape[0], self.k_)  # k_ = 1 gives a flat result
            if self.keep_:
                self.last_query_ = (X.copy(), nbr)
        counts = np.zeros((X.shape[0], self.n_classes))
        lab = self.labels_[nbr]
        wgt = self.w_[nbr]
        for c in range(self.n_classes):
            counts[:, c] = np.sum(wgt * (lab == c), axis=1)
        counts += self.alpha
        return counts / counts.sum(axis=1, keepdims=True)


class SoftmaxRegression:
    """Multinomial logistic regression by Newton's method.

    Maximizes the weighted log-likelihood (weights rescaled to mean 1) minus
    ``ridge / 2`` times the squared norm of the coefficients.  The ridge
    term keeps the problem strictly concave under separation and when a
    class is absent.  Each iteration takes the Newton step of this concave
    objective and halves it until the objective does not decrease, so
    ``history_`` never decreases (asserted).  Iteration stops after
    ``max_iter`` steps, when no halving below 1e-12 of the step improves,
    or when a step gains less than ``tol * (1 + |objective|)``.
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

    def _newton_step(self, phi, onehot, w, beta):
        """Newton direction s at beta: the solution of -H s = g for the
        objective's gradient g and Hessian H there."""
        n, d = phi.shape
        k = self.n_classes
        p = self._proba(phi, beta)
        grad = phi.T @ (w[:, None] * (onehot - p)) - self.ridge * beta
        # -H[(a, c), (b, e)] = sum_i w_i phi_ia phi_ib (p_ic [c = e] - p_ic p_ie)
        #                      + ridge [(a, c) = (b, e)]
        q = (phi[:, :, None] * p[:, None, :]).reshape(n, d * k)
        hess = -(q.T @ (w[:, None] * q)).reshape(d, k, d, k)
        for c in range(k):
            hess[:, c, :, c] += (phi * (w * p[:, c])[:, None]).T @ phi
        hess = hess.reshape(d * k, d * k)
        hess[np.diag_indices(d * k)] += self.ridge
        return np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(d, k)

    def fit(self, X, labels, w):
        phi = self._design(X)
        labels = np.asarray(labels)
        w = np.asarray(w, dtype=float)
        w = w / w.mean()
        onehot = np.eye(self.n_classes)[labels]
        beta = np.zeros((phi.shape[1], self.n_classes))
        obj = self._objective(phi, onehot, w, beta)
        self.history_ = [obj]
        for _ in range(self.max_iter):
            direction = self._newton_step(phi, onehot, w, beta)
            step = 1.0
            while True:
                cand = beta + step * direction
                new_obj = self._objective(phi, onehot, w, cand)
                if new_obj >= obj or step < 1e-12:
                    break
                step *= 0.5
            if new_obj < obj:
                break
            assert new_obj >= self.history_[-1]
            beta, gain, obj = cand, new_obj - obj, new_obj
            self.history_.append(obj)
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
