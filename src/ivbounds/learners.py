"""Built-in nuisance learners.

All classifiers share the interface ``fit(X, labels, w, rows=None)`` /
``predict_proba(X) -> (n, k)`` with rows on the k-simplex.  ``fit`` takes
the full arrays and trains on their ``rows`` (an index; every row by
default), with the bits a fit on ``X[rows], labels[rows], w[rows]`` gives;
it rejects a training label outside {0, ..., k - 1} with ``ValueError``.
Frequency-based learners apply Laplace smoothing so no predicted cell is
exactly 0 or 1.  The ``constant`` learner is a ``HistogramPartition`` of
depth 0.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FitError",
    "LearnerSpec",
    "parse_learner_spec",
    "HistogramPartition",
    "KnnFrequency",
    "SoftmaxRegression",
    "make_classifier",
]

LAPLACE_ALPHA = 1.0


class FitError(RuntimeError):
    pass


def _training(rows, *arrays) -> list:
    """Each array's training ``rows`` (taken along the first axis), or the
    array itself when ``rows`` is None."""
    return [np.asarray(a) if rows is None else np.asarray(a).take(rows, axis=0) for a in arrays]


def _labels(labels, n_classes: int) -> np.ndarray:
    """``labels`` as an array; ``ValueError`` unless each lies in {0, ..., n_classes - 1}."""
    labels = np.asarray(labels)
    if not np.all((labels >= 0) & (labels < n_classes)):
        raise ValueError(f"labels must lie in {{0, ..., {n_classes - 1}}}")
    return labels


@dataclass(frozen=True)
class LearnerSpec:
    """Named learner with keyword parameters, e.g. ``histogram(max_depth=3)``."""

    name: str
    params: dict = field(default_factory=dict)


class HistogramPartition:
    """Axis-aligned recursive partition with per-cell smoothed frequencies.

    Splits greedily maximize the weighted multinomial log-likelihood over a
    quantile grid of candidate thresholds, subject to a depth cap and a
    minimum cell count.  Within a feature the first threshold of maximal
    gain wins; a later feature wins only with a strictly greater gain, and
    no split is made unless the gain exceeds 1e-12.

    ``fit`` takes one training column at a time (``X[:, j].take(rows)``),
    argsorts it once and gathers its values and labels by the intp result; the
    sorted positions are stored as int32.  A node carries, per feature, three
    1-D arrays: its rows sorted by that feature, their values and, with unit
    weights, their labels.  The children take their parts one feature at a
    time, so each stays sorted (presorted CART: Breiman et al. 1984; SLIQ,
    Mehta et al. 1996): the split feature's arrays are cut at the split, each
    other one's are taken at the positions ``np.flatnonzero`` finds on each
    side, and a feature's arrays are freed once both children hold their
    parts.  Children at the depth cap carry only their labels (and, with other
    weights, rows).  A node's thresholds are read from its sorted columns by
    NumPy's ``linear`` quantile rule (virtual index ``(m - 1) q``, then
    NumPy's ``_lerp``), so they equal ``np.quantile`` bitwise; -0.0 is stored
    as 0.0.  A binary
    search of each sorted column gives the rows left of every threshold.
    With unit weights one ``np.bincount`` per feature of the sorted labels
    counts its (bin, class) cells: integer counts are exact in any order, so
    a child takes its class counts from the sums of its side of the split.
    Other weights are summed in row order, as a fit on the unsorted rows sums
    them, once per node, from each row's int32 cell code.  So the order
    ``np.argsort`` leaves ties in (-0.0 and 0.0 among them) does not change
    a bit of the tree.  Repeated thresholds are kept: they only add empty
    bins, which change no count, and the first of equal gains wins.  ``fit``
    rejects non-finite training covariates or weights with ``ValueError``,
    and sorts nothing at depth 0 (the ``constant`` learner).  Rows are int32
    positions below 2**31 and labels uint8; a node frees its cells once
    counted, so a fit never holds a node's arrays, a child's and an index
    over the whole node at once: about 60 traced bytes per training row with
    three features and unit weights (78 with other weights), and no copy of
    the full arrays.
    """

    def __init__(self, n_classes: int, max_depth: int = 4, min_cell: int = 25,
                 n_thresholds: int = 16, alpha: float = LAPLACE_ALPHA):
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_cell = min_cell
        self.n_thresholds = n_thresholds
        self.alpha = alpha

    def _leaf(self, labels, w, counts=None):
        """The smoothed frequencies of the class ``counts``, by default those of ``labels``."""
        if counts is None:
            counts = np.bincount(labels, weights=w, minlength=self.n_classes)
        smoothed = counts + self.alpha
        return {"proba": smoothed / smoothed.sum()}

    @staticmethod
    def _loglik(counts):
        """Multinomial log-likelihood of the class counts on the last axis."""
        total = counts.sum(axis=-1, keepdims=True)
        ratio = np.divide(counts, total, out=np.ones(counts.shape), where=counts > 0)
        return (counts * np.log(ratio)).sum(axis=-1)

    @staticmethod
    def _quantiles(cols, levels):
        """``np.quantile(c, levels)`` of each sorted column ``c`` of ``cols`` (1-D
        arrays of one length m), bitwise: NumPy's ``linear`` rule reads virtual
        index ``(m - 1) q`` between its neighbouring order statistics (the last
        one from index m - 1 on) and interpolates as NumPy's ``_lerp`` does."""
        m = len(cols[0])
        pos = (m - 1) * levels
        above = pos >= m - 1
        lo = np.where(above, -1.0, np.floor(pos))
        gamma = pos - lo
        lo = lo.astype(np.intp)
        at = np.concatenate([lo, np.where(above, -1, lo + 1)])  # one take per column
        ab = np.array([c.take(at) for c in cols]).reshape(len(cols), 2, -1)
        a, b = ab[:, 0], ab[:, 1]
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
        return out

    def _presort(self, X, rows, labels, pos):
        """Check each training column finite; unless at depth 0, return per feature its
        rows in sorted order (dtype ``pos``), their values and their ``labels`` or None."""
        sort = []
        for j in range(X.shape[1]):  # one training column at a time
            col = X[:, j] if rows is None else X[:, j].take(rows)
            if not np.all(np.isfinite(col)):
                raise ValueError("histogram fit needs finite covariates and weights")
            if self.max_depth:
                order = np.argsort(col)  # intp: it gathers faster than int32
                sort.append([order.astype(pos), col.take(order),
                             None if labels is None else labels.take(order)])
        return sort

    @staticmethod
    def _part(sort, j, e, is_left):
        """Each child's per-feature ``[rows, values, labels]``, one feature at a time:
        the split feature ``j`` cut at ``e``, the others where ``is_left`` says.  Each
        feature leaves ``sort`` as it is read, freed once both children hold their parts."""
        parts = ([], [])
        for f in range(len(sort)):
            arrays, sort[f] = sort[f], None
            if f == j:
                for part, cut in zip(parts, (slice(None, e), slice(e, None))):
                    part.append([a if a is None else a[cut].copy() for a in arrays])
            else:
                go = is_left.take(arrays[0])
                for part, g in zip(parts, (go, ~go)):
                    g = np.flatnonzero(g)
                    part.append([a if a is None else a.take(g) for a in arrays])
        return parts

    def fit(self, X, labels, w, rows=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        labels, w = _training(rows, labels, w)
        labels = _labels(labels, self.n_classes)
        w = np.asarray(w, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("histogram fit needs finite covariates and weights")
        n, d = len(labels), X.shape[1]
        k, n_bins = self.n_classes, self.n_thresholds + 1
        levels = np.linspace(0, 1, self.n_thresholds + 2)[1:-1]
        labels = labels.astype(np.min_scalar_type(k - 1))  # uint8 below 256 classes
        pos = np.int32 if n < 2 ** 31 else np.intp  # row positions
        unit = bool(np.all(w == 1))
        w = None if unit else w  # unit weights are counted, never read
        offsets = np.arange(n_bins) * k  # cell index offset of bin b: b * k
        sort = self._presort(X, rows, labels if unit else None, pos)
        # Weights other than 1 are summed in row order, over a node's rows.
        rows = None if unit else np.arange(n, dtype=pos)
        cell_of = None if unit else np.empty(n, dtype=np.int32)  # one feature's cell per row
        is_left = np.empty(n, dtype=bool)
        self.tree_ = {}
        # (node, depth, labels (in row order if weighted), rows in row order
        # or None, per feature [rows, values, labels] sorted by it, or None at
        # the cap, class counts or None)
        stack = [(self.tree_, 0, labels, rows, sort, None)]
        while stack:
            node, depth, lab, rows, sort, total = stack.pop()
            wt = None if rows is None else w.take(rows)
            if total is None:
                total = np.bincount(lab, weights=wt, minlength=k)
            node.update(self._leaf(lab, wt, total))
            m = len(lab)
            if depth >= self.max_depth or m < 2 * self.min_cell or d == 0:
                continue
            thr = self._quantiles([col for _, col, _ in sort], levels)
            thr.sort(axis=1)
            # bounds[j, i + 1] rows have feature j <= thr[j, i]; the rows
            # with feature j in (thr[j, i - 1], thr[j, i]] fall in bin i.
            bounds = np.empty((d, n_bins + 1), dtype=np.intp)
            bounds[:, 0], bounds[:, -1] = 0, m
            for j, (_, col, _) in enumerate(sort):
                bounds[j, 1:-1] = col.searchsorted(thr[j], side="right")
            sizes = bounds[:, 1:] - bounds[:, :-1]
            counts = np.empty((d, n_bins, k), dtype=np.intp if rows is None else float)
            for j, (order, _, slab) in enumerate(sort):  # one feature's (bin, class) cells
                cell = offsets.repeat(sizes[j])
                if rows is None:  # unit weights: integer counts, exact in any order
                    cell += slab
                else:  # each row's cell back in row order, to sum weights in it
                    cell_of[order] = cell
                    cell = cell_of.take(rows)
                    cell += lab
                counts[j] = np.bincount(cell, wt, n_bins * k).reshape(n_bins, k)
            del order, col, slab, cell  # sort alone holds the sorted arrays
            edges = bounds[:, 1:-1]
            # Counts left of each threshold, and right of each in reverse, then
            # the node's: one log-likelihood for all.
            sides = np.empty((2 * d * (n_bins - 1) + 1, k))
            left, right = sides[:-1].reshape(2, d, n_bins - 1, k)
            counts[:, :-1].cumsum(axis=1, out=left)
            counts[:, :0:-1].cumsum(axis=1, out=right)
            sides[-1] = total
            loglik = self._loglik(sides)
            gain = loglik[:-1].reshape(2, d, n_bins - 1)
            gain = gain[0] + gain[1, :, ::-1] - loglik[-1]
            gain[(edges < self.min_cell) | (m - edges < self.min_cell)] = -np.inf
            best = gain.argmax(axis=1)
            j = int(gain.max(axis=1).argmax())
            i = best[j]
            if not gain[j, i] > 1e-12:
                continue
            node.update(feature=j, threshold=thr[j, i] + 0.0, left={}, right={})  # no -0.0
            e = edges[j, i]
            order, _, slab = sort[j]
            is_left[order[:e]] = True
            is_left[order[e:]] = False
            if rows is None:  # the split feature's sorted labels, cut at e, and their counts
                kids = [[slab[:e], None, None, left[j, i]],
                        [slab[e:], None, None, right[j, n_bins - 2 - i]]]
            else:
                go = is_left.take(rows)
                kids = [[np.compress(g, lab), np.compress(g, rows), None, None]
                        for g in (go, ~go)]
            del order, slab
            if depth + 1 < self.max_depth:  # children at the cap carry no sorts
                for kid, part in zip(kids, self._part(sort, j, e, is_left)):
                    kid[2] = part
                    if rows is None:  # its own copy of the split feature's labels
                        kid[0] = part[j][2]
            stack.append((node["right"], depth + 1, *kids[1]))
            stack.append((node["left"], depth + 1, *kids[0]))
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
            stack.append((node["left"], rows.take(np.flatnonzero(left))))
            stack.append((node["right"], rows.take(np.flatnonzero(~left))))
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

    def fit(self, X, labels, w, rows=None):
        from scipy.spatial import cKDTree  # scipy takes ~0.45 s to import; only knn uses it
        X, labels, w = _training(rows, np.atleast_2d(np.asarray(X, dtype=float)), labels, w)
        if not X.shape[1]:  # cKDTree accepts no columns, then its queries fail
            raise ValueError("knn needs at least one covariate column")
        self.labels_ = _labels(labels, self.n_classes)
        self.tree_ = cKDTree(X)
        self.w_ = np.asarray(w, dtype=float)
        self.unit_ = bool(np.all(self.w_ == 1))
        self.k_ = min(self.k, X.shape[0])
        self.keep_ = False
        self.last_query_ = (None, None)  # (rows, neighbour indices), set together
        return self

    def keep_neighbours(self):
        """From now on keep the neighbour indices of the rows last answered,
        here and in the copies ``relabel`` makes."""
        self.keep_ = True
        return self

    def relabel(self, X, labels, w, rows=None):
        """A copy fitted with ``labels`` on the training rows and weights of
        this fit, which the ``rows`` of ``X`` and ``w`` must equal."""
        X, labels, w = _training(rows, np.atleast_2d(np.asarray(X, dtype=float)), labels, w)
        labels = _labels(labels, self.n_classes)
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
            _, nbr = self.tree_.query(X, k=self.k_, workers=-1)
            nbr = nbr.reshape(X.shape[0], self.k_)  # k_ = 1 gives a flat result
            if self.keep_:
                self.last_query_ = (X.copy(), nbr)
        # One bincount of (row, class) cells sums each row's weights in neighbour order;
        # unit weights are counted, which gives the same sums of ones exactly.
        cell = self.labels_.take(nbr).astype(np.intp, copy=False)
        cell += np.arange(0, len(nbr) * self.n_classes, self.n_classes)[:, None]
        weights = None if self.unit_ else self.w_.take(nbr).ravel()
        counts = np.bincount(cell.ravel(), weights=weights, minlength=len(nbr) * self.n_classes)
        counts = counts.reshape(-1, self.n_classes) + self.alpha
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

    # Row maxima and sums are column chains in the order NumPy reduces a short last axis
    # (a sum from +0.0): for 2 and 4 classes, the bits of ``.max``/``.sum(axis=1)``.

    @staticmethod
    def _proba(phi, beta):
        logits = phi @ beta
        logits -= functools.reduce(np.maximum, logits.T)[:, None]
        expl = np.exp(logits)
        return expl / functools.reduce(np.add, expl.T)[:, None]

    def _objective(self, phi, onehot, w, beta):
        logits = phi @ beta
        shift = functools.reduce(np.maximum, logits.T)
        logz = shift + np.log(functools.reduce(np.add, np.exp(logits - shift[:, None]).T))
        picked = functools.reduce(np.add, (onehot * logits).T, 0.0)
        ll = float(np.sum(w * (picked - logz)))
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

    def fit(self, X, labels, w, rows=None):
        X, labels, w = _training(rows, np.atleast_2d(np.asarray(X, dtype=float)), labels, w)
        phi = self._design(X)
        labels = _labels(labels, self.n_classes)
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


# name -> (classifier factory ``(n_classes, **params)``, None for ``known``;
# the argument after ``name:`` as (keyword, type, least value), or None).
_LEARNERS = {"known": (None, ("value", float, None)),
             "constant": (functools.partial(HistogramPartition, max_depth=0), None),
             "histogram": (HistogramPartition, ("max_depth", int, 0)),
             "knn": (KnnFrequency, ("k", int, 1)),
             "softmax": (SoftmaxRegression, None), "logistic": (SoftmaxRegression, None)}


def parse_learner_spec(text: str) -> LearnerSpec:
    """Parse CLI-style specs such as ``known:0.5``, ``knn:50``, ``histogram``.

    ``known:c`` needs a number, ``knn:k`` takes an integer k >= 1 and
    ``histogram:d`` an integer depth d >= 0; the other learners take no
    argument.  Any other spec raises ``ValueError``.
    """
    name, sep, arg = text.partition(":")
    name = name.strip()
    if name not in _LEARNERS:
        raise ValueError(f"unknown learner spec: {text!r}")
    if not sep and name != "known":
        return LearnerSpec(name)
    argument = _LEARNERS[name][1]
    if argument is None:
        raise ValueError(f"learner {name!r} takes no argument: {text!r}")
    key, kind, least = argument
    try:
        value = kind(arg)
    except ValueError:
        kind_name = "a number" if kind is float else "an integer"
        raise ValueError(f"{key} of learner {name!r} must be {kind_name}: {text!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{key} of learner {name!r} must be >= {least}: {text!r}")
    return LearnerSpec(name, {key: value})


def make_classifier(spec: LearnerSpec, n_classes: int):
    factory, _ = _LEARNERS.get(spec.name, (None, None))
    if factory is None:
        raise ValueError(f"no classifier for learner {spec.name!r}")
    return factory(n_classes, **spec.params)
