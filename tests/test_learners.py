import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds.learners import (
    ConstantFrequency,
    FitError,
    HistogramPartition,
    KnnFrequency,
    LearnerSpec,
    SoftmaxRegression,
    make_classifier,
    parse_learner_spec,
)


def simplex_rows(p):
    assert np.all(p >= 0) and np.all(p <= 1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestSpecParsing:
    def test_bare_names(self):
        assert parse_learner_spec("constant").name == "constant"
        assert parse_learner_spec("histogram").name == "histogram"

    def test_parameterized(self):
        assert parse_learner_spec("knn:50") == LearnerSpec("knn", {"k": 50})
        assert parse_learner_spec("known:0.5").params["value"] == 0.5
        assert parse_learner_spec("histogram:3").params["max_depth"] == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_learner_spec("forest")

    def test_known_requires_classifierless_use(self):
        with pytest.raises(ValueError):
            make_classifier(parse_learner_spec("known:0.5"), 2)


class TestConstantFrequency:
    def test_balanced_counts(self):
        x = np.zeros((40, 1))
        labels = np.repeat([0, 1, 2, 3], 10)
        p = ConstantFrequency(4).fit(x, labels, np.ones(40)).predict_proba(x[:3])
        np.testing.assert_allclose(p, 0.25)

    def test_laplace_smoothing_on_empty_class(self):
        x = np.zeros((8, 1))
        labels = np.full(8, 3)
        p = ConstantFrequency(4).fit(x, labels, np.ones(8)).predict_proba(x[:1])
        np.testing.assert_allclose(p[0], [1 / 12, 1 / 12, 1 / 12, 9 / 12])

    def test_weights_respected(self):
        x = np.zeros((2, 1))
        p = (ConstantFrequency(2, alpha=0.0)
             .fit(x, np.array([0, 1]), np.array([3.0, 1.0])).predict_proba(x[:1]))
        np.testing.assert_allclose(p[0], [0.75, 0.25])


class TestHistogramPartition:
    def test_recovers_step_function(self):
        rng = np.random.default_rng(0)
        x = rng.random((4000, 1))
        p_true = np.where(x[:, 0] < 0.5, 0.2, 0.8)
        labels = (rng.random(4000) < p_true).astype(int)
        model = HistogramPartition(2).fit(x, labels, np.ones(4000))
        left = model.predict_proba(np.array([[0.25]]))[0, 1]
        right = model.predict_proba(np.array([[0.75]]))[0, 1]
        assert left == pytest.approx(0.2, abs=0.05)
        assert right == pytest.approx(0.8, abs=0.05)

    def test_small_sample_stays_pooled(self):
        x = np.linspace(0, 1, 8)[:, None]
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        model = HistogramPartition(2, min_cell=25).fit(x, labels, np.ones(8))
        p = model.predict_proba(x)
        simplex_rows(p)
        assert np.ptp(p[:, 1]) == 0.0  # no split possible below min_cell

    def test_multiclass_rows_are_simplex(self):
        rng = np.random.default_rng(1)
        x = rng.random((500, 2))
        labels = rng.integers(0, 4, 500)
        p = HistogramPartition(4).fit(x, labels, np.ones(500)).predict_proba(x)
        simplex_rows(p)


def reference_loglik(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    pos = counts[counts > 0]
    return float(np.sum(pos * np.log(pos / total)))


def reference_build(model, X, labels, w, depth=0):
    """Brute-force split search: every threshold re-masks all rows."""
    node = model._leaf(labels, w)
    if depth >= model.max_depth or len(labels) < 2 * model.min_cell:
        return node
    k = model.n_classes
    base = reference_loglik(np.bincount(labels, weights=w, minlength=k))
    best = None
    for j in range(X.shape[1]):
        col = X[:, j]
        qs = np.quantile(col, np.linspace(0, 1, model.n_thresholds + 2)[1:-1])
        for thr in np.unique(qs):
            left = col <= thr
            n_left = int(left.sum())
            if n_left < model.min_cell or len(labels) - n_left < model.min_cell:
                continue
            gain = (reference_loglik(np.bincount(labels[left], weights=w[left],
                                                 minlength=k))
                    + reference_loglik(np.bincount(labels[~left], weights=w[~left],
                                                   minlength=k))
                    - base)
            if gain > 1e-12 and (best is None or gain > best[0]):
                best = (gain, j, thr, left)
    if best is None:
        return node
    _, j, thr, left = best
    node.update(feature=j, threshold=thr,
                left=reference_build(model, X[left], labels[left], w[left], depth + 1),
                right=reference_build(model, X[~left], labels[~left], w[~left],
                                      depth + 1))
    return node


def assert_same_tree(got, want):
    assert set(got) == set(want)
    np.testing.assert_array_equal(got["proba"], want["proba"])
    if "feature" in want:
        assert (got["feature"], got["threshold"]) == (want["feature"], want["threshold"])
        assert_same_tree(got["left"], want["left"])
        assert_same_tree(got["right"], want["right"])


def check_split_search(X, labels, w, n_classes, min_cell=25):
    model = HistogramPartition(n_classes, min_cell=min_cell)
    want = reference_build(model, X, labels, w)
    assert_same_tree(model.fit(X, labels, w).tree_, want)
    return want


def make_weights(rng, kind, n):
    return {"unit": np.ones(n),
            "integer": rng.integers(1, 6, n).astype(float),
            "real": rng.exponential(size=n)}[kind]


class TestSplitSearchMatchesBruteForce:
    @pytest.mark.parametrize("weights", ["unit", "integer", "real"])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mixed_columns(self, seed, k, weights):
        rng = np.random.default_rng(seed)
        n = 3000
        X = np.column_stack([
            rng.random(n),                          # continuous
            rng.integers(0, 3, n),                  # discrete: quantiles repeat
            np.round(rng.standard_normal(n), 1),    # rounded: many ties
        ])
        logits = np.column_stack([np.zeros(n), X[:, 0] * 2 - X[:, 1],
                                  X[:, 2], X[:, 1] - 1])[:, :k]
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        tree = check_split_search(X, labels, make_weights(rng, weights, n), k)
        assert "feature" in tree

    @pytest.mark.parametrize("k", [2, 4])
    def test_constant_column_and_one_class(self, k):
        rng = np.random.default_rng(7)
        n = 500
        X = np.column_stack([np.ones(n), rng.random(n)])
        check_split_search(X, np.zeros(n, int), np.ones(n), k)
        check_split_search(X, np.full(n, k - 1), rng.integers(1, 4, n).astype(float), k)
        tree = check_split_search(X, (X[:, 1] > 0.5).astype(int), np.ones(n), k)
        assert tree["feature"] == 1  # the constant column never splits

    @pytest.mark.parametrize("min_cell", [2, 5, 25])
    def test_n_left_at_min_cell_boundary(self, min_cell):
        # The pure split sits exactly min_cell rows in from the left end; the
        # quantile grid of 0..n-1 holds the thresholds 1..n-2.
        n = 20 * min_cell + 20
        X = np.arange(n, dtype=float)[:, None]
        labels = (X[:, 0] >= min_cell).astype(int)
        model = HistogramPartition(2, max_depth=1, min_cell=min_cell,
                                   n_thresholds=n - 2)
        want = reference_build(model, X, labels, np.ones(n))
        assert want["threshold"] == min_cell - 1
        assert_same_tree(model.fit(X, labels, np.ones(n)).tree_, want)
        # One row fewer on the left and the split is no longer allowed there.
        model = HistogramPartition(2, max_depth=1, min_cell=min_cell + 1,
                                   n_thresholds=n - 2)
        want = reference_build(model, X, labels, np.ones(n))
        assert want.get("threshold") != min_cell - 1
        assert_same_tree(model.fit(X, labels, np.ones(n)).tree_, want)

    @pytest.mark.parametrize("shift,splits", [(1e-5, False), (1e-2, True)])
    def test_gain_cutoff(self, shift, splits):
        # Balanced labels on both sides; one perturbed weight gives the split
        # a gain of about 5e-13 (below the 1e-12 cut-off) or well above it.
        X = np.repeat([0.0, 1.0], 50)[:, None]
        labels = np.tile([0, 1], 50)
        w = np.ones(100)
        w[51] += shift
        tree = check_split_search(X, labels, w, 2, min_cell=5)
        assert ("feature" in tree) == splits

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           d=st.integers(1, 3), k=st.sampled_from([2, 4]),
           levels=st.sampled_from([0, 2, 5]),
           min_cell=st.sampled_from([1, 5, 25]),
           weights=st.sampled_from(["unit", "integer", "real"]))
    def test_property(self, seed, n, d, k, levels, min_cell, weights):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        if levels:
            X = np.round(X * levels)  # repeated quantiles
        labels = rng.integers(0, rng.integers(1, k + 1), n)
        check_split_search(X, labels, make_weights(rng, weights, n), k, min_cell)


class TestKnnFrequency:
    def test_local_frequencies(self):
        x = np.concatenate([np.zeros(50), np.ones(50)])[:, None]
        labels = np.concatenate([np.zeros(50, int), np.ones(50, int)])
        model = KnnFrequency(2, k=10).fit(x, labels, np.ones(100))
        p = model.predict_proba(np.array([[0.0], [1.0]]))
        assert p[0, 0] > 0.9
        assert p[1, 1] > 0.9

    def test_k_capped_at_sample_size(self):
        x = np.zeros((5, 1))
        labels = np.array([0, 1, 0, 1, 0])
        p = KnnFrequency(2, k=50).fit(x, labels, np.ones(5)).predict_proba(x[:1])
        simplex_rows(p)


class TestSoftmaxRegression:
    def test_monotone_objective(self):
        rng = np.random.default_rng(2)
        x = rng.random((300, 2))
        labels = rng.integers(0, 3, 300)
        model = SoftmaxRegression(3).fit(x, labels, np.ones(300))
        hist = np.array(model.history_)
        assert np.all(np.diff(hist) >= -1e-12)

    def test_recovers_logistic_law(self):
        rng = np.random.default_rng(3)
        x = rng.random((8000, 1))
        p = 1.0 / (1.0 + np.exp(-(2.0 * x[:, 0] - 1.0)))
        labels = (rng.random(8000) < p).astype(int)
        model = SoftmaxRegression(2).fit(x, labels, np.ones(8000))
        grid = np.array([[0.2], [0.5], [0.8]])
        truth = 1.0 / (1.0 + np.exp(-(2.0 * grid[:, 0] - 1.0)))
        np.testing.assert_allclose(model.predict_proba(grid)[:, 1], truth, atol=0.03)

    def test_single_class_input_degrades_gracefully(self):
        rng = np.random.default_rng(5)
        x = rng.random((200, 1))
        model = SoftmaxRegression(2).fit(x, np.zeros(200, int), np.ones(200))
        assert np.all(model.predict_proba(x)[:, 0] > 0.9)


class TestFactory:
    @pytest.mark.parametrize("name", ["constant", "histogram", "knn", "softmax"])
    def test_round_trip(self, name):
        rng = np.random.default_rng(4)
        x = rng.random((200, 2))
        labels = rng.integers(0, 2, 200)
        clf = make_classifier(parse_learner_spec(name), 2)
        p = clf.fit(x, labels, np.ones(200)).predict_proba(x)
        simplex_rows(p)


class TestDegenerateInputs:
    """Every learner returns rows on the simplex on degenerate training data."""

    SPECS = ["constant", "histogram", "histogram:2", "knn:5", "knn:500", "softmax"]

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 60), n_classes=st.sampled_from([2, 4]),
           one_class=st.booleans(), constant_x=st.booleans())
    def test_property_simplex_rows(self, spec, seed, n, n_classes, one_class,
                                   constant_x):
        rng = np.random.default_rng(seed)
        x = np.full((n, 2), 0.5) if constant_x else rng.random((n, 2))
        labels = (np.full(n, int(rng.integers(n_classes))) if one_class
                  else rng.integers(0, n_classes, n))
        clf = make_classifier(parse_learner_spec(spec), n_classes)
        p = clf.fit(x, labels, rng.uniform(0.5, 2.0, n)).predict_proba(
            np.vstack([x, rng.normal(0, 3, (5, 2))]))
        assert p.shape == (n + 5, n_classes)
        simplex_rows(p)
