import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds.learners import (
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

    @pytest.mark.parametrize("text", [
        "softmax:3", "constant:7", "logistic:x", "softmax:",
        "histogram:-1", "histogram:2.5", "histogram:x",
        "knn:0", "knn:-3", "knn:2.5", "knn:", "known", "known:half"])
    def test_malformed_arguments_rejected(self, text):
        with pytest.raises(ValueError, match=repr(text)):
            parse_learner_spec(text)

    def test_known_requires_classifierless_use(self):
        with pytest.raises(ValueError):
            make_classifier(parse_learner_spec("known:0.5"), 2)


def constant(n_classes):
    return make_classifier(parse_learner_spec("constant"), n_classes)


class TestConstantFrequency:
    def test_balanced_counts(self):
        x = np.zeros((40, 1))
        labels = np.repeat([0, 1, 2, 3], 10)
        p = constant(4).fit(x, labels, np.ones(40)).predict_proba(x[:3])
        np.testing.assert_allclose(p, 0.25)

    def test_laplace_smoothing_on_empty_class(self):
        x = np.zeros((8, 1))
        labels = np.full(8, 3)
        p = constant(4).fit(x, labels, np.ones(8)).predict_proba(x[:1])
        np.testing.assert_allclose(p[0], [1 / 12, 1 / 12, 1 / 12, 9 / 12])

    def test_weights_respected(self):
        x = np.zeros((2, 1))
        p = (HistogramPartition(2, max_depth=0, alpha=0.0)
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


def tree_bytes(node):
    """The tree's splits and leaf probabilities as bytes, depth first."""
    if "feature" not in node:
        return node["proba"].tobytes()
    return b"".join([b"threshold", np.array([node["feature"], node["threshold"]]).tobytes(),
                     tree_bytes(node["left"]), tree_bytes(node["right"])])


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


class TestPresortedSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([-3.5, -1.0, -1e-9, 0.0, 0.25, 2.0, 7e8]),
                           min_size=1, max_size=40)
           | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           levels=st.sampled_from([1, 2, 16, 40]) | st.lists(
               st.floats(0.0, 1.0), min_size=1, max_size=8).map(sorted))
    def test_property_sorted_quantiles_equal_numpy(self, values, levels):
        # Adding 0.0 turns -0.0 into 0.0: the two compare equal, so which of
        # them a sort or a partition puts first is arbitrary.
        col = np.array(values) + 0.0
        q = (np.linspace(0, 1, levels + 2)[1:-1] if isinstance(levels, int)
             else np.array(levels))
        got = HistogramPartition._quantiles(np.sort(col)[None], q)[0]
        assert got.tobytes() == np.quantile(col, q).tobytes()

    @pytest.mark.parametrize("value", [0.0, -2.5])
    def test_constant_and_tiny_columns(self, value):
        for n in (1, 2, 3, 50):
            col = np.full(n, value)
            q = np.linspace(0, 1, 18)[1:-1]
            got = HistogramPartition._quantiles(col[None], q)[0]
            assert got.tobytes() == np.quantile(col, q).tobytes()

    def test_large_weighted_case(self):
        rng = np.random.default_rng(20_000)
        n = 20_000
        X = np.column_stack([rng.integers(0, 2, n), rng.random(n),
                             np.round(rng.standard_normal(n), 2)])
        p1 = 1.0 / (1.0 + np.exp(-(X[:, 0] + 2.0 * X[:, 1] - X[:, 2] - 1.0)))
        labels = 2 * (rng.random(n) < p1) + rng.integers(0, 2, n)
        tree = check_split_search(X, labels, rng.exponential(size=n), 4)
        assert "feature" in tree["left"] and "feature" in tree["right"]

    def test_fitted_model_keeps_no_row_sized_array(self):
        rng = np.random.default_rng(8)
        n = 3000
        X = rng.random((n, 3))
        labels = (rng.random(n) < X[:, 0]).astype(int)
        model = HistogramPartition(2).fit(X, labels, np.ones(n))
        assert set(vars(model)) == {"n_classes", "max_depth", "min_cell",
                                    "n_thresholds", "alpha", "tree_"}
        stack = [model.tree_]
        while stack:
            node = stack.pop()
            assert node["proba"].shape == (2,)
            stack.extend(node[side] for side in ("left", "right") if side in node)

    @pytest.mark.parametrize("where", ["X", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, bad):
        rng = np.random.default_rng(9)
        X, w = rng.random((100, 2)), np.ones(100)
        if where == "X":
            X[7, 1] = bad
        else:
            w[7] = bad
        with pytest.raises(ValueError, match="finite"):
            HistogramPartition(2).fit(X, rng.integers(0, 2, 100), w)

    def test_no_covariates_is_one_leaf(self):
        model = HistogramPartition(2, min_cell=1).fit(
            np.zeros((60, 0)), np.arange(60) % 2, np.ones(60))
        assert set(model.tree_) == {"proba"}

    @pytest.mark.parametrize("weights", ["unit", "integer", "real"])
    @pytest.mark.parametrize("column", ["binary", "rounded"])
    def test_trees_do_not_depend_on_the_order_of_ties(self, monkeypatch, column, weights):
        # np.argsort leaves ties first in ascending, then in descending row
        # order.  Unit weights are counted as integers, exact in any order,
        # and other weights are summed in row order, so the bytes agree.
        # The second column is the first plus a jitter, and the binary
        # column has 8 * 200 + 1 zeros in 17 * 200 + 1 rows, so the
        # jittered copy's middle threshold cuts exactly where the binary
        # column does: the two gains are equal only if the rows' weights
        # are summed in the same order for both columns.
        real_argsort, calls = np.argsort, []

        def ties_ascending(a, axis=-1):
            calls.append(a.shape)
            return real_argsort(a, axis=axis, kind="stable")

        def ties_descending(a, axis=-1):
            calls.append(a.shape)
            a = np.asarray(a)
            return a.shape[axis] - 1 - real_argsort(np.flip(a, axis), axis=axis, kind="stable")

        n = 17 * 200 + 1
        for seed in range(8):
            rng = np.random.default_rng(seed)
            c = (rng.permutation(n) >= 8 * 200 + 1 if column == "binary"
                 else np.round(rng.standard_normal(n), 1))  # many ties, and -0.0
            X = np.column_stack([c, c + 1e-3 * rng.random(n)])
            labels = 2 * (rng.random(n) < 0.3 + 0.4 * np.clip(c, 0, 1)) + rng.integers(0, 2, n)
            w = make_weights(rng, weights, n)
            trees = []
            for fake in (ties_ascending, ties_descending, real_argsort):
                monkeypatch.setattr(np, "argsort", fake)
                model = HistogramPartition(4, min_cell=5).fit(X, labels, w)
                trees.append(tree_bytes(model.tree_))
            assert trees[0] == trees[1] == trees[2]
            assert trees[0].count(b"threshold") >= 7
        assert calls == [(n,)] * 32  # every sort went through the fakes: one per column and fit


class TestNodeCounts:
    """With unit weights a child takes its class counts from its side of the
    parent's split; weighted nodes count their rows once."""

    @pytest.mark.parametrize("weights", ["unit", "integer", "real"])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_node_equals_its_rows_recounted(self, seed, weights):
        rng = np.random.default_rng(seed)
        n = 4000
        X = np.column_stack([rng.random(n), np.round(rng.standard_normal(n), 1),
                             rng.integers(0, 3, n)])
        labels = 2 * (rng.random(n) < X[:, 0]) + (X[:, 1] > rng.standard_normal(n))
        w = make_weights(rng, weights, n)
        model = HistogramPartition(4, max_depth=5, min_cell=5).fit(X, labels, w)
        stack, depth = [(model.tree_, np.arange(n), 0)], 0
        while stack:
            node, rows, level = stack.pop()
            depth = max(depth, level)
            want = model._leaf(labels[rows], w[rows])["proba"]
            assert node["proba"].tobytes() == want.tobytes()
            if "feature" in node:
                left = X[rows, node["feature"]] <= node["threshold"]
                stack += [(node["left"], rows[left], level + 1),
                          (node["right"], rows[~left], level + 1)]
        assert depth >= 3


class TestFitWorkingSet:
    def test_traced_peak_per_training_row(self):
        # int32 row positions, uint8 labels, and a node's cell array and
        # sorted arrays freed once its children hold their parts.  With int64
        # positions and labels, all kept, the peak was 185 bytes per row.
        rng = np.random.default_rng(0)
        n = 80_000
        X = np.column_stack([rng.integers(0, 2, n), rng.random(n), rng.standard_normal(n)])
        labels = 2 * (rng.random(n) < X[:, 1]) + (X[:, 2] > rng.standard_normal(n))
        w = np.ones(n)
        tracemalloc.start()
        try:
            model = HistogramPartition(4).fit(X, labels, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "feature" in model.tree_["left"]["left"]  # a tree of full depth
        assert peak / n <= 128


class TestTrainingRows:
    """``fit(X, labels, w, rows=r)`` fits the rows ``r`` of the full arrays in
    place, and gives the bits ``fit(X[r], labels[r], w[r])`` gives."""

    @staticmethod
    def subset(rng, n):
        return rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)  # any order

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), d=st.integers(1, 3),
           k=st.sampled_from([2, 4]), depth=st.integers(0, 5),
           levels=st.sampled_from([0, 2, 5]), min_cell=st.sampled_from([1, 5, 25]),
           weights=st.sampled_from(["unit", "integer", "real"]))
    def test_property_histogram(self, seed, n, d, k, depth, levels, min_cell, weights):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        if levels:
            X = np.round(X * levels)  # repeated quantiles and ties
        labels, w, r = rng.integers(0, k, n), make_weights(rng, weights, n), self.subset(rng, n)
        model = HistogramPartition(k, max_depth=depth, min_cell=min_cell)
        in_place = tree_bytes(model.fit(X, labels, w, rows=r).tree_)
        assert in_place == tree_bytes(model.fit(X[r], labels[r], w[r]).tree_)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), k=st.integers(1, 60),
           n_classes=st.sampled_from([2, 4]), weights=st.sampled_from(["unit", "real"]))
    def test_property_knn_fit_and_relabel(self, seed, n, k, n_classes, weights):
        rng = np.random.default_rng(seed)
        x, query = np.round(rng.random((n, 2)) * 4), rng.random((9, 2)) * 4
        w = np.ones(n) if weights == "unit" else rng.exponential(size=n) + 0.05
        first, second = (rng.integers(0, n_classes, n) for _ in range(2))
        r = self.subset(rng, n)
        model = KnnFrequency(n_classes, k=k).fit(x, first, w, rows=r).keep_neighbours()
        got = model.predict_proba(query)
        want = KnnFrequency(n_classes, k=k).fit(x[r], first[r], w[r]).predict_proba(query)
        assert got.tobytes() == want.tobytes()
        relabelled = model.relabel(x, second, w, rows=r)
        want = KnnFrequency(n_classes, k=k).fit(x[r], second[r], w[r]).predict_proba(query)
        assert relabelled.predict_proba(query).tobytes() == want.tobytes()
        # Unit weights are counted; the weighted count of the same ones has the same bits.
        assert model.unit_ == (weights == "unit")
        summed = copy.copy(model)
        summed.unit_ = False
        assert summed.predict_proba(query).tobytes() == got.tobytes()

    @pytest.mark.parametrize("weights", ["unit", "real"])
    def test_softmax(self, weights):
        rng = np.random.default_rng(11)
        X, labels = rng.random((300, 2)), rng.integers(0, 3, 300)
        w, r = make_weights(rng, weights, 300), self.subset(rng, 300)
        got = SoftmaxRegression(3).fit(X, labels, w, rows=r).beta_
        assert got.tobytes() == SoftmaxRegression(3).fit(X[r], labels[r], w[r]).beta_.tobytes()

    def test_rows_outside_the_training_rows_are_not_read(self):
        rng = np.random.default_rng(12)
        X, labels, w = rng.random((200, 2)), rng.integers(0, 2, 200), np.ones(200)
        r = np.arange(0, 200, 2)
        X[1, 0], labels[3], w[5] = np.nan, 7, -np.inf  # outside r: no check sees them
        for clf in (HistogramPartition(2), KnnFrequency(2, k=5), SoftmaxRegression(2)):
            p = clf.fit(X, labels, w, rows=r).predict_proba(X[r])
            simplex_rows(p)


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

    def test_single_neighbour_counts_each_row_apart(self):
        x = np.array([[0.0], [1.0], [2.0]])
        for k, train in ((1, slice(None)), (5, slice(0, 1))):
            model = KnnFrequency(2, k=k, alpha=0.0).fit(
                x[train], np.array([0, 1, 1])[train], np.ones(3)[train])
            want = [[1, 0], [0, 1], [0, 1]] if k == 1 else [[1, 0]] * 3
            np.testing.assert_array_equal(model.predict_proba(x), want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           k=st.integers(1, 70), n_classes=st.sampled_from([2, 4]),
           grid=st.sampled_from([0, 2, 4]))
    def test_property_relabel_matches_fresh_fit(self, seed, n, k, n_classes, grid):
        # grid > 0 puts x on a coarse lattice: duplicate rows and distance
        # ties.  k ranges past n, where every training row is a neighbour.
        rng = np.random.default_rng(seed)
        x = rng.random((n, 2))
        query = np.vstack([x, rng.random((7, 2))])
        if grid:
            x, query = np.round(x * grid), np.round(query * grid)
        w = rng.uniform(0.5, 2.0, n)
        first, second = (rng.integers(0, n_classes, n) for _ in range(2))
        model = KnnFrequency(n_classes, k=k).fit(x, first, w).keep_neighbours()
        model.predict_proba(query)
        relabelled = model.relabel(x, second, w)
        got = relabelled.predict_proba(query)
        assert relabelled.last_query_ is model.last_query_  # no search
        fresh = KnnFrequency(n_classes, k=k).fit(x, second, w)
        assert got.tobytes() == fresh.predict_proba(query).tobytes()
        assert fresh.last_query_[0] is None  # kept only after keep_neighbours
        other = query[::-1] + 0.25
        assert (relabelled.predict_proba(other).tobytes()
                == fresh.predict_proba(other).tobytes())

    @staticmethod
    def sequential_proba(model, nbr):
        """The frequencies with each class's weights summed in neighbour order."""
        lab, w = model.labels_[nbr], model.w_[nbr]
        counts = np.stack([np.cumsum(w * (lab == c), axis=1)[:, -1]
                           for c in range(model.n_classes)], axis=1)
        counts += model.alpha
        return counts / counts.sum(axis=1, keepdims=True)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), k=st.integers(1, 60),
           n_classes=st.sampled_from([2, 3, 4]), weights=st.sampled_from(["unit", "real"]))
    def test_property_counts_sum_in_neighbour_order(self, seed, n, k, n_classes, weights):
        rng = np.random.default_rng(seed)
        x, query = rng.random((n, 2)), rng.random((11, 2))
        w = np.ones(n) if weights == "unit" else rng.exponential(size=n) + 0.05
        first, second = (rng.integers(0, n_classes, n) for _ in range(2))
        model = KnnFrequency(n_classes, k=k).fit(x, first, w).keep_neighbours()
        got = model.predict_proba(query)
        nbr = model.last_query_[1]
        assert got.tobytes() == self.sequential_proba(model, nbr).tobytes()
        relabelled = model.relabel(x, second, w)  # recounts the kept neighbours
        got = relabelled.predict_proba(query)
        assert got.tobytes() == self.sequential_proba(relabelled, nbr).tobytes()

    @pytest.mark.parametrize("grid", [2, 4, 16])
    def test_neighbours_do_not_depend_on_query_threads(self, grid):
        # A lattice gives duplicate rows and distance ties; each point's
        # neighbours are searched alone, so the thread count cannot move them.
        rng = np.random.default_rng(grid)
        x = np.round(rng.random((3000, 2)) * grid)
        query = np.round(rng.random((5000, 2)) * grid)
        model = KnnFrequency(4, k=50).fit(x, rng.integers(0, 4, 3000), np.ones(3000))
        model.keep_neighbours().predict_proba(query)
        _, want = model.tree_.query(query, k=50, workers=1)
        assert model.last_query_[1].tobytes() == want.tobytes()

    def test_rows_without_columns_rejected(self):
        # The tree was built, and its first query raised an IndexError.
        with pytest.raises(ValueError, match="at least one covariate column"):
            KnnFrequency(2, k=5).fit(np.zeros((10, 0)), np.zeros(10, int), np.ones(10))

    def test_relabel_rejects_other_rows(self):
        rng = np.random.default_rng(6)
        x, w = rng.random((30, 2)), np.ones(30)
        model = KnnFrequency(2, k=5).fit(x, np.zeros(30, int), w)
        for rows, labels, weights in ((x[::-1], np.ones(30, int), w),
                                      (x, np.ones(30, int), 2.0 * w),
                                      (x, np.ones(31, int), w)):
            with pytest.raises(ValueError, match="rows and weights"):
                model.relabel(rows, labels, weights)


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


def reference_softmax_fit(model, X, labels, w):
    """The former solver: backtracking gradient ascent on ``model``'s
    objective.  Returns (beta, history)."""
    phi = model._design(X)
    w = np.asarray(w, dtype=float)
    w = w / w.mean()
    onehot = np.eye(model.n_classes)[labels]
    beta = np.zeros((phi.shape[1], model.n_classes))
    obj = model._objective(phi, onehot, w, beta)
    step = 1.0 / max(1.0, float(np.mean(np.sum(phi**2, axis=1))))
    history = [obj]
    for _ in range(model.max_iter):
        grad = phi.T @ (w[:, None] * (onehot - model._proba(phi, beta))) / len(w)
        grad -= model.ridge * beta / len(w)
        while True:
            cand = beta + step * grad
            new_obj = model._objective(phi, onehot, w, cand)
            if new_obj >= obj or step < 1e-12:
                break
            step *= 0.5
        if new_obj < obj:
            break
        beta, gain, obj = cand, new_obj - obj, new_obj
        history.append(obj)
        step *= 1.2
        if gain < model.tol * (1.0 + abs(obj)):
            break
    return beta, history


def penalised_gradient(model, X, labels, w):
    """Gradient of the fitted objective at ``model.beta_``, per row."""
    phi = model._design(X)
    w = np.asarray(w, dtype=float)
    w = w / w.mean()
    resid = np.eye(model.n_classes)[labels] - model._proba(phi, model.beta_)
    return (phi.T @ (w[:, None] * resid) - model.ridge * model.beta_) / len(w)


def check_newton_fit(X, labels, w, n_classes):
    model = SoftmaxRegression(n_classes).fit(X, labels, w)
    hist = np.array(model.history_)
    assert np.all(np.diff(hist) >= 0)
    assert len(hist) - 1 < 25
    assert np.max(np.abs(penalised_gradient(model, X, labels, w))) <= 1e-6
    return model


class TestSoftmaxNewton:
    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("weights", ["unit", "uniform"])
    def test_reaches_the_reference_optimum(self, n_classes, weights):
        rng = np.random.default_rng(10 + n_classes)
        n = 3000
        x = rng.normal(size=(n, 3))
        logits = x @ rng.normal(size=(3, n_classes))
        labels = (logits + rng.gumbel(size=(n, n_classes))).argmax(axis=1)
        w = np.ones(n) if weights == "unit" else rng.uniform(0.2, 3.0, n)
        model = check_newton_fit(x, labels, w, n_classes)
        _, ref_history = reference_softmax_fit(model, x, labels, w)
        assert model.history_[-1] >= ref_history[-1]

    def test_single_class(self):
        x = np.random.default_rng(5).random((200, 1))
        labels = np.zeros(200, int)
        model = check_newton_fit(x, labels, np.ones(200), 2)
        assert np.all(model.predict_proba(x)[:, 0] > 0.9)

    def test_perfectly_separable(self):
        x = np.random.default_rng(7).random((200, 1))
        labels = (x[:, 0] > 0.5).astype(int)
        model = check_newton_fit(x, labels, np.ones(200), 2)
        assert np.all(np.isfinite(model.beta_))
        # The ridge keeps beta finite, so rows at the boundary stay uncertain.
        clear = np.abs(x[:, 0] - 0.5) > 0.05
        np.testing.assert_array_equal(
            model.predict_proba(x[clear]).argmax(axis=1), labels[clear])
        _, ref_history = reference_softmax_fit(model, x, labels, np.ones(200))
        assert model.history_[-1] >= ref_history[-1]


class TestFactory:
    @pytest.mark.parametrize("name", ["constant", "histogram", "knn", "softmax"])
    def test_round_trip(self, name):
        rng = np.random.default_rng(4)
        x = rng.random((200, 2))
        labels = rng.integers(0, 2, 200)
        clf = make_classifier(parse_learner_spec(name), 2)
        p = clf.fit(x, labels, np.ones(200)).predict_proba(x)
        simplex_rows(p)


class TestLabelRange:
    """A label outside {0, ..., n_classes - 1} fails the fit: it was counted
    in a class of its own, counted as class 0 of the next cell, dropped from
    knn's counts, or read as the last class."""

    @pytest.mark.parametrize("spec", ["constant", "histogram", "knn:5", "softmax"])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_fit_rejects(self, spec, bad):
        rng = np.random.default_rng(6)
        x, labels = rng.random((200, 2)), rng.integers(0, 2, 200)
        labels[17] = bad
        clf = make_classifier(parse_learner_spec(spec), 2)
        with pytest.raises(ValueError, match="labels must lie in"):
            clf.fit(x, labels, np.ones(200))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_relabel_rejects(self, bad):
        rng = np.random.default_rng(7)
        x, labels = rng.random((50, 2)), rng.integers(0, 2, 50)
        knn = KnnFrequency(2, k=5).fit(x, labels, np.ones(50))
        labels[3] = bad
        with pytest.raises(ValueError, match="labels must lie in"):
            knn.relabel(x, labels, np.ones(50))


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
