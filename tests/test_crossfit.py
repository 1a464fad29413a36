import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivbounds.crossfit as crossfit
from ivbounds.crossfit import (
    ClosedFormNuisance,
    cross_fit,
    fit_joint,
    fit_propensity,
    fold_assignment,
    oracle_noisy_nuisance,
    rng_stream,
)
from ivbounds.data import Dataset
from ivbounds.learners import FitError, KnnFrequency, parse_learner_spec
from ivbounds.simulation import gen_margin, margin_truth


def toy_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1))
    z = (rng.random(n) < 0.5).astype(int)
    a = np.where(rng.random(n) < 0.8, z, 1 - z)
    y = (rng.random(n) < 0.3 + 0.4 * a).astype(float)
    return Dataset(x=x, z=z, a=a, y=y)


def continuous_toy_data(n=400, seed=0):
    d = toy_data(n, seed)
    y = 12.0 * np.random.default_rng(seed + 1).random(n) * (0.5 + 0.5 * d.y)
    return d.replace_outcome(y, "bounded-continuous")


class TestFoldAssignment:
    def test_balanced_sizes(self):
        u = np.random.default_rng(0).random(103)
        folds = fold_assignment(u, 5)
        sizes = np.bincount(folds, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        u = rng.random(50)
        perm = rng.permutation(50)
        np.testing.assert_array_equal(fold_assignment(u, 4)[perm],
                                      fold_assignment(u[perm], 4))

    def test_deterministic_in_draws(self):
        u = np.random.default_rng(2).random(30)
        np.testing.assert_array_equal(fold_assignment(u, 3), fold_assignment(u, 3))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           n_folds=st.integers(1, 12), ties=st.booleans())
    def test_property_balanced_and_permutes_with_rows(self, seed, n, n_folds, ties):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 4, n) / 4.0 if ties else rng.random(n)
        folds = fold_assignment(u, n_folds)
        sizes = np.bincount(folds, minlength=n_folds)
        assert len(sizes) == n_folds and sizes.max() - sizes.min() <= 1
        if not ties:  # with tied draws the stable rank follows row order
            perm = rng.permutation(n)
            np.testing.assert_array_equal(folds[perm], fold_assignment(u[perm], n_folds))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           n_folds=st.integers(1, 12), ties=st.sampled_from([0, 1, 4, 64]))
    def test_property_equals_the_stable_rank(self, seed, n, n_folds, ties):
        # ties = 0 draws distinct values, 1 repeats one draw in them, and
        # larger values draw from that many levels.
        rng = np.random.default_rng(seed)
        u = rng.integers(0, ties, n) / ties if ties > 1 else rng.random(n)
        if ties == 1 and n > 1:
            u[rng.integers(n)] = u[rng.integers(n)]
        ranks = np.empty(n, dtype=int)
        ranks[np.argsort(u, kind="stable")] = np.arange(n)
        np.testing.assert_array_equal(fold_assignment(u, n_folds), ranks % n_folds)


class TestRngStreams:
    def test_distinct_paths_distinct_draws(self):
        a = rng_stream(7, 1).random(5)
        b = rng_stream(7, 2).random(5)
        c = rng_stream(7, 1).random(5)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)

    def test_paths_in_use_draw_distinct_streams(self):
        reps = range(1, 5)
        draws = {}
        for s in (0, 4, 77, 1004):
            paths = [(s, 0), (s, 1), *[(s, 1, r) for r in reps],
                     (s, 10), *[(s, 10, r) for r in reps], (s, 11),
                     *[(s, 20, r) for r in range(5)], (s, 99)]
            for path in paths:
                draws[path] = tuple(rng_stream(*path).random(4))
        assert len(set(draws.values())) == len(draws)

    @pytest.mark.parametrize("path", [(2**32 + 5, 10), (5, 1, 2**32), (-1,), (0, -3)])
    def test_entries_outside_32_bits_rejected(self, path):
        # SeedSequence splits 2**32 + 5 into the words (5, 1), so the path
        # (2**32 + 5, 10) would draw exactly (5, 1, 10).
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            rng_stream(*path)

    @pytest.mark.parametrize("path, first", [
        ((0,), 0.014067035665647709), ((5, 1, 10), 0.010125362860919584),
        ((2**32 - 1, 10, 3), 0.86265354233677), ((7, 0), 0.46881748695593284)])
    def test_in_range_streams_unchanged(self, path, first):
        assert rng_stream(*path).random() == first

    def test_trailing_zeros_alias(self):
        # SeedSequence zero-pads its entropy: replicate 0 is the plain stream
        for short in [(7,), (7, 10), (7, 1)]:
            np.testing.assert_array_equal(rng_stream(*short, 0).random(4),
                                          rng_stream(*short).random(4))


class TestFitPropensity:
    def test_known_value(self):
        model = fit_propensity(toy_data(), parse_learner_spec("known:0.5"))
        np.testing.assert_allclose(model(np.zeros((3, 1))), 0.5)

    def test_known_out_of_range(self):
        with pytest.raises(ValueError):
            fit_propensity(toy_data(), parse_learner_spec("known:1.0"))
        with pytest.raises(ValueError):
            fit_propensity(toy_data(), parse_learner_spec("known:0.005"))

    def test_fitted_values_truncated(self):
        d = toy_data()
        model = fit_propensity(d, parse_learner_spec("constant"), eps=0.4)
        p = model(d.x)
        assert np.all(p >= 0.4) and np.all(p <= 0.6)

    def test_degenerate_instrument(self):
        d = toy_data()
        flat = Dataset(x=d.x, z=np.zeros(d.n, int), a=d.a, y=d.y)
        with pytest.raises(FitError):
            fit_propensity(flat, parse_learner_spec("constant"))

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("spec", ["histogram", "softmax", "knn:5"])
    def test_single_valued_instrument(self, spec, value):
        d = toy_data()
        flat = Dataset(x=d.x, z=np.full(d.n, value), a=d.a, y=d.y)
        with pytest.raises(FitError, match="instrument takes a single value"):
            fit_propensity(flat, parse_learner_spec(spec))

    def test_no_training_rows(self):
        d = toy_data()
        with pytest.raises(FitError, match="^empty data$"):
            fit_propensity(d, parse_learner_spec("constant"), rows=np.zeros(d.n, bool))


class TestFitJoint:
    def test_cell_probabilities_normalize(self):
        d = toy_data()
        model = fit_joint(d, 1, parse_learner_spec("histogram"))
        cells = model(d.x)
        np.testing.assert_allclose(cells.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_empty_arm(self):
        d = toy_data()
        one_arm = Dataset(x=d.x, z=np.ones(d.n, int), a=d.a, y=d.y)
        with pytest.raises(FitError):
            fit_joint(one_arm, 0, parse_learner_spec("constant"))

    def test_non_binary_outcome_rejected_whatever_the_kind(self):
        # A bounded-continuous outcome must be dichotomized first; fitting
        # cells on it would keep only the rows whose label happens to fit.
        d = continuous_toy_data()
        with pytest.raises(FitError, match="outcome in"):
            fit_joint(d, 1, parse_learner_spec("knn:20"))
        nuis = cross_fit(d, 3, parse_learner_spec("knn:20"),
                         parse_learner_spec("histogram"), seed=0)  # reads no outcome
        with pytest.raises(FitError, match="outcome in"):
            nuis.evaluate(d)


class TestFitWorkingSet:
    """The fits read their training rows of x, z, a and w in place.  Copies
    of them took the peak to 133 traced bytes per training row for the
    propensity fit and 71 per fold-complement row for one arm's joint fit."""

    @pytest.mark.parametrize("stage,bound", [("propensity", 115), ("joint", 62)])
    def test_traced_bytes_per_complement_row(self, stage, bound):
        rng = np.random.default_rng(0)
        n = 100_000
        x = np.column_stack([rng.integers(0, 2, n), rng.random(n), rng.standard_normal(n)])
        z = rng.random(n) < 0.3 + 0.4 * x[:, 1]
        a = rng.random(n) < 0.2 + 0.5 * z
        d = Dataset(x, z, a, rng.random(n) < 0.3 + 0.2 * a + 0.1 * x[:, 0])
        train = np.arange(n) % 5 != 0  # 80k rows, about 40k of them in the arm z = 1
        spec = parse_learner_spec("histogram")
        tracemalloc.start()
        try:
            if stage == "propensity":
                fit_propensity(d, spec, rows=train)
            else:
                fit_joint(d, 1, spec, rows=train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / train.sum() <= bound


class TestCrossFit:
    def test_out_of_fold_evaluation_covers_all_rows(self):
        d = toy_data(300)
        nuis = cross_fit(d, 5, parse_learner_spec("constant"),
                         parse_learner_spec("known:0.5"), seed=3)
        lam1, pi = nuis.evaluate(d)
        assert lam1.shape == (300,)
        assert pi.shape == (300, 2, 2, 2)
        np.testing.assert_allclose(pi.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_models_differ_across_folds(self):
        d = toy_data(300)
        nuis = cross_fit(d, 3, parse_learner_spec("constant"),
                         parse_learner_spec("known:0.5"), seed=3)
        nuis.evaluate(d)
        probs = [arms[1](d.x[:1]) for arms in nuis.joint]
        assert not np.allclose(probs[0], probs[1])

    @pytest.mark.parametrize("pi_spec,lam_spec", [
        ("histogram", "histogram"), ("knn:20", "softmax"), ("constant", "known:0.5")])
    def test_rows_get_their_complement_fits(self, pi_spec, lam_spec):
        # Each fold's rows are predicted by fits on every other fold's rows.
        d = toy_data(300)
        pi_spec, lam_spec = parse_learner_spec(pi_spec), parse_learner_spec(lam_spec)
        nuis = cross_fit(d, 3, pi_spec, lam_spec, seed=5, eps=0.05)
        lam1, pi = nuis.evaluate(d)
        for k in range(3):
            rows = nuis.folds == k
            train = d.subset(np.flatnonzero(~rows))
            np.testing.assert_array_equal(
                lam1[rows], fit_propensity(train, lam_spec, eps=0.05)(d.x[rows]))
            for z in (0, 1):
                np.testing.assert_array_equal(
                    pi[rows, :, :, z], fit_joint(train, z, pi_spec)(d.x[rows]))

    def test_seed_determinism(self):
        d = toy_data(200)
        a = cross_fit(d, 4, parse_learner_spec("constant"),
                      parse_learner_spec("constant"), seed=9)
        b = cross_fit(d, 4, parse_learner_spec("constant"),
                      parse_learner_spec("constant"), seed=9)
        np.testing.assert_array_equal(a.folds, b.folds)
        np.testing.assert_allclose(*(n.evaluate(d)[0] for n in (a, b)))

    @pytest.mark.parametrize("in_fold", [0, 1])
    def test_fold_complement_lacking_an_arm(self, in_fold):
        # z = in_fold exactly on fold 1's rows: fold 1's complement has one arm.
        d = toy_data(40)
        folds = fold_assignment(rng_stream(3, 0).random(d.n), 4)
        z = np.where(folds == 1, in_fold, 1 - in_fold)
        with pytest.raises(FitError, match="fold 1: training complement lacks an instrument arm"):
            cross_fit(Dataset(x=d.x, z=z, a=d.a, y=d.y), 4, parse_learner_spec("histogram"),
                      parse_learner_spec("histogram"), seed=3)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            cross_fit(toy_data(8), 5, parse_learner_spec("constant"),
                      parse_learner_spec("constant"), seed=0)

    def test_joint_spec_without_classifier_rejected_before_fits(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the joint-cell spec was checked")
        monkeypatch.setattr(crossfit, "fit_propensity", no_fit)
        with pytest.raises(ValueError, match="no classifier for learner 'known'"):
            cross_fit(toy_data(), 2, parse_learner_spec("known:0.5"),
                      parse_learner_spec("constant"), seed=0)

    @pytest.mark.parametrize("spec,keep", [
        ("constant", False), ("histogram", False), ("softmax", False),
        ("knn:20", True), ("knn:20", False)])
    def test_second_outcome_equals_fresh_fit(self, spec, keep):
        # A second outcome's cells on the same rows equal a fresh cross-fit's.
        # A knn arm recounts them over the neighbours the first evaluate
        # found, if it was asked to keep them, and otherwise searches again.
        d = toy_data(300)
        spec, known = parse_learner_spec(spec), parse_learner_spec("known:0.5")
        nuis = cross_fit(d, 3, spec, known, seed=5)
        if keep:
            nuis.keep_neighbours()
        nuis.evaluate(d)
        first = list(nuis.joint)
        flipped = d.replace_outcome(1.0 - d.y, "binary")
        got = nuis.evaluate(flipped)[1]
        want = cross_fit(flipped, 3, spec, known, seed=5).evaluate(flipped)[1]
        assert got.tobytes() == want.tobytes()
        if spec.name != "knn":
            return
        for old, new in zip(first, nuis.joint):
            for a, b in zip(old, new):
                kept = a.classifier.last_query_
                assert (kept[0] is not None) == keep
                assert b.classifier.last_query_ is kept or not keep

    def test_propensity_predicted_once_by_cross_fit(self, monkeypatch):
        # cross_fit predicts each fold's out-of-fold propensity right after
        # fitting it; evaluate reuses it, whatever the outcome.
        calls = {2: 0, 4: 0}
        predict = KnnFrequency.predict_proba

        def counted(model, x):
            calls[model.n_classes] += 1
            return predict(model, x)
        monkeypatch.setattr(KnnFrequency, "predict_proba", counted)
        d = toy_data(300)
        spec = parse_learner_spec("knn:20")
        nuis = cross_fit(d, 3, spec, spec, seed=5)
        lam1 = nuis.evaluate(d)[0]
        assert nuis.evaluate(d)[0] is lam1 is nuis.lam1
        assert not nuis.lam1.flags.writeable
        with pytest.raises(ValueError):
            nuis.lam1[0] = 0.5
        flipped = d.replace_outcome(1.0 - d.y, "binary")
        assert nuis.evaluate(flipped)[0] is nuis.lam1
        assert calls[2] == 3

    def test_propensity_models_freed_fold_by_fold(self, monkeypatch):
        # Each fold's task writes its rows of lam1 and drops its model, so no
        # earlier fold's predictor is alive when the next one is fitted.
        made, alive = [], []

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            predict = fit_propensity(*args, **kwargs)
            made.append(weakref.ref(predict))
            return predict
        monkeypatch.setattr(crossfit, "fit_propensity", tracked)
        d = toy_data(400)  # below POOL_MIN_ROWS: the folds run in turn
        spec = parse_learner_spec("knn:20")
        cross_fit(d, 4, spec, spec, seed=5)
        assert alive == [0, 0, 0, 0]

    @pytest.mark.parametrize("column", ["x", "z", "w"])
    def test_evaluate_rejects_other_rows(self, column):
        d = toy_data(300)
        nuis = cross_fit(d, 3, parse_learner_spec("histogram"),
                         parse_learner_spec("histogram"), seed=4)
        lam1, pi = nuis.evaluate(d)
        # Only the outcome differs: the continuous-mode path evaluates this,
        # and the cells follow the outcome evaluated.
        lam_y, pi_y = nuis.evaluate(d.replace_outcome(1.0 - d.y, "binary"))
        np.testing.assert_array_equal(lam_y, lam1)
        assert not np.array_equal(pi_y, pi)
        np.testing.assert_array_equal(nuis.evaluate(d)[1], pi)
        other = d.subset(np.arange(d.n))
        if column == "x":
            other.x[0, 0] += 0.5
        elif column == "z":
            other.z[0] = 1 - other.z[0]
        else:
            other.w[0] = 2.0
        with pytest.raises(ValueError, match="fitted on"):
            nuis.evaluate(other)


class TestOracleNuisance:
    def test_zero_noise_returns_truth(self):
        d = gen_margin(200, 1)
        lam_t, pi_t = margin_truth().evaluate(d)
        lam_h, pi_h = oracle_noisy_nuisance(margin_truth(), 200, 0.3, 0.0,
                                            seed=1).evaluate(d)
        np.testing.assert_allclose(lam_h, lam_t, atol=1e-12)
        np.testing.assert_allclose(pi_h, pi_t, atol=1e-12)

    def test_structural_zeros_preserved(self):
        d = gen_margin(200, 1)
        _, pi_h = oracle_noisy_nuisance(margin_truth(), 200, 0.2, 2.25,
                                        seed=2).evaluate(d)
        assert np.all(pi_h[:, :, 1, 0] == 0.0)
        assert np.all(pi_h[:, :, 0, 1] == 0.0)

    def test_noise_magnitude_scales_as_rate(self):
        d = gen_margin(2000, 1)
        lam_t, _ = margin_truth().evaluate(d)
        errs = []
        for n_eff in (100, 100_000):
            gaps = []
            for seed in range(40):
                lam_h, _ = oracle_noisy_nuisance(margin_truth(), n_eff, 0.5,
                                                 2.25, seed).evaluate(d)
                gaps.append(np.sqrt(np.mean((lam_h - lam_t) ** 2)))
            errs.append(np.mean(gaps))
        assert errs[1] < errs[0] / 5  # rate n^{-1/2}: factor ~sqrt(1000)

    def test_degenerate_truth_rejected(self):
        bad = ClosedFormNuisance(lambda x: np.ones(len(x)), margin_truth().pi_fn,
                                 margin_truth().zero_mask)
        d = gen_margin(50, 1)
        with pytest.raises(ValueError):
            oracle_noisy_nuisance(bad, 50, 0.3, 2.25, seed=0).evaluate(d)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            oracle_noisy_nuisance(margin_truth(), 100, 0.7, 2.25, seed=0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="^h must be nonnegative$"):
            oracle_noisy_nuisance(margin_truth(), 100, 0.3, -1.0, seed=0)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_live_cell_at_0_or_1_rejected(self, value):
        def pi_fn(x):
            pi = np.full((len(x), 2, 2, 2), 0.25)
            pi[:, 1, 0, 1] = value  # a live cell: the default mask marks none zero
            return pi
        truth = ClosedFormNuisance(lambda x: np.full(len(x), 0.5), pi_fn)
        noisy = oracle_noisy_nuisance(truth, 50, 0.3, 2.25, seed=0)
        with pytest.raises(ValueError, match="^only structurally-zero cells may be exactly 0/1$"):
            noisy.truth_logits(gen_margin(50, 1))
