import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivbounds.crossfit as crossfit
from ivbounds.continuous import (
    OutcomeTransform,
    augment,
    averaged_variance,
    continuous_bounds,
    threshold_draw,
    threshold_mean_estimate,
)
from ivbounds.crossfit import ClosedFormNuisance, cross_fit
from ivbounds.data import Dataset
from ivbounds.estimators import direct_bounds
from ivbounds.learners import KnnFrequency, parse_learner_spec
from ivbounds.lse import lse_bounds
from ivbounds.simulation import (
    gen_illustration,
    illustration_lambda1,
    illustration_pi,
)


class TestOutcomeTransform:
    def test_unit_mapping(self):
        tr = OutcomeTransform(-2.0, 6.0)
        np.testing.assert_allclose(tr.to_unit(np.array([-2.0, 2.0, 6.0])),
                                   [0.0, 0.5, 1.0])
        assert tr.range == 8.0

    def test_from_data(self):
        tr = OutcomeTransform.from_data(np.array([3.0, 9.0, 5.0]))
        assert (tr.low, tr.high) == (3.0, 9.0)

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            OutcomeTransform(1.0, 1.0).to_unit(np.array([1.0]))


class TestThresholds:
    def test_strictly_inside_unit_interval(self):
        w = threshold_draw(100_000, seed=0, replicate=0)
        assert w.min() > 0.0 and w.max() < 1.0

    def test_replicates_are_independent_streams(self):
        a = threshold_draw(100, 0, 0)
        b = threshold_draw(100, 0, 1)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, threshold_draw(100, 0, 0))


class TestAugment:
    def make(self):
        return Dataset(x=np.zeros((4, 1)), z=[0, 1, 0, 1], a=[0, 1, 0, 1],
                       y=[0.0, 2.5, 5.0, 1.0], outcome_kind="bounded-continuous")

    def test_binary_pseudo_outcome(self):
        aug = augment(self.make(), OutcomeTransform(0.0, 5.0), seed=1, replicate=0)
        assert aug.outcome_kind == "binary"
        assert set(np.unique(aug.y)) <= {0.0, 1.0}

    def test_extremes_map_deterministically(self):
        aug = augment(self.make(), OutcomeTransform(0.0, 5.0), seed=1, replicate=0)
        assert aug.y[0] == 1.0  # y at the lower endpoint is below any threshold
        assert aug.y[2] == 0.0  # y at the upper endpoint is above any threshold

    def test_out_of_range_lists_rows(self):
        with pytest.raises(ValueError) as exc:
            augment(self.make(), OutcomeTransform(0.0, 2.0), seed=1, replicate=0)
        assert "rows" in str(exc.value)


class TestContinuousBounds:
    @pytest.mark.parametrize("method", ["direct", "lse"])
    def test_matches_binary_pipeline_exactly(self, method):
        data = gen_illustration(1500, 2)
        nuis = ClosedFormNuisance(illustration_lambda1, illustration_pi)
        lam1, pi = nuis.evaluate(data)
        binary = {"direct": direct_bounds, "lse": lse_bounds}[method](data, lam1, pi)

        class Pseudo:
            def evaluate(self, d):
                l1, p = nuis.evaluate(d)
                return l1, p[:, ::-1]  # pseudo outcome is 1 - y for binary data

        cont = continuous_bounds(data, Pseudo(), m=1, seed=2,
                                 method=method,
                                 transform=OutcomeTransform(0.0, 1.0))
        assert cont.lower == pytest.approx(binary.lower, abs=1e-12)
        assert cont.upper == pytest.approx(binary.upper, abs=1e-12)
        assert cont.var_lower == pytest.approx(binary.var_lower, abs=1e-12)
        assert cont.selection_frequencies() is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           unit_weights=st.booleans(), method=st.sampled_from(["direct", "lse"]))
    def test_m1_matches_binary_pipeline_on_random_data(self, seed, n, unit_weights,
                                                      method):
        # Any binary data and any nuisances: with m = 1 and the unit range the
        # pseudo-outcome is 1 - y, whose bounds negate and swap the binary ones.
        rng = np.random.default_rng(seed)
        data = Dataset(x=rng.random((n, 2)), z=rng.integers(0, 2, n),
                       a=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
                       w=None if unit_weights else rng.uniform(0.1, 10.0, n))
        lam1 = rng.uniform(0.05, 0.95, n)
        pi = rng.dirichlet(np.ones(4), size=(n, 2)).transpose(0, 2, 1).reshape(n, 2, 2, 2)
        binary = {"direct": direct_bounds, "lse": lse_bounds}[method](data, lam1, pi)

        class Pseudo:
            def evaluate(self, d):
                return lam1, pi[:, ::-1]

        cont = continuous_bounds(data, Pseudo(), m=1, seed=seed,
                                 method=method, transform=OutcomeTransform(0.0, 1.0))
        for field in ("lower", "upper", "var_lower", "var_upper"):
            assert getattr(cont, field) == pytest.approx(
                getattr(binary, field), rel=0, abs=1e-12), field

    def test_fitted_nuisances_identity(self):
        # Same identity with refit learners: label-symmetric learners make
        # the pseudo-outcome fit the exact relabeling of the binary fit.
        data = gen_illustration(600, 3)
        spec = parse_learner_spec("constant")
        known = parse_learner_spec("known:0.5")
        nuis = cross_fit(data, 3, spec, known, seed=3)
        lam1, pi = nuis.evaluate(data)
        binary = direct_bounds(data, lam1, pi)
        cont = continuous_bounds(
            data, cross_fit(data, 3, spec, known, seed=3),
            m=1, seed=3, transform=OutcomeTransform(0.0, 1.0))
        assert cont.lower == pytest.approx(binary.lower, abs=1e-12)
        assert cont.upper == pytest.approx(binary.upper, abs=1e-12)

    def test_more_replicates_shrink_variance(self):
        rng = np.random.default_rng(4)
        data = gen_illustration(1200, 5)
        cont_y = data.replace_outcome(rng.random(1200), "bounded-continuous")
        nuis = ClosedFormNuisance(illustration_lambda1, illustration_pi)

        class Fixed:
            def evaluate(self, d):
                # crude but valid nuisances: empirical cells pooled by arm
                l1 = np.full(d.n, 0.5)
                pi = np.zeros((d.n, 2, 2, 2))
                for z in (0, 1):
                    m = d.z == z
                    for y in (0, 1):
                        for a in (0, 1):
                            pi[:, y, a, z] = np.mean((d.y[m] == y) & (d.a[m] == a))
                return l1, pi

        v1 = continuous_bounds(cont_y, Fixed(), m=1, seed=6).var_lower
        v20 = continuous_bounds(cont_y, Fixed(), m=20, seed=6).var_lower
        assert v20 < v1

    def test_each_fold_arm_searched_once(self, monkeypatch):
        # With m > 1, continuous_bounds has a FoldedNuisances keep each knn
        # arm's neighbours, so later replicates recount with no search.  A
        # search stores a new query tuple; a recount keeps the kept one.
        k, m = 3, 3
        calls, searched = [], set()
        predict = KnnFrequency.predict_proba

        def counted(model, x):
            kept = model.last_query_
            out = predict(model, x)
            if model.n_classes == 4:
                calls.append(1)
                if model.last_query_ is not kept:
                    searched.add(id(model.last_query_))
            return out
        monkeypatch.setattr(KnnFrequency, "predict_proba", counted)
        data = gen_illustration(400, 3)
        rng = np.random.default_rng(1)
        data = data.replace_outcome(2.0 * data.y + rng.random(data.n), "bounded-continuous")
        nuis = cross_fit(data, k, parse_learner_spec("knn:20"),
                         parse_learner_spec("known:0.5"), seed=5)
        continuous_bounds(data, nuis, m, seed=5)
        assert len(calls) == 2 * k * m
        assert len(searched) == 2 * k

    def test_invalid_m(self):
        data = gen_illustration(100, 7)
        with pytest.raises(ValueError):
            continuous_bounds(data, None, m=0, seed=0)

    @pytest.mark.parametrize("method, t, message", [
        ("Lse", None, "neither 'direct' nor 'lse'"),  # ran direct, labelled continuous-Lse
        ("direct", -5.0, "only to method 'lse'"),  # t was ignored
        ("direct", 5.0, "only to method 'lse'"),
        ("lse", -1.0, "t -1.0 is not positive and finite"),  # failed after every fit
        ("lse", np.nan, "not positive and finite"),
        ("lse", np.inf, "not positive and finite"),
    ])
    def test_settings_rejected_before_any_fit(self, method, t, message, monkeypatch):
        fits = []
        fit = crossfit.fit_joint
        monkeypatch.setattr(crossfit, "fit_joint",
                            lambda *args, **kw: fits.append(1) or fit(*args, **kw))
        data = gen_illustration(200, 7)
        nuis = cross_fit(data, 2, parse_learner_spec("histogram"),
                         parse_learner_spec("known:0.5"), seed=0)
        with pytest.raises(ValueError, match=message):
            continuous_bounds(data, nuis, m=5, seed=0, method=method, t=t)
        assert fits == []


class TestAveragedVariance:
    @pytest.mark.parametrize("law,mu,sigma2", [
        ("bernoulli", 0.3, 0.3 * 0.7),
        ("point", 0.4, 0.0),
        ("uniform", 0.5, 1.0 / 12.0),
    ])
    @pytest.mark.parametrize("m", [1, 20])
    def test_matches_monte_carlo(self, law, mu, sigma2, m):
        n, reps = 200, 2000
        rng = np.random.default_rng(8)
        ests = []
        for rep in range(reps):
            if law == "bernoulli":
                t = (rng.random(n) < mu).astype(float)
            elif law == "point":
                t = np.full(n, mu)
            else:
                t = rng.random(n)
            ests.append(threshold_mean_estimate(t, m, seed=10_000 + rep))
        emp = np.var(ests)
        assert emp == pytest.approx(averaged_variance(mu, sigma2, n, m), rel=0.15)

    def test_limit_is_sigma2_over_n(self):
        assert averaged_variance(0.5, 0.02, 100, 10**9) == pytest.approx(0.0002)
