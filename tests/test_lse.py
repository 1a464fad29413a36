import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds.estimators import direct_bounds, wald_interval, z_quantile
from ivbounds.lse import (
    _lse_and_grad,
    lse,
    lse_bounds,
    lse_grad,
    lse_hess,
)
from ivbounds.simulation import _temperature, gen_margin, margin_truth


def random_vectors(n, k=8, scale=3.0, seed=0):
    return scale * np.random.default_rng(seed).standard_normal((n, k))


class TestKernel:
    def test_sandwich(self):
        # Strict domination of the max is checkable in floating point only
        # while t * (gap to the runner-up) keeps exp(-t gap) above the ulp
        # of the max, hence the unit-scale draws and moderate temperatures.
        v = random_vectors(10_000, scale=1.0)
        for t in (1.0, 2.0, 5.0):
            g = lse(v, t)
            m = v.max(axis=1)
            assert np.all(g > m)
            assert np.all(g <= m + np.log(v.shape[1]) / t)

    def test_upper_envelope_at_large_t(self):
        v = random_vectors(1000, seed=7)
        g = lse(v, 200.0)
        m = v.max(axis=1)
        assert np.all(g >= m)
        assert np.all(g <= m + np.log(v.shape[1]) / 200.0)

    def test_min_side_sandwich(self):
        v = random_vectors(1000, scale=1.0, seed=1)
        h = -lse(-v, 2.0)
        m = v.min(axis=1)
        assert np.all(h < m)
        assert np.all(h >= m - np.log(v.shape[1]) / 2.0)

    def test_translation_identity(self):
        v = random_vectors(100, seed=2)
        np.testing.assert_allclose(lse(v + 5.0, 7.0), lse(v, 7.0) + 5.0,
                                   atol=1e-12)

    def test_overflow_safe(self):
        v = np.array([[1e4, -1e4, 0.0]])
        assert np.isfinite(lse(v, 50.0)).all()
        assert np.isfinite(lse_grad(v, 50.0)).all()

    def test_many_tied_entries(self):
        # 300 tied maxima: the tie count must not wrap around.
        v = np.zeros((2, 300))
        np.testing.assert_allclose(lse(v, 2.0), np.log(300) / 2.0, rtol=1e-15)
        np.testing.assert_allclose(lse_grad(v, 2.0), 1 / 300, rtol=1e-15)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        t = 5.0
        g = lse_grad(v, t)
        eps = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd = (lse(v + e, t) - lse(v - e, t)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-6)

    def test_hessian_finite_difference(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(8)
        t = 5.0
        hess = lse_hess(v, t)
        eps = 1e-5
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd = (lse_grad(v + e, t) - lse_grad(v - e, t)) / (2 * eps)
            np.testing.assert_allclose(hess[j], fd, atol=1e-5)

    def test_hessian_psd_with_zero_row_sums(self):
        v = random_vectors(50, seed=5)
        hess = lse_hess(v, 3.0)
        np.testing.assert_allclose(hess.sum(axis=-1), 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(hess)
        assert np.all(eigs >= -1e-10)

    def test_gradient_is_simplex(self):
        s = lse_grad(random_vectors(200, seed=6), 4.0)
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)


class TestTemperatureRules:
    def test_data_analysis_rule(self):
        d = gen_margin(3010, 0)
        est = lse_bounds(d, *margin_truth().evaluate(d))
        assert est.extra["t"] == pytest.approx(100.0 * 3010 ** 0.25)
        assert est.extra["t_rule"] == "data-analysis"

    def test_simulation_rule(self):
        assert _temperature(5000, 2.25, 0.3) == pytest.approx(2 * 2.25 * 5000 ** 0.3)

    def test_fixed_rule_requires_t(self):
        d = gen_margin(10, 0)
        est = lse_bounds(d, *margin_truth().evaluate(d), 50.0)
        assert est.extra == {"t": 50.0, "t_rule": "fixed"}

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_given_t_must_be_positive_and_finite(self, t):
        # An infinite t gave NaN bounds, and a NaN t NaN bounds too.
        d = gen_margin(200, 0)
        with pytest.raises(ValueError, match="positive and finite"):
            lse_bounds(d, *margin_truth().evaluate(d), t)


class TestLseBounds:
    def test_close_to_direct_at_large_t(self):
        d = gen_margin(2000, 1)
        lam1, pi = margin_truth().evaluate(d)
        hard = direct_bounds(d, lam1, pi)
        soft = lse_bounds(d, lam1, pi, 1e4)
        assert soft.lower == pytest.approx(hard.lower, abs=1e-3)
        assert soft.upper == pytest.approx(hard.upper, abs=1e-3)

    def test_records_temperature(self):
        d = gen_margin(500, 2)
        lam1, pi = margin_truth().evaluate(d)
        est = lse_bounds(d, lam1, pi)
        assert est.extra["t"] == pytest.approx(100 * 500 ** 0.25)
        assert est.method == "lse"

    def test_conservative_wider_than_wald(self):
        d = gen_margin(2000, 3)
        lam1, pi = margin_truth().evaluate(d)
        est = lse_bounds(d, lam1, pi, 30.0)
        lo_c, hi_c = wald_interval(est)
        z = z_quantile(0.05)
        lo_w, hi_w = est.lower - z * est.se_lower, est.upper + z * est.se_upper
        pad = np.log(8) / 30.0
        assert est.smoothing_bias == pad
        assert lo_c == pytest.approx(lo_w - pad)
        assert hi_c == pytest.approx(hi_w + pad)


def reference_lse(v, t):
    """lse with its own exponential, as before the value and the gradient
    shared one."""
    v = np.asarray(v, dtype=float)
    m = np.max(v, axis=-1, keepdims=True)
    e = np.exp(t * (v - m))
    is_max = v == m
    n_max = is_max.sum(axis=-1)
    rest = np.sum(np.where(is_max, 0.0, e), axis=-1)
    return m[..., 0] + np.log1p((n_max - 1.0) + rest) / t


def reference_lse_grad(v, t):
    v = np.asarray(v, dtype=float)
    e = np.exp(t * (v - np.max(v, axis=-1, keepdims=True)))
    return e / np.sum(e, axis=-1, keepdims=True)


# A few repeated values make tied maxima (and signed zeros) common.
ENTRY = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]),
                  st.floats(-50.0, 50.0, allow_nan=False))


class TestSharedExponential:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(ENTRY, min_size=8, max_size=8), min_size=1, max_size=6),
           t=st.floats(1e-2, 1e4), one_row=st.booleans())
    def test_value_and_gradient_bitwise(self, rows, t, one_row):
        v = np.array(rows[0] if one_row else rows)
        value, grad = _lse_and_grad(v, t)
        for got, ref, public in ((value, reference_lse(v, t), lse(v, t)),
                                 (grad, reference_lse_grad(v, t), lse_grad(v, t))):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            assert public.tobytes() == ref.tobytes()

    def test_tied_maxima(self):
        v = np.array([[0.5, 0.5, 0.0, -1.0, 0.5, 0.2, -3.0, 0.1],
                      [-0.0, 0.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0]])
        value, grad = _lse_and_grad(v, 3.0)
        assert value.tobytes() == reference_lse(v, 3.0).tobytes()
        assert grad.tobytes() == reference_lse_grad(v, 3.0).tobytes()
        assert np.all(value > v.max(axis=-1))
