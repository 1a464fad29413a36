import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivbounds.crossfit as crossfit
import ivbounds.estimators as estimators
from ivbounds.bounds import (
    _LOWER,
    _UPPER,
    theta_lower,
    theta_lower_linear,
    theta_profile,
    theta_upper,
    theta_upper_linear,
)
from ivbounds.data import Dataset
from ivbounds.estimators import (
    ROW_BLOCK,
    BoundKernel,
    _finish,
    direct_bounds,
    plugin_bounds,
    psi_correction,
    wald_interval,
    z_quantile,
)
from ivbounds.lse import _smooth_phi, lse, lse_bounds, lse_grad
from ivbounds.simulation import gen_margin, margin_truth


def constant_x_data(n, seed, lam=0.4, p_comply=0.8, py=(0.3, 0.7)):
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < lam).astype(int)
    a = np.where(rng.random(n) < p_comply, z, 1 - z)
    y = (rng.random(n) < np.where(a == 1, py[1], py[0])).astype(float)
    return Dataset(x=np.zeros((n, 1)), z=z, a=a, y=y)


class TestPsiCorrection:
    def test_conditional_mean_zero_at_truth(self):
        # With nuisances equal to the data-generating law the correction
        # averages to 0 cell by cell (the defining property of the
        # centering term).
        n = 400_000
        d = constant_x_data(n, 0)
        lam1 = np.full(n, 0.4)
        pi = np.zeros((n, 2, 2, 2))
        for z in (0, 1):
            m = d.z == z
            for y in (0, 1):
                for a in (0, 1):
                    pi[:, y, a, z] = np.mean((d.y[m] == y) & (d.a[m] == a))
        lam_emp = np.full(n, d.z.mean())
        c = psi_correction(d, lam_emp, pi)
        np.testing.assert_allclose(c.mean(axis=0), 0.0, atol=2e-3)

    def test_exact_zero_for_empirical_cells(self):
        # Using the empirical propensity and empirical cells, the weighted
        # correction mean vanishes identically, not just in expectation.
        d = constant_x_data(500, 1)
        lam_emp = np.full(500, d.z.mean())
        pi = np.zeros((500, 2, 2, 2))
        for z in (0, 1):
            m = d.z == z
            for y in (0, 1):
                for a in (0, 1):
                    pi[:, y, a, z] = np.mean((d.y[m] == y) & (d.a[m] == a))
        c = psi_correction(d, lam_emp, pi)
        np.testing.assert_allclose(c.mean(axis=0), 0.0, atol=1e-14)

    def test_shape_and_sparsity(self):
        d = constant_x_data(50, 2)
        c = psi_correction(d, np.full(50, 0.4), np.full((50, 2, 2, 2), 0.25))
        assert c.shape == (50, 2, 2, 2)
        # each row touches only its own instrument arm
        arm = 1 - d.z
        assert np.all(c[np.arange(50), :, :, arm] == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, np.nan])
    def test_propensity_without_own_arm_mass_rejected(self, lam):
        # 1 / lam_z must be finite in every row's own arm z; the kernel
        # checks pi once and relies on this check for c.
        d = constant_x_data(20, 4)
        lam1 = np.full(20, 0.4)
        lam1[np.flatnonzero(d.z == (0 if lam == 1.0 else 1))[0]] = lam
        pi = np.full((20, 2, 2, 2), 0.25)
        for estimate in (lambda: psi_correction(d, lam1, pi),
                         lambda: direct_bounds(d, lam1, pi),
                         lambda: lse_bounds(d, lam1, pi)):
            with pytest.raises(ValueError, match="0 < lam1 < 1"):
                estimate()
        assert np.isfinite(plugin_bounds(d, lam1, pi).lower)  # needs no correction

    @pytest.mark.parametrize("y", [1.5, 0.5, -1.0])
    def test_non_binary_outcome_rejected(self, y):
        d = constant_x_data(20, 3)
        d = d.replace_outcome(np.where(np.arange(20) == 7, y, d.y), "bounded-continuous")
        pi = np.full((20, 2, 2, 2), 0.25)
        with pytest.raises(ValueError, match="outcome in"):
            psi_correction(d, np.full(20, 0.4), pi)
        with pytest.raises(ValueError, match="outcome in"):
            direct_bounds(d, np.full(20, 0.4), pi)


class TestDirectBounds:
    def test_constant_x_matches_saturated_formula(self):
        # With a single covariate value and empirical nuisances, the
        # one-step estimate equals the plug-in at the empirical cells:
        # the correction is exactly self-cancelling.
        d = constant_x_data(2000, 3)
        lam_emp = np.full(2000, d.z.mean())
        pi = np.zeros((2000, 2, 2, 2))
        for z in (0, 1):
            m = d.z == z
            for y in (0, 1):
                for a in (0, 1):
                    pi[:, y, a, z] = np.mean((d.y[m] == y) & (d.a[m] == a))
        est = direct_bounds(d, lam_emp, pi)
        prof = theta_profile(pi[0])
        assert est.lower == pytest.approx(prof.gamma_l, abs=1e-12)
        assert est.upper == pytest.approx(prof.gamma_u, abs=1e-12)

    def test_margin_truth_recovers_zero(self):
        d = gen_margin(20_000, 4)
        lam1, pi = margin_truth().evaluate(d)
        est = direct_bounds(d, lam1, pi)
        assert abs(est.lower) < 4 * est.se_lower
        assert abs(est.upper) < 4 * est.se_upper
        assert not est.crossed or est.lower - est.upper < 4 * est.se_lower

    def test_influence_values_average_to_estimate(self):
        d = gen_margin(1000, 5)
        lam1, pi = margin_truth().evaluate(d)
        est = direct_bounds(d, lam1, pi)
        assert est.phi_lower.mean() == pytest.approx(est.lower)
        assert est.phi_upper.mean() == pytest.approx(est.upper)

    def test_selection_frequencies_sum_to_one(self):
        d = gen_margin(500, 6)
        lam1, pi = margin_truth().evaluate(d)
        freqs = direct_bounds(d, lam1, pi).selection_frequencies()
        assert freqs["lower"].sum() == pytest.approx(1.0)
        assert freqs["upper"].sum() == pytest.approx(1.0)

    def test_weights_shift_the_estimate(self):
        d = gen_margin(400, 7)
        lam1, pi = margin_truth().evaluate(d)
        base = direct_bounds(d, lam1, pi)
        wd = Dataset(x=d.x, z=d.z, a=d.a, y=d.y,
                     w=1.0 + 5.0 * d.x[:, 0])
        weighted = direct_bounds(wd, lam1, pi)
        assert weighted.lower != pytest.approx(base.lower)


class TestPluginBounds:
    def test_is_mean_of_rowwise_extremes(self):
        d = gen_margin(300, 8)
        lam1, pi = margin_truth().evaluate(d)
        est = plugin_bounds(d, lam1, pi)
        assert est.lower == pytest.approx(np.mean(np.max(theta_lower(pi), axis=1)))

    def test_never_crossed(self):
        d = gen_margin(300, 9)
        lam1, pi = margin_truth().evaluate(d)
        est = plugin_bounds(d, lam1, pi)
        assert est.lower <= est.upper + 1e-12


class TestWaldInterval:
    def test_quantile_value(self):
        assert z_quantile(0.05) == pytest.approx(1.959963984540054, abs=1e-12)

    def test_interval_contains_point_estimates(self):
        d = gen_margin(500, 10)
        lam1, pi = margin_truth().evaluate(d)
        est = direct_bounds(d, lam1, pi)
        lo, hi = wald_interval(est)
        assert lo <= est.lower and est.upper <= hi

    def test_level_monotonicity(self):
        d = gen_margin(500, 11)
        lam1, pi = margin_truth().evaluate(d)
        est = direct_bounds(d, lam1, pi)
        lo95, hi95 = wald_interval(est, 0.05)
        lo80, hi80 = wald_interval(est, 0.20)
        assert lo95 < lo80 and hi80 < hi95

    def test_direct_interval_is_unpadded(self):
        # Only a smoothed estimate has a smoothing bias to pad by.
        d = gen_margin(500, 12)
        lam1, pi = margin_truth().evaluate(d)
        est = direct_bounds(d, lam1, pi)
        z = z_quantile(0.05)
        assert est.smoothing_bias == 0.0
        assert wald_interval(est) == (est.lower - z * est.se_lower,
                                      est.upper + z * est.se_upper)


class TestInvariance:
    """Estimates depend on the rows as a weighted set: neither their order
    nor the scale of the weights may matter."""

    @staticmethod
    def random_inputs(seed, n, unit_weights):
        rng = np.random.default_rng(seed)
        d = Dataset(x=rng.random((n, 1)), z=rng.integers(0, 2, n),
                    a=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
                    w=None if unit_weights else rng.uniform(0.1, 10.0, n))
        lam1 = rng.uniform(0.1, 0.9, n)
        pi = rng.dirichlet(np.ones(4), size=(n, 2)).transpose(0, 2, 1).reshape(n, 2, 2, 2)
        return d, lam1, pi

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           unit_weights=st.booleans(), scale=st.floats(1e-3, 1e3))
    def test_row_permutation_and_weight_scale(self, seed, n, unit_weights, scale):
        d, lam1, pi = self.random_inputs(seed, n, unit_weights)
        perm = np.random.default_rng(seed + 1).permutation(n)
        permuted = Dataset(d.x[perm], d.z[perm], d.a[perm], d.y[perm], d.w[perm])
        scaled = Dataset(d.x, d.z, d.a, d.y, scale * d.w)
        for estimator in (direct_bounds, plugin_bounds, lse_bounds):
            base = estimator(d, lam1, pi)
            for other in (estimator(permuted, lam1[perm], pi[perm]),
                          estimator(scaled, lam1, pi)):
                for field in ("lower", "upper", "var_lower", "var_upper"):
                    assert getattr(other, field) == pytest.approx(
                        getattr(base, field), rel=0, abs=1e-12), (estimator, field)


def reference_psi_correction(data, lam1, pi):
    """The correction by broadcasting 0/1 indicator arrays against pi."""
    lam1 = np.asarray(lam1, dtype=float)
    lam = np.where(data.z[:, None, None, None] == 1, lam1[:, None, None, None],
                   1.0 - lam1[:, None, None, None])
    zmatch = (data.z[:, None, None, None]
              == np.arange(2)[None, None, None, :]).astype(float)
    cell = ((data.y.astype(int)[:, None, None, None]
             == np.arange(2)[None, :, None, None])
            & (data.a[:, None, None, None]
               == np.arange(2)[None, None, :, None])).astype(float)
    return zmatch / lam * (cell - pi)


def reference_estimates(data, lam1, pi, t):
    """Per-row contributions and 1-based selectors of the direct, plug-in and
    smooth estimators, each building its own candidates and correction."""
    rows = np.arange(data.n)
    out = {}
    th_l, th_u = theta_lower(pi), theta_upper(pi)
    d_l, d_u = np.argmax(th_l, axis=-1), np.argmin(th_u, axis=-1)
    c = reference_psi_correction(data, lam1, pi)
    out["direct"] = (th_l[rows, d_l] + theta_lower_linear(c)[rows, d_l],
                     th_u[rows, d_u] + theta_upper_linear(c)[rows, d_u])
    out["plugin"] = (np.max(th_l, axis=-1), np.min(th_u, axis=-1))
    out["lse"] = (
        lse(th_l, t) + np.sum(lse_grad(th_l, t) * theta_lower_linear(c), axis=-1),
        -lse(-th_u, t) + np.sum(lse_grad(-th_u, t) * theta_upper_linear(c), axis=-1))
    return out, d_l + 1, d_u + 1


class TestKernelMatchesReference:
    """The public estimators give bit-for-bit the contributions of the
    estimators that built everything themselves."""

    def check(self, data, lam1, pi, t=25.0):
        ref, d_l, d_u = reference_estimates(data, lam1, pi, t)
        for name, est in (("direct", direct_bounds(data, lam1, pi)),
                          ("plugin", plugin_bounds(data, lam1, pi)),
                          ("lse", lse_bounds(data, lam1, pi, t))):
            assert est.method == name
            assert est.phi_lower.tobytes() == ref[name][0].tobytes(), name
            assert est.phi_upper.tobytes() == ref[name][1].tobytes(), name
            np.testing.assert_array_equal(est.d_lower, d_l)
            np.testing.assert_array_equal(est.d_upper, d_u)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           unit_weights=st.booleans())
    def test_random_inputs(self, seed, n, unit_weights):
        self.check(*TestInvariance.random_inputs(seed, n, unit_weights))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_margin_truth_with_ties(self, seed):
        # Structural zeros make several candidates tie exactly at every row.
        d = gen_margin(300, seed)
        self.check(d, *margin_truth().evaluate(d))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    def test_correction_bitwise(self, seed, n):
        d, lam1, pi = TestInvariance.random_inputs(seed, n, True)
        assert psi_correction(d, lam1, pi).tobytes() == reference_psi_correction(
            d, lam1, pi).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           unit_weights=st.booleans())
    def test_direct_is_the_candidate_at_pi_plus_c(self, seed, n, unit_weights):
        # In exact arithmetic the one-step contribution theta(pi)[d] +
        # theta_linear(c)[d] is theta(pi + c)[d], the selected candidate at
        # pi + c.  A candidate has at most L cells, so each form sums at most
        # 2L + 1 terms (L of pi, L of c, a constant), none above the row's
        # largest term M, and every partial sum is at most (2L + 1) M.  Each
        # form rounds 2L times (L adds of pi + c and L along the chain; or
        # L - 1 along each chain, one constant and one join), each rounding
        # off by at most u (2L + 1) M with u = eps / 2, so the two forms
        # differ by at most 4L (2L + 1) u M.
        d, lam1, pi = TestInvariance.random_inputs(seed, n, unit_weights)
        c = reference_psi_correction(d, lam1, pi)
        longest = max(len(terms) for terms, _ in _LOWER + _UPPER)
        big = np.maximum(1.0, np.maximum(np.abs(pi), np.abs(c)).reshape(n, 8).max(axis=1))
        tol = 4 * longest * (2 * longest + 1) * (np.finfo(float).eps / 2) * big
        est = direct_bounds(d, lam1, pi)
        rows = np.arange(n)
        for phi, theta, sel in ((est.phi_lower, theta_lower, est.d_lower),
                                (est.phi_upper, theta_upper, est.d_upper)):
            assert np.all(np.abs(phi - theta(pi + c)[rows, sel - 1]) <= tol)

    def test_correction_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimators, "psi_correction",
                            lambda *a: calls.append(1) or psi_correction(*a))
        d = gen_margin(200, 3)
        kernel = BoundKernel(d, *margin_truth().evaluate(d))
        assert calls == []
        kernel.direct_phi()
        _smooth_phi(kernel, 25.0)
        kernel.direct_phi()
        assert calls == [1]


class TestRowBlocks:
    """The public estimators run the kernel one row block at a time and give
    byte for byte the estimate finished over the reference's whole-n
    contributions, in a working set that grows by far less per row."""

    FIELDS = ("phi_lower", "phi_upper", "d_lower", "d_upper",
              "lower", "upper", "var_lower", "var_upper")

    @pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   2 * ROW_BLOCK + 17])
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_equal_to_whole_kernel(self, n, unit_weights):
        d, lam1, pi = TestInvariance.random_inputs(n, n, unit_weights)
        t = 100.0 * n ** 0.25  # the full n's
        phi, d_l, d_u = reference_estimates(d, lam1, pi, t)
        for est, extra in ((direct_bounds(d, lam1, pi), {}), (plugin_bounds(d, lam1, pi), {}),
                           (lse_bounds(d, lam1, pi), {"t": t, "t_rule": "data-analysis"})):
            ref = _finish(d, *phi[est.method], d_l, d_u, est.method, extra)
            for field in self.FIELDS:
                got, want = np.asarray(getattr(est, field)), np.asarray(getattr(ref, field))
                assert (got.dtype, got.shape) == (want.dtype, want.shape), field
                assert got.tobytes() == want.tobytes(), (est.method, field)
            assert est.extra == ref.extra

    @pytest.mark.parametrize("rows, pi_rows, lead", [
        pytest.param(50, 51, (), id="50-51"), pytest.param(51, 50, (), id="51-50"),
        pytest.param(51, 51, (3,), id="leading-axis"), pytest.param(0, 0, (), id="no-rows")])
    def test_row_count_mismatch_rejected(self, rows, pi_rows, lead):
        # A block loop over data.n rows would otherwise drop extra nuisance
        # rows, take nuisances stacked on a leading axis for rows, or finish
        # an estimate of no rows as 0.
        d, lam1, pi = TestInvariance.random_inputs(3, 51, True)
        lam1, pi = (np.broadcast_to(v[:pi_rows], lead + v[:pi_rows].shape) for v in (lam1, pi))
        for estimator in (direct_bounds, plugin_bounds, lse_bounds):
            with pytest.raises(ValueError, match="rows"):
                estimator(d.subset(slice(0, rows)), lam1, pi)

    def test_traced_peak_grows_little_per_row(self):
        # The whole-n kernel kept about 500 traced bytes per row; the
        # blocks keep the joined contributions, selectors and _finish's sums.
        peaks = []
        for n in (4 * ROW_BLOCK, 16 * ROW_BLOCK):
            d, lam1, pi = TestInvariance.random_inputs(11, n, True)
            tracemalloc.start()
            try:
                lse_bounds(d, lam1, pi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (12 * ROW_BLOCK) <= 96

    def test_first_failing_block_reaches_caller(self, monkeypatch):
        # Blocks 1 and 3 fail, and block 3 fails first on two threads; block 1's
        # error reaches the caller, as it does serially, and no thread outlives it.
        monkeypatch.setattr(crossfit, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(crossfit, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(estimators, "ROW_BLOCK", 128)  # five blocks
        d, lam1, pi = TestInvariance.random_inputs(3, 640, True)

        def phi(kernel, rows):
            block = rows.start // 128
            if block == 1:
                time.sleep(0.2)
            if block in (1, 3):
                raise ValueError(f"block {block} failed")
            return kernel.direct_phi()
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^block 1 failed$"):
            estimators._by_blocks(d, lam1, pi, phi)
        assert threading.active_count() == threads
