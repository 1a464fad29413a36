"""Acceptance suite: one test per criterion, named so the verbose pytest
output gives one pass/fail line each."""

import time

import numpy as np
import pytest

from ivbounds.bounds import (
    lp_sharp_bounds,
    natural_bounds,
    response_type_ate,
    response_type_pi,
    theta_lower,
    theta_profile,
    theta_upper,
)
from ivbounds.continuous import (
    OutcomeTransform,
    averaged_variance,
    continuous_bounds,
    threshold_mean_estimate,
)
from ivbounds.crossfit import ClosedFormNuisance, cross_fit
from ivbounds.estimators import direct_bounds, wald_interval
from ivbounds.learners import parse_learner_spec
from ivbounds.lse import lse, lse_grad, lse_hess
from ivbounds.simulation import (
    coverage_experiment,
    gen_illustration,
    gen_margin,
    illustration_lambda1,
    illustration_pi,
    illustration_truth,
    margin_truth,
    rmse_experiment,
    width_comparison,
)


def test_criterion_1_lp_tightness_oracle():
    """Closed-form bounds equal the LP sharpness oracle on 1000 random laws."""
    rng = np.random.default_rng(20260826)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        q = rng.dirichlet(np.ones(16))
        pi = response_type_pi(q)
        prof = theta_profile(pi)
        lp = lp_sharp_bounds(pi)
        assert lp is not None
        worst = max(worst, abs(prof.gamma_l - lp[0]), abs(prof.gamma_u - lp[1]))
        ate = response_type_ate(q)
        assert prof.gamma_l - 1e-9 <= ate <= prof.gamma_u + 1e-9
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_2_natural_bound_identity():
    """Natural bounds equal the first candidates exactly and sandwich the
    sharp bounds."""
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pi = response_type_pi(rng.dirichlet(np.ones(16)))
        bl, bu = natural_bounds(pi)
        assert bl == theta_lower(pi)[0]   # exact: same arithmetic path
        assert bu == theta_upper(pi)[0]
        prof = theta_profile(pi)
        assert bl <= prof.gamma_l + 1e-12
        assert prof.gamma_l <= prof.gamma_u + 1e-12
        assert prof.gamma_u <= bu + 1e-12


def test_criterion_3_margin_design_truth_and_coverage():
    """With exact nuisances the direct estimates sit within 4 se of the true
    value 0 at n = 5000, and the 95% Wald interval covers 0 at rate >= 0.94
    over 500 replications at n = 2000."""
    truth = margin_truth()
    data = gen_margin(5000, 20260826)
    lam1, pi = truth.evaluate(data)
    est = direct_bounds(data, lam1, pi)
    assert abs(est.lower) <= 4.0 * est.se_lower
    assert abs(est.upper) <= 4.0 * est.se_upper

    hits = 0
    for rep in range(500):
        d = gen_margin(2000, 31_000 + rep)
        lam1, pi = truth.evaluate(d)
        lo, hi = wald_interval(direct_bounds(d, lam1, pi))
        hits += lo <= 0.0 <= hi
    assert hits / 500 >= 0.94


def test_criterion_4_rmse_orderings():
    """RMSE behavior across the nuisance-rate grid: plug-in degrades as
    n^-r at small r, the robust estimators plateau for r >= 0.25 at
    n = 5000, and they beat the plug-in at moderate rates."""
    start = time.time()
    r_grid = [round(0.10 + 0.05 * k, 2) for k in range(9)]
    rows = rmse_experiment([500, 1000, 5000], r_grid, reps=500, seed=4)
    table = {(row["n"], row["r"]): row for row in rows}

    # (a) plug-in RMSE tracks the imposed nuisance rate n^{-r} at small r
    for r in (0.10, 0.15):
        ratio = (table[(5000, r)]["rmse_lower_plugin"]
                 / table[(500, r)]["rmse_lower_plugin"])
        assert 0.5 * 10 ** (-r) <= ratio <= 1.5 * 10 ** (-r)

    # (b) direct and smooth estimators plateau for r >= 0.25 at n = 5000
    for method in ("direct", "lse"):
        anchor = table[(5000, 0.50)][f"rmse_lower_{method}"]
        for r in (0.25, 0.30, 0.35, 0.40, 0.45):
            assert table[(5000, r)][f"rmse_lower_{method}"] <= 1.5 * anchor

    # (c) robust estimators beat the plug-in at moderate nuisance rates
    for r in (0.15, 0.20):
        row = table[(5000, r)]
        assert row["rmse_lower_direct"] < row["rmse_lower_plugin"]
        assert row["rmse_lower_lse"] < row["rmse_lower_plugin"]

    assert time.time() - start < 15 * 60


def test_criterion_5_illustration_reproduction():
    """Illustration design: ATE ~ 0.1185 +- 0.002, covariate adjustment
    strictly narrows the population bounds to an interval excluding 0, and
    the estimated interval covers the ATE while excluding 0 in >= 90% of
    100 seeded replications (n = 5000, K = 10)."""
    truth = illustration_truth()
    assert truth["ate"] == pytest.approx(0.1185, abs=0.002)
    widths = width_comparison()
    lo_un, hi_un = widths["none"]
    lo_adj, hi_adj = widths["full"]
    assert lo_un < 0.0 < hi_un
    assert lo_adj > 0.0
    assert hi_adj - lo_adj < hi_un - lo_un
    assert lo_adj <= truth["ate"] <= hi_adj

    pi_spec = parse_learner_spec("histogram")
    lam_spec = parse_learner_spec("known:0.5")
    good = 0
    for rep in range(100):
        data = gen_illustration(5000, 50_000 + rep)
        nuis = cross_fit(data, 10, pi_spec, lam_spec, seed=50_000 + rep)
        lam1, pi = nuis.evaluate(data)
        lo, hi = wald_interval(direct_bounds(data, lam1, pi))
        good += (lo <= truth["ate"] <= hi) and (lo > 0.0)
    assert good >= 90


def test_criterion_6_lse_kernel():
    """Smoothing kernel: strict max domination within log(8)/t, and
    finite-difference agreement of gradient and Hessian."""
    rng = np.random.default_rng(6)
    v = rng.standard_normal((10_000, 8))
    t = 5.0
    g = lse(v, t)
    m = v.max(axis=1)
    assert np.all(m < g)
    assert np.all(g <= m + np.log(8) / t)

    for i in range(20):
        x = v[i]
        grad = lse_grad(x, t)
        hess = lse_hess(x, t)
        eps = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd_g = (lse(x + e, t) - lse(x - e, t)) / (2 * eps)
            assert abs(grad[j] - fd_g) <= 1e-6
        eps = 1e-5
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd_h = (lse_grad(x + e, t) - lse_grad(x - e, t)) / (2 * eps)
            assert np.max(np.abs(hess[j] - fd_h)) <= 1e-5
        np.testing.assert_allclose(hess.sum(axis=1), 0.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10


def test_criterion_7_continuous_binary_consistency():
    """Binary data routed through the continuous pipeline with m = 1
    reproduces the binary pipeline to 1e-12."""
    data = gen_illustration(2000, 7)
    nuis = ClosedFormNuisance(illustration_lambda1, illustration_pi)
    lam1, pi = nuis.evaluate(data)
    binary = direct_bounds(data, lam1, pi)

    class Pseudo:
        def evaluate(self, d):
            l1, p = nuis.evaluate(d)
            return l1, p[:, ::-1]  # pseudo outcome is 1 - y for binary data

    cont = continuous_bounds(data, Pseudo(), m=1, seed=7,
                             transform=OutcomeTransform(0.0, 1.0))
    assert abs(cont.lower - binary.lower) <= 1e-12
    assert abs(cont.upper - binary.upper) <= 1e-12
    assert abs(cont.var_lower - binary.var_lower) <= 1e-12
    assert abs(cont.var_upper - binary.var_upper) <= 1e-12


def test_criterion_8_randomized_threshold_variance_law():
    """Empirical variance of the m-averaged randomized-threshold mean
    matches (1/n)(sigma^2 + (mu(1-mu) - sigma^2)/m) within 15%."""
    n, reps = 200, 2000
    laws = {
        "bernoulli": (0.3, 0.3 * 0.7),
        "point-mass": (0.4, 0.0),
        "uniform": (0.5, 1.0 / 12.0),
    }
    rng = np.random.default_rng(8)
    for name, (mu, sigma2) in laws.items():
        for m in (1, 20):
            ests = []
            for rep in range(reps):
                if name == "bernoulli":
                    t_vals = (rng.random(n) < mu).astype(float)
                elif name == "point-mass":
                    t_vals = np.full(n, mu)
                else:
                    t_vals = rng.random(n)
                ests.append(threshold_mean_estimate(t_vals, m, seed=80_000 + rep))
            emp = float(np.var(ests))
            assert emp == pytest.approx(averaged_variance(mu, sigma2, n, m),
                                        rel=0.15), (name, m)


@pytest.mark.skip(reason="optional criterion: public schooling-returns extract "
                         "not available in this environment")
def test_criterion_9_card_data_qualitative_replication():
    pass
