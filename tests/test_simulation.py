import concurrent.futures
import json
import multiprocessing
import time
import tracemalloc

import numpy as np
import pytest

import ivbounds.crossfit as crossfit
import ivbounds.estimators as estimators
import ivbounds.simulation as simulation
from ivbounds.bounds import theta_profile
from ivbounds.cli import main
from ivbounds.crossfit import oracle_noisy_nuisance
from ivbounds.estimators import ROW_BLOCK, direct_bounds, plugin_bounds, wald_interval
from ivbounds.lse import lse_bounds
from ivbounds.simulation import (
    _ILLU_BETA,
    MARGIN_H,
    _stratum_weights,
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


class TestMarginDesign:
    def test_perfect_compliance(self):
        d = gen_margin(2000, 0)
        np.testing.assert_array_equal(d.a, d.z)

    def test_instrument_follows_propensity(self):
        d = gen_margin(200_000, 1)
        lam = margin_truth().lambda1_fn(d.x)
        for lo, hi in ((0.0, 0.33), (0.33, 0.66), (0.66, 1.0)):
            m = (d.x[:, 0] >= lo) & (d.x[:, 0] < hi)
            assert d.z[m].mean() == pytest.approx(lam[m].mean(), abs=0.01)

    def test_outcome_mean_is_half_margin(self):
        # P(Y=1 | X, A) = {A(1-X) + (1-A)X} / 2 after integrating the
        # uniform mixing variable.
        d = gen_margin(400_000, 2)
        m = (d.x[:, 0] < 0.2) & (d.a == 1)
        assert d.y[m].mean() == pytest.approx(np.mean(1 - d.x[m, 0]) / 2, abs=0.01)

    def test_truth_cells_are_conditional_laws(self):
        d = gen_margin(100, 3)
        _, pi = margin_truth().evaluate(d)
        np.testing.assert_allclose(pi.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_conditional_bounds_collapse(self):
        # Both conditional bound functions equal 1/2 - x, so the marginal
        # bounds vanish.
        x = np.linspace(0.01, 0.99, 201)[:, None]
        _, pi = margin_truth().evaluate(type("d", (), {"x": x})())
        prof = theta_profile(pi)
        np.testing.assert_allclose(prof.gamma_l, 0.5 - x[:, 0], atol=1e-12)
        np.testing.assert_allclose(prof.gamma_u, 0.5 - x[:, 0], atol=1e-12)

    def test_empirical_cells_match_truth(self):
        d = gen_margin(400_000, 4)
        m = (d.x[:, 0] > 0.4) & (d.x[:, 0] < 0.6)
        sub_z0 = m & (d.z == 0)
        emp = np.mean(d.y[sub_z0] == 1)
        truth = np.mean(d.x[sub_z0, 0] / 2)
        assert emp == pytest.approx(truth, abs=0.01)


def grid_reference(appendix_compat, n_grid=20_001):
    """Illustration integrals as means over an even X2 grid, weighted by
    P(X1): an independent reference for the exact interval sums."""
    x2 = np.linspace(-1.0, 1.0, n_grid)
    cate = _ILLU_BETA[:, 1] - _ILLU_BETA[:, 0]  # strata AT, NT, DE, CO
    out = dict.fromkeys(("lower", "upper", "ate"), 0.0)
    pooled = np.zeros((2, 2, 2))
    by_x2 = np.zeros((n_grid, 2, 2, 2))
    for x1, px1 in ((0, 0.3), (1, 0.7)):
        x = np.column_stack([np.full(n_grid, float(x1)), x2])
        pi = illustration_pi(x, appendix_compat)
        prof = theta_profile(pi)
        out["lower"] += px1 * np.mean(prof.gamma_l)
        out["upper"] += px1 * np.mean(prof.gamma_u)
        out["ate"] += px1 * np.mean(_stratum_weights(x, appendix_compat) @ cate)
        pooled += px1 * np.mean(pi, axis=0)
        by_x2 += px1 * pi
    none, part = theta_profile(pooled), theta_profile(by_x2)
    widths = {"none": (none.gamma_l, none.gamma_u),
              "x2_only": (np.mean(part.gamma_l), np.mean(part.gamma_u)),
              "full": (out["lower"], out["upper"])}
    return out, widths


# Default law: P(AT) = P(NT) = 0.005, P(DE) = 0.15, P(CO) = 0.84, so the ATE
# is 0.11725.  Compat mode has defiers and compliers only, which the
# covariates identify, so its bounds collapse onto its ATE of 0.1175.  The
# widths are checked against grid_reference below to within its grid error.
EXACT = {
    False: ({"lower": 0.1085, "upper": 0.1185, "ate": 0.11725},
            {"none": (-0.05275, 0.25725), "x2_only": (-0.05275, 0.24725)}),
    True: ({"lower": 0.1175, "upper": 0.1175, "ate": 0.1175},
           {"none": (-0.04375, 0.25625), "x2_only": (-0.04375, 0.24625)}),
}


@pytest.mark.parametrize("compat", [False, True])
class TestExactIllustrationIntegrals:
    def test_exact_values(self, compat):
        truth, widths = EXACT[compat]
        assert illustration_truth(appendix_compat=compat) == pytest.approx(
            truth, abs=1e-12)
        got = width_comparison(compat)
        for key, pair in widths.items():
            assert got[key] == pytest.approx(pair, abs=1e-12)

    def test_full_adjustment_is_truth(self, compat):
        t = illustration_truth(appendix_compat=compat)
        assert width_comparison(compat)["full"] == (t["lower"], t["upper"])

    def test_agree_with_grid_reference(self, compat):
        ref_truth, ref_widths = grid_reference(compat)
        assert illustration_truth(appendix_compat=compat) == pytest.approx(
            ref_truth, abs=1e-4)
        got = width_comparison(compat)
        for key, pair in ref_widths.items():
            assert got[key] == pytest.approx(pair, abs=1e-4)


class TestIllustrationDesign:
    def test_truth_values(self):
        t = illustration_truth()
        assert t["ate"] == pytest.approx(0.11725, abs=5e-4)
        assert t["lower"] == pytest.approx(0.1085, abs=5e-4)
        assert t["upper"] == pytest.approx(0.1185, abs=5e-4)
        assert 0.0 < t["lower"] <= t["ate"] <= t["upper"]

    def test_closed_form_cells_match_sampled_data(self):
        d = gen_illustration(400_000, 5)
        pi = illustration_pi(d.x)
        sel = (d.x[:, 0] == 1) & (np.abs(d.x[:, 1]) < 0.4) & (d.z == 1)
        emp = np.mean((d.y[sel] == 1) & (d.a[sel] == 1))
        assert emp == pytest.approx(pi[sel][:, 1, 1, 1].mean(), abs=0.01)

    def test_instrument_is_fair_coin(self):
        d = gen_illustration(100_000, 6)
        assert d.z.mean() == pytest.approx(0.5, abs=0.01)
        np.testing.assert_allclose(illustration_lambda1(d.x), 0.5)

    def test_adjusted_strictly_narrower_and_positive(self):
        w = width_comparison()
        lo_un, hi_un = w["none"]
        lo_adj, hi_adj = w["full"]
        assert lo_un < 0.0 < hi_un              # unadjusted covers 0
        assert lo_adj > 0.0                     # adjusted excludes 0
        assert hi_adj - lo_adj < hi_un - lo_un  # strictly narrower

    def test_partial_adjustment_between(self):
        w = width_comparison()
        width = {k: v[1] - v[0] for k, v in w.items()}
        assert width["full"] <= width["x2_only"] + 1e-9 <= width["none"] + 1e-9

    def test_appendix_compat_drops_tail_strata(self):
        d = gen_illustration(50_000, 7, appendix_compat=True)
        # without always/never-takers, exposure among |x2| > 0.99 follows
        # the complier/defier rule rather than being constant
        tail = d.x[:, 1] >= 0.99
        assert np.any(d.a[tail] != 1)
        t = illustration_truth(appendix_compat=True)
        assert t["ate"] != pytest.approx(illustration_truth()["ate"], abs=1e-4)

    def test_determinism(self):
        a = gen_illustration(500, 8)
        b = gen_illustration(500, 8)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)


class TestExperiments:
    def test_rmse_rows_schema(self):
        rows = rmse_experiment([500], [0.3], reps=20, seed=0)
        assert len(rows) == 1
        row = rows[0]
        for key in ("rmse_lower_direct", "rmse_lower_lse", "rmse_lower_plugin",
                    "rmse_upper_direct", "bias_lower_plugin"):
            assert key in row
        assert row["n"] == 500 and row["reps"] == 20

    def test_rmse_seed_determinism(self):
        a = rmse_experiment([500], [0.3], reps=5, seed=1)
        b = rmse_experiment([500], [0.3], reps=5, seed=1)
        assert a == b

    def test_coverage_experiment_sane(self):
        out = coverage_experiment(500, reps=40, r=0.3, seed=2)
        assert 0.0 <= out["coverage_direct"] <= 1.0
        assert 0.0 <= out["coverage_lse"] <= 1.0

    @pytest.mark.parametrize("experiment", [
        lambda reps, seed: rmse_experiment([200], [0.3], reps, seed),
        lambda reps, seed: coverage_experiment(200, reps, 0.3, seed),
    ], ids=["rmse", "coverage"])
    def test_seeds_share_no_replicate(self, experiment, monkeypatch):
        # Replicate streams once sat at seed + 1000 * rep, so replicate 1 of
        # seed 4 was replicate 0 of seed 1004.  Draws made on a worker process
        # are not seen here, so the replicates are run here in turn, and the
        # rows they give must be the pooled rows.
        pooled = [experiment(2, 4), experiment(1, 1004)]
        monkeypatch.setattr(simulation, "_run_replicates",
                            lambda fn, tasks: [fn(*task) for task in tasks])
        drawn = []

        def recording(fn):
            def recorded(*args, **kwargs):
                drawn.append(fn(*args, **kwargs))
                return drawn[-1]
            return recorded
        for name in ("gen_margin", "oracle_noisy_nuisance"):
            monkeypatch.setattr(simulation, name, recording(getattr(simulation, name)))
        assert [experiment(2, 4), experiment(1, 1004)] == pooled
        assert len(drawn) == 6  # (data, nuisances) per replicate
        (_, _, data_4, noise_4, data_1004, noise_1004) = drawn
        assert not np.array_equal(data_4.x, data_1004.x)
        assert noise_4.eps_lambda != noise_1004.eps_lambda

    def test_coverage_fields_are_floats(self):
        out = coverage_experiment(500, reps=40, r=0.3, seed=2)
        assert (out["coverage_direct"], out["coverage_lse"]) == (0.95, 1.0)
        assert type(out["coverage_direct"]) is float and type(out["coverage_lse"]) is float


class TestReplicatePool:
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_worker_count_changes_no_number(self, cpus, monkeypatch):
        # With one usable CPU the replicates run in the caller and start no pool.
        monkeypatch.setattr(crossfit, "_usable_cpus", lambda: cpus)
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                pools.append(workers)
                super().__init__(workers, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        assert rmse_experiment([60, 400], [0.1, 0.5], 3, 4) == reference_rmse(
            [60, 400], [0.1, 0.5], 3, 4)
        assert coverage_experiment(80, 5, 0.3, 4) == reference_coverage(80, 5, 0.3, 4)
        assert pools == ([] if cpus == 1 else [3, 3])

    @pytest.mark.parametrize("experiment", [
        lambda: rmse_experiment([50, 100], [0.3], 3, 0),
        lambda: coverage_experiment(50, 3, 0.3, 0),
    ], ids=["rmse", "coverage"])
    def test_replicate_error_reaches_caller(self, experiment, monkeypatch):
        def boom(*args):
            raise ValueError("boom")
        monkeypatch.setattr(simulation, "gen_margin", boom)
        with pytest.raises(ValueError, match="^boom$"):
            experiment()
        assert multiprocessing.active_children() == []

    def test_default_start_method_without_fork(self, monkeypatch):
        # Where the platform has no fork, workers start by its default method
        # (the first listed) and import the package afresh.
        monkeypatch.setattr(crossfit, "_usable_cpus", lambda: 2)  # a pool on any host
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        methods, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: methods.append(method) or get_context(method))
        assert rmse_experiment([60, 400], [0.1, 0.5], 3, 4) == reference_rmse(
            [60, 400], [0.1, 0.5], 3, 4)
        assert coverage_experiment(80, 5, 0.3, 4) == reference_coverage(80, 5, 0.3, 4)
        assert methods == ["spawn", "spawn"]
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_return(self):
        rmse_experiment([50, 100], [0.3], 3, 0)
        coverage_experiment(50, 3, 0.3, 0)
        assert multiprocessing.active_children() == []

    def test_first_failing_replicate_reaches_caller(self, monkeypatch):
        # Reps 1 and 3 fail, and rep 3 fails first on two workers; rep 1's
        # error reaches the caller, as it does serially, and no worker outlives it.
        monkeypatch.setattr(crossfit, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="^rep 1 failed$"):
            simulation._run_replicates(failing_replicate, [(50, rep) for rep in range(6)])
        assert multiprocessing.active_children() == []
        assert simulation._run_replicates(failing_replicate, [(50, 0), (50, 2)]) == [0, 2]
        assert multiprocessing.active_children() == []


def failing_replicate(n, rep):
    """A replicate that fails at rep 1 after 0.2 s and at rep 3 at once."""
    if rep == 1:
        time.sleep(0.2)
    if rep in (1, 3):
        raise ValueError(f"rep {rep} failed")
    return rep


def reference_replicate(truth, n, r, h, seed, rep):
    data = gen_margin(n, seed, rep)
    lam1, pi = oracle_noisy_nuisance(truth, n, r, h, seed, rep).evaluate(data)
    return data, lam1, pi


def reference_rmse(n_grid, r_grid, reps, seed, h=MARGIN_H):
    """The experiment as one replicate per (n, r, rep), each estimator
    building its own candidates and correction."""
    truth = margin_truth()
    rows = []
    for n in n_grid:
        for r in r_grid:
            errs = {m: [] for m in ("direct", "lse", "plugin")}
            for rep in range(reps):
                data, lam1, pi = reference_replicate(truth, n, r, h, seed, rep)
                for name, est in (
                    ("direct", direct_bounds(data, lam1, pi)),
                    ("lse", lse_bounds(data, lam1, pi, 2.0 * h * n ** r)),
                    ("plugin", plugin_bounds(data, lam1, pi)),
                ):
                    errs[name].append((est.lower, est.upper))
            row = {"n": n, "r": r, "reps": reps}
            for name, pairs in errs.items():
                arr = np.asarray(pairs)
                row[f"rmse_lower_{name}"] = float(np.sqrt(np.mean(arr[:, 0] ** 2)))
                row[f"rmse_upper_{name}"] = float(np.sqrt(np.mean(arr[:, 1] ** 2)))
                row[f"bias_lower_{name}"] = float(np.mean(arr[:, 0]))
                row[f"bias_upper_{name}"] = float(np.mean(arr[:, 1]))
            rows.append(row)
    return rows


def reference_coverage(n, reps, r, seed, h=MARGIN_H, alpha=0.05):
    truth = margin_truth()
    hit_direct = hit_lse = 0
    for rep in range(reps):
        data, lam1, pi = reference_replicate(truth, n, r, h, seed, rep)
        lo, hi = wald_interval(direct_bounds(data, lam1, pi), alpha)
        hit_direct += lo <= 0.0 <= hi
        lo, hi = wald_interval(lse_bounds(data, lam1, pi, 2.0 * h * n ** r), alpha)
        hit_lse += lo <= 0.0 <= hi
    return {"n": n, "reps": reps, "r": r,
            "coverage_direct": hit_direct / reps,
            "coverage_lse": hit_lse / reps}


@pytest.mark.parametrize("seed", [0, 4, 2**32 - 1])
class TestSharedKernelMatchesReference:
    """The RMSE experiment's rates stacked on rows and one draw per
    (n, rep) give exactly the numbers of per-(n, r, rep) loops over the
    public estimators; the coverage experiment is such a loop."""

    @pytest.mark.parametrize("n_grid, r_grid, reps", [
        ([60, 400], [0.1, 0.25, 0.5], 3),
        ([1, 150], [0.5, 0.2, 0.5], 4),  # one row, and a repeated rate
    ])
    def test_rmse(self, seed, n_grid, r_grid, reps):
        assert rmse_experiment(n_grid, r_grid, reps, seed) == reference_rmse(
            n_grid, r_grid, reps, seed)

    @pytest.mark.parametrize("n, reps, r", [(80, 6, 0.3), (700, 3, 0.5)])
    def test_coverage(self, seed, n, reps, r):
        assert coverage_experiment(n, reps, r, seed) == reference_coverage(
            n, reps, r, seed)


@pytest.mark.parametrize("seed", [0, 9])
def test_stacked_rates_change_no_number(seed):
    # Rates are stacked on rows in chunks of max(1, ROW_BLOCK // n) rates.  In
    # [500, 5000], n = 500 runs all nine rates as one chunk of 4,500 rows and
    # n = 5000 each rate as a chunk of its own.  In [1000], the grid's largest
    # and only n runs eight rates as one chunk of 8,000 rows and the ninth
    # alone.  In [3000, 9000], n = 3000 runs two rates per chunk of 6,000 rows
    # and n = 9000 each rate as a chunk of its own, across a ROW_BLOCK
    # boundary.  Run one rate at a time, each chunk holds one rate, so no rows
    # are shared.
    r_grid = [round(0.10 + 0.05 * k, 2) for k in range(9)]
    for n_grid in ([500, 5000], [1000], [3000, 9000]):
        stacked = rmse_experiment(n_grid, r_grid, reps=2, seed=seed)
        alone = [rmse_experiment([n], [r], reps=2, seed=seed)[0]
                 for n in n_grid for r in r_grid]
        bits = [{k: np.float64(v).tobytes() for k, v in row.items()} for row in stacked]
        assert bits == [{k: np.float64(v).tobytes() for k, v in row.items()}
                        for row in alone], n_grid


def test_replicate_traced_peak_grows_little_per_row():
    # One rate's nuisances, its tiled rows and the block loop's joined
    # contributions; a whole-chunk kernel kept about 625 traced bytes per row.
    peaks = []
    for n in (4 * ROW_BLOCK, 16 * ROW_BLOCK):
        tracemalloc.start()
        try:
            simulation._rmse_replicate(n, 0, r_grid=[0.3], seed=0, h=MARGIN_H)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (12 * ROW_BLOCK) <= 400


def test_replicate_stacks_rates_up_to_one_block(monkeypatch):
    # At n = 1000 a chunk holds ROW_BLOCK // n = 8 rates, so nine rates take
    # two kernels: one over 8,000 rows and one over 1,000.
    kernels = []
    kernel = estimators.BoundKernel
    monkeypatch.setattr(estimators, "BoundKernel",
                        lambda data, *a: kernels.append(data.n) or kernel(data, *a))
    r_grid = [round(0.10 + 0.05 * k, 2) for k in range(9)]
    simulation._rmse_replicate(1000, 0, r_grid=r_grid, seed=0, h=MARGIN_H)
    assert kernels == [8000, 1000]


class TestDesignChecks:
    @pytest.mark.parametrize("n_grid, r_grid, reps", [
        ([100], [0.3], 0), ([100, 0], [0.3], 2), ([-5], [0.3], 2),
        ([100], [0.0], 2), ([100], [0.3, 0.6], 2), ([100], [], 2), ([], [0.3], 2),
    ])
    def test_rmse_rejects_before_any_replicate(self, n_grid, r_grid, reps, monkeypatch):
        monkeypatch.setattr(simulation, "gen_margin", None)  # any replicate fails
        with pytest.raises(ValueError):
            rmse_experiment(n_grid, r_grid, reps, seed=0)

    @pytest.mark.parametrize("n, reps, r", [(100, 0, 0.3), (0, 2, 0.3), (100, 2, 0.7)])
    def test_coverage_rejects_before_any_replicate(self, n, reps, r, monkeypatch):
        monkeypatch.setattr(simulation, "gen_margin", None)
        with pytest.raises(ValueError):
            coverage_experiment(n, reps, r, seed=0)

    @pytest.mark.parametrize("flags", [
        ["--reps", "0"], ["--n-grid", "0"], ["--n-grid", "500,-1"],
        ["--r-grid", "0.3,0.7"], ["--r-grid", "0"], ["--seed", str(2**32)],
        ["--seed", "-1"],
    ])
    def test_simulate_exits_2_before_any_replicate(self, flags, capsys, monkeypatch):
        # A replicate runs on a worker process, so it announces itself by an
        # exception the CLI does not catch rather than by a call recorded here.
        def replicate_ran(*args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(simulation, "gen_margin", replicate_ran)
        assert main(["simulate", "--reps", "1", "--n-grid", "20", *flags]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
