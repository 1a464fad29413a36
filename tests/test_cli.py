import argparse
import concurrent.futures
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ivbounds
import ivbounds.cli as cli
import ivbounds.crossfit as crossfit
import ivbounds.estimators as estimators
from ivbounds.cli import main
from ivbounds.continuous import continuous_bounds
from ivbounds.data import ColumnMapping, load_csv
from ivbounds.estimators import wald_interval
from ivbounds.learners import FitError, KnnFrequency, parse_learner_spec
from ivbounds.simulation import gen_illustration


def write_illustration_csv(path, n=800, seed=0):
    d = gen_illustration(n, seed)
    lines = ["x1,x2,z,a,y"]
    for i in range(d.n):
        lines.append(f"{d.x[i,0]:.6f},{d.x[i,1]:.6f},{d.z[i]},{d.a[i]},{int(d.y[i])}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_continuous_csv(path, n=400, seed=3, bad_row=None):
    d = gen_illustration(n, seed)
    rng = np.random.default_rng(1)
    lines = ["x1,x2,z,a,y"]
    for i in range(d.n):
        yc = 2.0 * d.y[i] + rng.random()  # bounded continuous outcome
        y = "nan" if i + 1 == bad_row else f"{yc:.5f}"
        lines.append(f"{d.x[i,0]:.6f},{d.x[i,1]:.6f},{d.z[i]},{d.a[i]},{y}")
    path.write_text("\n".join(lines) + "\n")
    return path


BOUNDS_ARGS = ["--covariates", "x1,x2", "--instrument", "z",
               "--exposure", "a", "--outcome", "y"]


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports this ivbounds."""
    src = str(Path(ivbounds.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_fresh(code):
    """Run ``code`` in a fresh interpreter and return its stdout."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, check=True).stdout


def test_report_does_not_depend_on_blas_threads(tmp_path):
    # Above about 10k rows a multithreaded BLAS dot splits its sum across
    # threads, so a mean taken by one moved in its last digits with the
    # thread count.
    csv = write_illustration_csv(tmp_path / "d.csv", n=20_000)
    reports = []
    for threads in ("1", "2"):
        env = fresh_env(OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "ivbounds.cli", "bounds", str(csv),
                               *BOUNDS_ARGS, "--method", "direct"],
                              env=env, capture_output=True, text=True, check=True)
        reports.append(done.stdout)
    assert reports[0] == reports[1]


class TestBoundsCommand:
    def test_direct_end_to_end(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv")
        rc, report = run_json(capsys, [
            "bounds", str(csv), *BOUNDS_ARGS,
            "--method", "direct", "--folds", "3", "--seed", "7",
            "--learner-lambda", "known:0.5"])
        assert rc == 0
        assert report["schema_version"] == 1
        assert report["n"] == 800
        assert report["interval"]["lo"] <= report["lower"]
        assert report["upper"] <= report["interval"]["hi"]
        assert sum(report["selection_frequencies"]["lower"]) == pytest.approx(1.0)
        assert report["config"]["seed"] == 7

    def test_seed_determinism(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv")
        argv = ["bounds", str(csv), *BOUNDS_ARGS, "--seed", "3", "--folds", "3"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a == b

    def test_lse_records_temperature_and_pad(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv", n=3010, seed=1)
        rc, report = run_json(capsys, [
            "bounds", str(csv), *BOUNDS_ARGS, "--method", "lse",
            "--folds", "3", "--learner-lambda", "known:0.5"])
        assert rc == 0
        t = report["method_metadata"]["t"]
        assert t == pytest.approx(100 * 3010 ** 0.25)
        assert t == pytest.approx(740.7, abs=0.1)
        pad = np.log(8) / t
        assert pad == pytest.approx(0.00281, abs=1e-5)
        # the conservative interval is wider than the Wald one by the pad
        z = 1.959963984540054
        se_l = np.sqrt(report["var_lower"] / report["n"])
        assert report["interval"]["lo"] == pytest.approx(
            report["lower"] - pad - z * se_l, abs=1e-10)

    def test_weighted_run_differs(self, tmp_path, capsys):
        d = gen_illustration(600, 2)
        lines = ["x1,x2,z,a,y,wt"]
        rng = np.random.default_rng(0)
        wts = rng.integers(1, 5, d.n)
        for i in range(d.n):
            lines.append(f"{d.x[i,0]:.6f},{d.x[i,1]:.6f},{d.z[i]},{d.a[i]},"
                         f"{int(d.y[i])},{wts[i]}")
        csv = tmp_path / "w.csv"
        csv.write_text("\n".join(lines) + "\n")
        argv = ["bounds", str(csv), *BOUNDS_ARGS, "--folds", "3", "--seed", "1"]
        _, plain = run_json(capsys, argv)
        _, weighted = run_json(capsys, argv + ["--weights-col", "wt"])
        assert weighted["lower"] != pytest.approx(plain["lower"], abs=1e-12)

    def test_continuous_method(self, tmp_path, capsys):
        csv = write_continuous_csv(tmp_path / "c.csv")
        rc, report = run_json(capsys, [
            "bounds", str(csv), *BOUNDS_ARGS, "--method", "continuous",
            "--m", "5", "--folds", "3", "--seed", "2",
            "--learner-lambda", "known:0.5"])
        assert rc == 0
        assert report["method"] == "continuous-direct"
        assert report["method_metadata"]["m"] == 5

    def test_clamp_flag(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv", n=200)
        rc, report = run_json(capsys, [
            "bounds", str(csv), *BOUNDS_ARGS, "--folds", "3", "--clamp"])
        assert rc == 0
        assert -1.0 <= report["interval"]["lo"] and report["interval"]["hi"] <= 1.0

    def test_t_flag_validation(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv", n=200)
        rc = main(["bounds", str(csv), *BOUNDS_ARGS, "--t", "50"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"

    def test_load_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,z,a,y\n0,0,2,0,0\n")
        rc = main(["bounds", str(bad), *BOUNDS_ARGS])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "non-binary"

    def test_non_finite_outcome_exits_2(self, tmp_path, capsys):
        csv = write_continuous_csv(tmp_path / "c.csv", bad_row=17)
        rc = main(["bounds", str(csv), *BOUNDS_ARGS, "--method", "continuous",
                   "--m", "2", "--folds", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "non-finite"
        assert "row 17" in err["message"]

    def test_non_positive_weight_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "w.csv"
        csv.write_text("x1,x2,z,a,y,wt\n0,0,0,0,0,1\n0,1,1,1,1,-2\n")
        rc = main(["bounds", str(csv), *BOUNDS_ARGS, "--weights-col", "wt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "non-positive-weight",
                       "message": "row 2: column 'wt' value '-2' is not positive"}

    @pytest.mark.parametrize("flags", [
        ["--method", "direct", "--t", "2"],
        ["--method", "continuous", "--t", "2"],
        ["--method", "direct", "--m", "5"],  # --m was ignored outside continuous mode
        ["--method", "lse", "--m", "20"],
        ["--learner-pi", "forest"],
        ["--learner-lambda", "known:half"],
    ])
    def test_flags_checked_before_reading_input(self, tmp_path, capsys, flags):
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS, *flags])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])  # inf gave NaN bounds, exit 0
    def test_t_must_be_positive_and_finite(self, tmp_path, capsys, t):
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS,
                   "--method", "lse", "--t", t])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-config",
                       "message": f"--t {float(t)} is not positive and finite"}

    def test_t_sets_the_temperature(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv", n=300)
        rc, report = run_json(capsys, ["bounds", str(csv), *BOUNDS_ARGS, "--method", "lse",
                                       "--folds", "3", "--t", "7.5"])
        assert rc == 0
        assert report["method_metadata"] == {"t": 7.5, "t_rule": "fixed"}
        assert (report["config"]["t"], report["config"]["m"]) == (7.5, None)

    def test_t_rule_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "data.csv", *BOUNDS_ARGS, "--method", "lse", "--t-rule", "fixed"])
        assert exc.value.code == 2
        assert "--t-rule" in capsys.readouterr().err

    def test_overflowing_weight_total_exits_2(self, tmp_path, capsys, monkeypatch):
        # Every weight is finite, but their sum is not: the normalized weights
        # were all 0, which gave bounds and interval [0, 0] with exit 0.
        d = gen_illustration(400, 0)
        csv = tmp_path / "w.csv"
        csv.write_text("x1,x2,z,a,y,wt\n" + "".join(
            f"{d.x[i, 0]},{d.x[i, 1]},{d.z[i]},{d.a[i]},{int(d.y[i])},1e306\n"
            for i in range(d.n)))

        def no_fits(*args, **kwargs):
            raise AssertionError("fitted before the weights were checked")
        monkeypatch.setattr(cli, "cross_fit", no_fits)
        assert main(["bounds", str(csv), *BOUNDS_ARGS, "--weights-col", "wt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weights sum" in json.loads(captured.err)["message"]
        # 179 weights of 1e306 sum below the largest float (1.797e308); 180 do not.
        assert json.loads(captured.err) == {
            "error": "weight-total-overflow",
            "message": "row 180: weights sum to more than the largest float"}

    @pytest.mark.parametrize("flags", [
        ["--folds", "1"],
        ["--eps", "0"],
        ["--eps", "0.5"],
        ["--method", "continuous", "--m", "0"],
        ["--learner-lambda", "known:1.5"],
        ["--learner-lambda", "known:0.005"],  # outside [eps, 1-eps]
        ["--learner-lambda", "known:0.2", "--eps", "0.3"],
        ["--seed", str(2**32)],
        ["--seed", "-1"],
    ])
    def test_fit_settings_checked_before_reading_input(self, tmp_path, capsys, flags):
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS, *flags])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    @pytest.mark.parametrize("flags", [
        ["--learner-pi", "softmax:3"],
        ["--learner-pi", "constant:7"],
        ["--learner-lambda", "logistic:x"],
        ["--learner-pi", "histogram:-1"],
        ["--learner-pi", "histogram:2.5"],
        ["--learner-pi", "knn:0"],
        ["--learner-pi", "knn:-3"],
        ["--learner-lambda", "knn:x"],
    ])
    def test_learner_arguments_checked_before_reading_input(self, tmp_path, capsys,
                                                             flags):
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS, *flags])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert flags[1] in err["message"]

    @pytest.mark.parametrize("where", ["header", "before a bad cell"])
    def test_oversized_field_exits_2(self, tmp_path, capsys, where):
        big = '"' + "x" * 200_000 + '"'
        if where == "header":
            text = f"x1,x2,z,a,y,{big}\n0,0,0,0,0,t\n"
        else:
            text = f"x1,x2,z,a,y,note\n0,0,0,0,0,{big}\n0,0,5,0,0,t\n"
        csv = tmp_path / "big.csv"
        csv.write_text(text)
        assert main(["bounds", str(csv), *BOUNDS_ARGS]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "field-too-large"
        assert err["message"].startswith("row 0:" if where == "header" else "row 1:")

    @pytest.mark.parametrize("delta", ["1.5", "1", "0", "-0.1"])
    def test_delta_checked_before_reading_input(self, tmp_path, capsys, delta):
        # A delta in (1, 2) gave a negative critical value and an interval
        # inside the point bounds, with exit 0.
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS, "--delta", delta])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert "--delta" in err["message"]

    @pytest.mark.parametrize("learner", ["--learner-pi", "--learner-lambda"])
    def test_knn_without_covariates_exits_2(self, tmp_path, capsys, learner):
        # A traceback and exit 1 from SciPy's first neighbour query.
        csv = write_illustration_csv(tmp_path / "d.csv", n=200)
        rc = main(["bounds", str(csv), "--covariates", "", "--instrument", "z",
                   "--exposure", "a", "--outcome", "y", learner, "knn:5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "invalid-config", "message": "knn needs at least one covariate column"}

    @pytest.mark.parametrize("flags,repeated", [
        (["--covariates", "x1,y"], ["y"]),  # gave (-0.0316, 0.0416) with exit 0
        (["--covariates", "x1,z"], ["z"]),
        (["--exposure", "z"], ["z"]),  # gave crossed bounds with exit 0
        (["--weights-col", "y"], ["y"]),
        (["--covariates", "x1,x1"], ["x1"]),
    ])
    def test_column_in_two_roles_rejected_before_reading_input(self, tmp_path, capsys,
                                                              flags, repeated):
        rc = main(["bounds", str(tmp_path / "absent.csv"), *BOUNDS_ARGS, *flags])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "invalid-config",
            "message": f"columns mapped to more than one role: {repeated}"}

    @pytest.mark.parametrize("method", ["direct", "lse"])
    def test_crossed_bounds_warn(self, tmp_path, capsys, method):
        # Z moves Y directly (Y = Z, A independent of Z), which no IV law allows.
        rng = np.random.default_rng(0)
        z, a, x = rng.random(400) < 0.5, rng.random(400) < 0.2, rng.random(400)
        csv = tmp_path / "crossed.csv"
        csv.write_text("x,z,a,y\n" + "".join(
            f"{float(x[i])!r},{int(z[i])},{int(a[i])},{int(z[i])}\n" for i in range(400)))
        rc, report = run_json(capsys, [
            "bounds", str(csv), "--covariates", "x", "--instrument", "z", "--exposure", "a",
            "--outcome", "y", "--folds", "3", "--method", method])
        assert rc == 0
        assert report["warnings"] == ["estimated lower bound exceeds estimated upper bound"]
        assert report["lower"] > report["upper"]

    def test_output_file(self, tmp_path, capsys):
        csv = write_illustration_csv(tmp_path / "d.csv", n=300)
        out = tmp_path / "report.json"
        rc = main(["bounds", str(csv), *BOUNDS_ARGS, "--folds", "3",
                   "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n"] == 300


class TestSimplexDiagnostic:
    @settings(max_examples=200, deadline=None)
    @given(pi=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2), st.just(2),
                                               st.just(2)),
                         elements=st.floats(0.0, 1.0) | st.floats(-1e6, 1e6)))
    def test_property_equals_the_strided_sum(self, pi):
        want = np.abs(pi.sum(axis=(1, 2)) - 1.0).max()
        assert np.float64(cli._simplex_max_violation(pi)).tobytes() == want.tobytes()


class TestContinuousReuse:
    K, M, SEED = 3, 4, 5
    LEARNERS = ["--learner-pi", "knn:20", "--learner-lambda", "softmax"]

    def run(self, capsys, csv):
        return run_json(capsys, [
            "bounds", str(csv), *BOUNDS_ARGS, "--method", "continuous",
            "--m", str(self.M), "--folds", str(self.K), "--seed", str(self.SEED),
            *self.LEARNERS])

    def test_report_equals_refitting_every_replicate(self, tmp_path, capsys):
        csv = write_continuous_csv(tmp_path / "c.csv")
        rc, report = self.run(capsys, csv)
        assert rc == 0
        data = load_csv(csv, ColumnMapping(["x1", "x2"], "z", "a", "y"),
                        "bounded-continuous")
        pi, lam = (parse_learner_spec(v) for v in self.LEARNERS[1::2])
        fresh = SimpleNamespace(  # a new cross-fit for every replicate
            evaluate=lambda aug: crossfit.cross_fit(aug, self.K, pi, lam,
                                                    self.SEED).evaluate(aug))
        est = continuous_bounds(data, fresh, self.M, self.SEED)
        lo, hi = wald_interval(est, 0.05)
        assert (report["lower"], report["upper"]) == (est.lower, est.upper)
        assert (report["var_lower"], report["var_upper"]) == (est.var_lower,
                                                              est.var_upper)
        assert (report["interval"]["lo"], report["interval"]["hi"]) == (lo, hi)

    def test_propensity_fit_once_per_fold(self, tmp_path, capsys, monkeypatch):
        calls = {"fit_propensity": 0, "fit_joint": 0}

        def counting(name):
            fn = getattr(crossfit, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        for name in calls:
            monkeypatch.setattr(crossfit, name, counting(name))
        rc, _ = self.run(capsys, write_continuous_csv(tmp_path / "c.csv"))
        assert rc == 0
        assert calls == {"fit_propensity": self.K, "fit_joint": 2 * self.K * self.M}

    def test_constant_outcome_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        fit = crossfit.fit_propensity
        monkeypatch.setattr(crossfit, "fit_propensity",
                            lambda *args, **kw: fits.append(1) or fit(*args, **kw))
        d = gen_illustration(100, 0)
        csv = tmp_path / "c.csv"
        csv.write_text("x1,x2,z,a,y\n" + "".join(
            f"{d.x[i, 0]},{d.x[i, 1]},{d.z[i]},{d.a[i]},3.5\n" for i in range(d.n)))
        rc = main(["bounds", str(csv), *BOUNDS_ARGS, "--method", "continuous",
                   "--folds", str(self.K), *self.LEARNERS])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "invalid-config", "message": "outcome range must be positive"}
        assert fits == []

    @pytest.mark.parametrize("column", ["z", "w"])
    def test_reuse_rejects_other_rows(self, column):
        data = gen_illustration(300, 4)
        spec = parse_learner_spec("histogram")
        nuis = crossfit.cross_fit(data, 3, spec, spec, seed=4)
        same_rows = data.replace_outcome(1.0 - data.y, "binary")
        assert nuis.evaluate(same_rows)[0] is nuis.lam1
        other = data.subset(np.arange(data.n))
        if column == "z":
            other.z[0] = 1 - other.z[0]
        else:
            other.w[0] = 2.0
        with pytest.raises(ValueError, match="fitted on"):
            nuis.evaluate(other)

    def test_propensity_predicted_once_per_fold(self, tmp_path, capsys, monkeypatch):
        # The out-of-fold propensity ignores the outcome, so cross_fit
        # predicts it once and later replicates reuse it.  Each joint arm
        # keeps the neighbours it finds, so it is searched once: a search
        # stores a new query tuple, a recount keeps the kept one.
        calls = {2: 0, 4: 0}
        searched = set()
        predict = KnnFrequency.predict_proba

        def counted(model, x):
            calls[model.n_classes] += 1
            kept = model.last_query_
            out = predict(model, x)
            if model.n_classes == 4 and model.last_query_ is not kept:
                searched.add(id(model.last_query_))
            return out
        monkeypatch.setattr(KnnFrequency, "predict_proba", counted)
        rc, _ = run_json(capsys, [
            "bounds", str(write_continuous_csv(tmp_path / "c.csv")), *BOUNDS_ARGS,
            "--method", "continuous", "--m", str(self.M), "--folds", str(self.K),
            "--learner-pi", "knn:20", "--learner-lambda", "knn:20"])
        assert rc == 0
        assert calls == {2: self.K, 4: 2 * self.K * self.M}
        assert len(searched) == 2 * self.K


class TestFitPool:
    """The cross-fit's fits on a thread pool, which small data takes once
    ``POOL_MIN_ROWS`` is lowered to 0."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """Set (usable CPUs, POOL_MIN_ROWS); returns the worker counts of the pools made."""
        made = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                made.append(workers)
                super().__init__(workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)

        def use(cpus, min_rows=crossfit.POOL_MIN_ROWS):
            monkeypatch.setattr(crossfit, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(crossfit, "POOL_MIN_ROWS", min_rows)
            return made
        return use

    def requests(self, tmp_path):
        d = gen_illustration(600, 2)
        wts = np.random.default_rng(0).exponential(size=d.n) + 0.05
        binary = tmp_path / "b.csv"
        binary.write_text("x1,x2,z,a,y,wt\n" + "".join(
            f"{d.x[i, 0]},{d.x[i, 1]},{d.z[i]},{d.a[i]},{int(d.y[i])},{float(wts[i])!r}\n"
            for i in range(d.n)))
        continuous = write_continuous_csv(tmp_path / "c.csv")
        bounds = ["bounds", str(binary), *BOUNDS_ARGS, "--folds", "3"]
        return [bounds + ["--method", "direct"], bounds + ["--method", "lse"],
                bounds + ["--method", "lse", "--weights-col", "wt"],
                ["bounds", str(continuous), *BOUNDS_ARGS, "--method", "continuous", "--m", "3",
                 "--learner-pi", "knn:20", "--learner-lambda", "softmax"],
                ["illustrate", "--n", "1000", "--folds", "4"]]

    def reports(self, capsys, argvs):
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    def test_reports_do_not_depend_on_the_thread_count(self, tmp_path, capsys, pool):
        argvs = self.requests(tmp_path)
        made = pool(2)
        serial = self.reports(capsys, argvs)
        assert made == []  # below POOL_MIN_ROWS
        pool(1, 0)
        assert self.reports(capsys, argvs) == serial
        assert made == []  # one CPU: the fits run in the caller
        pool(2, 0)
        assert self.reports(capsys, argvs) == serial
        # cross_fit and evaluate, per request; continuous mode evaluates per replicate
        assert made == [2] * (2 + 2 + 2 + (1 + 3) + 2)

    def test_kernel_blocks_do_not_depend_on_the_thread_count(self, tmp_path, capsys, pool,
                                                              monkeypatch):
        argvs = self.requests(tmp_path)[:3]  # direct, lse and weighted lse
        made = pool(2)
        whole = self.reports(capsys, argvs)  # 600 rows: one block
        monkeypatch.setattr(estimators, "ROW_BLOCK", 128)  # five blocks
        assert self.reports(capsys, argvs) == whole
        assert made == []
        pool(1, 0)
        assert self.reports(capsys, argvs) == whole
        assert made == []
        pool(2, 0)
        assert self.reports(capsys, argvs) == whole
        assert made == [2] * 3 * 2  # cross_fit and evaluate, per request: the kernel makes none

    @pytest.mark.parametrize("name", ["fit_propensity", "fit_joint"])
    def test_first_failing_fold_reaches_caller(self, tmp_path, capsys, monkeypatch, pool,
                                               name):
        # Folds 1 and 3 fail, and fold 3 fails first on two threads; fold 1's
        # error reaches the caller, as it does serially.
        csv = write_illustration_csv(tmp_path / "d.csv", n=400)
        folds = crossfit.fold_assignment(crossfit.rng_stream(0, 0).random(400), 4)
        fit = getattr(crossfit, name)

        def failing(*args):
            k = folds[~args[-1]][0]  # the rows mask excludes fold k
            if k == 1:
                time.sleep(0.05)
            if k in (1, 3):
                raise FitError(f"fold {k} failed")
            return fit(*args)
        monkeypatch.setattr(crossfit, name, failing)
        errors = []
        for cpus, min_rows in ((2, crossfit.POOL_MIN_ROWS), (2, 0)):
            made = pool(cpus, min_rows)
            threads = threading.active_count()
            assert main(["bounds", str(csv), *BOUNDS_ARGS, "--folds", "4"]) == 2
            assert threading.active_count() == threads
            errors.append(json.loads(capsys.readouterr().err))
        assert made == [2] * (1 if name == "fit_propensity" else 2)  # one per fitting stage
        assert errors == [{"error": "fit-error", "message": "fold 1 failed"}] * 2


class TestOtherCommands:
    def test_simulate_emits_json_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        rc, payload = run_json(capsys, [
            "simulate", "--n-grid", "500", "--r-grid", "0.3", "--reps", "5",
            "--csv", str(out_csv)])
        assert rc == 0
        assert payload["rows"][0]["n"] == 500
        header = out_csv.read_text().splitlines()[0]
        assert "rmse_lower_direct" in header

    def test_illustrate_reports_truth(self, capsys):
        rc, payload = run_json(capsys, ["illustrate", "--n", "1000", "--folds", "3"])
        assert rc == 0
        assert payload["truth"]["ate"] == pytest.approx(0.11725, abs=5e-4)
        assert set(payload["population_bounds_by_adjustment"]) == {
            "none", "x2_only", "full"}

    @pytest.mark.parametrize("command", [
        ["bounds", "data.csv", *BOUNDS_ARGS], ["simulate"]])
    def test_threads_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--reps", "1", "--n-grid", "20", "--r-grid", "0.3"],
        ["illustrate", "--n", "200", "--folds", "2"],
        ["check", "--laws", "5"],
    ])
    def test_seed_outside_32_bits_rejected(self, command, capsys):
        assert main([*command, "--seed", str(2**32 + 5)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert "2**32" in err["message"]

    @pytest.mark.parametrize("delta", ["1.5", "1", "0", "-0.1"])
    def test_illustrate_checks_delta_before_drawing(self, monkeypatch, capsys, delta):
        def no_draws(*args, **kwargs):
            raise AssertionError("data drawn before --delta was checked")
        monkeypatch.setattr(cli, "gen_illustration", no_draws)
        assert main(["illustrate", "--n", "200", "--folds", "2", "--delta", delta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-config"
        assert "--delta" in err["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "need n >= 2K observations"),
        (["--n", "19", "--folds", "10"], "need n >= 2K observations"),
        (["--folds", "1"], "need at least 2 folds"),
    ])
    def test_illustrate_checks_n_and_folds_before_drawing(self, monkeypatch, capsys,
                                                          flags, message):
        # --n 0 died with an uncaught IndexError once the data were drawn.
        def no_work(*args, **kwargs):
            raise AssertionError("work done before --n and --folds were checked")
        for name in ("illustration_truth", "width_comparison", "gen_illustration"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(["illustrate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "invalid-config", "message": message}

    @pytest.mark.parametrize("command", [
        ["bounds", "d.csv", *BOUNDS_ARGS], ["illustrate", "--n", "200", "--folds", "2"]])
    def test_known_joint_cells_rejected_before_work(self, monkeypatch, capsys, command):
        # bounds loaded the CSV and fitted fold 0's propensity, and illustrate
        # computed the truth and drew its data, before "known" failed.
        def no_work(*args, **kwargs):
            raise AssertionError("work done before --learner-pi was checked")
        for name in ("load_csv", "illustration_truth", "width_comparison",
                     "gen_illustration"):
            monkeypatch.setattr(cli, name, no_work)
        assert main([*command, "--learner-pi", "known:0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "invalid-config", "message": "no classifier for learner 'known'"}

    @pytest.mark.parametrize("flags", [["--laws", "0"], ["--laws", "-3"], ["--tol", "-1"],
                                       ["--tol", "nan"], ["--tol", "inf"]])
    def test_check_flags_checked_before_drawing(self, monkeypatch, capsys, flags):
        # --laws 0 reported "ok": true having checked nothing, and --tol -1
        # failed laws that pass.
        def no_draws(*args, **kwargs):
            raise AssertionError("laws drawn before the flags were checked")
        monkeypatch.setattr(cli, "rng_stream", no_draws)
        assert main(["check", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-config"
        assert flags[0] in err["message"]

    def test_check_passes(self, capsys):
        rc = main(["check", "--laws", "50"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["max_lp_gap"] < 1e-8


class TestOutputPaths:
    """Output paths are checked before any load, fit or replicate, and an
    output file is written only once its report is ready."""

    COMMANDS = {
        "bounds": ["bounds", "{csv}", *BOUNDS_ARGS, "--folds", "3", "--output", "{out}"],
        "simulate-output": ["simulate", "--reps", "1", "--n-grid", "20",
                            "--r-grid", "0.3", "--output", "{out}"],
        "simulate-csv": ["simulate", "--reps", "1", "--n-grid", "20",
                         "--r-grid", "0.3", "--csv", "{out}"],
        "illustrate": ["illustrate", "--n", "200", "--folds", "2", "--output", "{out}"],
    }

    def run(self, command, csv, out):
        return main([arg.format(csv=csv, out=out) for arg in self.COMMANDS[command]])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_path_rejected_before_work(self, tmp_path, capsys, monkeypatch,
                                                  command, where):
        # simulate --csv ran the whole grid before failing to open its file.
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the output path was checked")
        for name in ("load_csv", "cross_fit", "rmse_experiment", "gen_illustration"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "absent" / "r.out" if where == "missing directory" else tmp_path
        assert self.run(command, tmp_path / "d.csv", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "io-error"
        assert str(out) in err["message"]

    def test_failed_run_leaves_existing_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,z,a,y\n0,0,2,0,0\n")
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        assert self.run("bounds", bad, out) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "non-binary"
        assert out.read_text() == "earlier report\n"

    def forbid_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the paths were compared")
        for name in ("load_csv", "cross_fit", "rmse_experiment"):
            monkeypatch.setattr(cli, name, no_work)

    def test_output_naming_the_input_rejected(self, tmp_path, capsys, monkeypatch):
        # The report used to replace the data file it was estimated from.
        data = write_illustration_csv(tmp_path / "d.csv")
        before = data.read_bytes()
        self.forbid_work(monkeypatch)
        out = f"{tmp_path}/../{tmp_path.name}/d.csv"  # the same file, spelled otherwise
        assert self.run("bounds", data, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-config"
        assert data.read_bytes() == before

    def test_output_and_csv_naming_one_file_rejected(self, tmp_path, capsys, monkeypatch):
        # simulate used to write its CSV and then overwrite it with the JSON.
        self.forbid_work(monkeypatch)
        (tmp_path / "link").symlink_to(tmp_path)
        rc = main(["simulate", "--reps", "1", "--n-grid", "20", "--r-grid", "0.3",
                   "--output", str(tmp_path / "r.out"),
                   "--csv", str(tmp_path / "link" / "r.out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"
        assert not (tmp_path / "r.out").exists()


def test_every_subcommand_and_option_has_help(capsys):
    # argparse expands %(default)s only when it renders the help.
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"bounds", "simulate", "illustrate", "check"}
    for name, parser in sub.choices.items():
        assert parser.description, name
        for action in parser._actions:
            if "-h" not in action.option_strings:
                assert action.help and action.help.strip(), (name, action.dest)
        with pytest.raises(SystemExit) as exit_:
            cli.main([name, "--help"])
        assert exit_.value.code == 0
        assert parser.description.split()[0] in capsys.readouterr().out


def test_import_does_not_load_scipy():
    # scipy takes about 0.45 s to import and only the knn learner uses it.
    out = run_fresh(
        "import sys, numpy as np\n"
        "import ivbounds, ivbounds.cli\n"
        "print('scipy' in sys.modules)\n"
        "from ivbounds.learners import KnnFrequency\n"
        "x = np.arange(10.0)[:, None]\n"
        "p = KnnFrequency(2, k=3).fit(x, np.arange(10) % 2, np.ones(10)).predict_proba(x)\n"
        "print(p.shape)\n")
    assert out.split("\n")[:2] == ["False", "(10, 2)"]


def test_import_does_not_load_multiprocessing():
    # Only simulate's replicate pool uses multiprocessing.
    out = run_fresh(
        "import os, sys\n"
        "import ivbounds.cli\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        "ivbounds.cli.main(['simulate', '--reps', '1', '--n-grid', '20',\n"
        "                   '--output', os.devnull])\n"
        "print('multiprocessing' in sys.modules)\n")
    assert out.split("\n")[:2] == ["False False", "True"]


class TestAllocatorPolicy:
    # With glibc's default trimming each bound kernel or softmax fit
    # page-faults its temporaries in again.  simulate forks its replicate
    # workers, so the parent's count holds copy-on-write faults from each
    # fork; the workers' faults and the parent's are checked apart.
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_second_simulate_reuses_freed_heap(self):
        # The workers' faults that grow with the replicates: about 55k
        # between --reps 2 and --reps 10 without the policy.
        faults = int(run_fresh(
            "import os, resource\n"
            "from ivbounds.cli import main\n"
            "argv = lambda reps: ['simulate', '--reps', reps, '--seed', '3',\n"
            "                     '--output', os.devnull]\n"
            "flt = lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt\n"
            "main(argv('2')); main(argv('10'))\n"
            "a = flt(); main(argv('2'))\n"
            "b = flt(); main(argv('10'))\n"
            "print((flt() - b) - (b - a))\n"))
        assert faults < 1000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_second_bounds_reuses_freed_heap(self, tmp_path):
        # About 44k faults without the policy, most of them softmax's.
        csv = write_illustration_csv(tmp_path / "d.csv", n=20_000)
        argv = ["bounds", str(csv), *BOUNDS_ARGS, "--learner-pi", "softmax"]
        faults = int(run_fresh(
            "import os, resource\n"
            "from ivbounds.cli import main\n"
            f"argv = {argv!r} + ['--output', os.devnull]\n"
            "main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "main(argv)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))
        assert faults < 1000

    def test_runs_without_mallopt(self, monkeypatch, capsys):
        class NoMallopt:  # a C library without mallopt, as on macOS
            pass
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: NoMallopt())
        assert main(["check", "--laws", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
