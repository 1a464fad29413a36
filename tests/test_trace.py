"""The benchmark's tracer (``perfbench/spans.py``) wraps ivbounds functions by
name where their callers look them up.  Building it fails when a traced name
is renamed or no longer bound there; a traced run that records no calls
means a caller stopped going through that name."""

import types
from pathlib import Path

import numpy as np
import pytest

from ivbounds.cli import main
from ivbounds.simulation import gen_illustration

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # Executed from source, so no bytecode cache is written next to it.
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_builds(spans):
    spans.Tracer()


def test_traced_bounds_run_counts_every_fit(spans, tmp_path, capsys):
    d = gen_illustration(300, 0)
    csv = tmp_path / "d.csv"
    csv.write_text("x1,x2,z,a,y\n" + "".join(
        f"{d.x[i, 0]},{d.x[i, 1]},{d.z[i]},{d.a[i]},{int(d.y[i])}\n" for i in range(d.n)))
    tracer = spans.Tracer()
    with tracer.request():
        assert main(["bounds", str(csv), "--covariates", "x1,x2", "--instrument", "z",
                     "--exposure", "a", "--outcome", "y", "--folds", "3"]) == 0
    capsys.readouterr()
    summary = tracer.summary()
    for name, calls in (("data.load_csv", 1), ("crossfit.cross_fit", 1),
                        ("crossfit.fit_propensity", 3), ("crossfit.fit_joint", 6),
                        ("crossfit.evaluate", 1), ("estimators.direct_bounds", 1),
                        ("estimators.psi_correction", 1), ("cli.emit", 1)):
        assert summary.get(f"{name}.calls", 0) == calls, name
    # Histogram learners by default: one propensity and two arm fits per fold.
    assert summary.get("learners.histogram.fit.calls", 0) == 9
    assert summary.get("learners.histogram.leaves", 0) > 0


def test_traced_continuous_run_counts_every_fit(spans, tmp_path, capsys):
    # Continuous mode fits the propensity once per fold, then refits both
    # joint arms of every fold per replicate, and each arm answers its fold
    # through knn.
    k, m = 3, 4
    d = gen_illustration(300, 0)
    y = 2.0 * d.y + np.random.default_rng(0).random(d.n)
    csv = tmp_path / "c.csv"
    csv.write_text("x1,x2,z,a,y\n" + "".join(
        f"{d.x[i, 0]},{d.x[i, 1]},{d.z[i]},{d.a[i]},{y[i]}\n" for i in range(d.n)))
    tracer = spans.Tracer()
    with tracer.request():
        assert main(["bounds", str(csv), "--covariates", "x1,x2", "--instrument", "z",
                     "--exposure", "a", "--outcome", "y", "--folds", str(k),
                     "--method", "continuous", "--m", str(m),
                     "--learner-pi", "knn:20", "--learner-lambda", "softmax"]) == 0
    capsys.readouterr()
    summary = tracer.summary()
    for name, calls in (("crossfit.fit_propensity", k), ("learners.softmax.fit", k),
                        ("crossfit.fit_joint", 2 * k * m),
                        ("learners.knn.predict", 2 * k * m),
                        ("continuous.augment", m)):
        assert summary.get(f"{name}.calls", 0) == calls, name
    assert summary["learners.softmax.iters"] > 0
