"""Spans around the calls into each ``ivbounds`` module, from outside ``src/``.

``Tracer.request`` patches the public functions of every module where their
callers look them up, runs one request as a root span ``cli.request``, and
restores the originals.  Spans carry name, start, end, parent and request
id; they stay in memory until ``write`` is called.  Counts (rows, leaves,
iterations, replicates) are recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _leaves(node: dict) -> int:
    if "feature" not in node:
        return 1
    return _leaves(node["left"]) + _leaves(node["right"])


def _theta_rows(args, result):
    return {"bounds.theta.rows": np.asarray(args[0]).size // 8}


def _targets():
    """(span name, [(owner, attribute), ...], count hook) for every boundary.

    Every owner of one entry must hold the same function: each place a caller
    looks the name up is patched with one wrapper.
    """
    # import_module, because the package re-exports a function named ``lse``.
    cli, continuous, crossfit, estimators, learners, lse, simulation = (
        importlib.import_module(f"ivbounds.{m}") for m in (
            "cli", "continuous", "crossfit", "estimators", "learners", "lse", "simulation"))
    hist, knn, soft = (learners.HistogramPartition, learners.KnnFrequency,
                       learners.SoftmaxRegression)
    return [
        ("data.load_csv", [(cli, "load_csv")],
         lambda a, r: {"data.load_csv.rows": r.n}),
        ("learners.histogram.fit", [(hist, "fit")],
         lambda a, r: {"learners.histogram.leaves": _leaves(r.tree_)}),
        ("learners.histogram.predict", [(hist, "predict_proba")], None),
        ("learners.knn.fit", [(knn, "fit")], None),
        ("learners.knn.predict", [(knn, "predict_proba")],
         lambda a, r: {"learners.knn.predict.rows": len(r)}),
        ("learners.softmax.fit", [(soft, "fit")],
         lambda a, r: {"learners.softmax.iters": len(r.history_) - 1}),
        ("learners.softmax.predict", [(soft, "predict_proba")], None),
        ("crossfit.cross_fit", [(cli, "cross_fit")], None),
        ("crossfit.fit_propensity", [(crossfit, "fit_propensity")], None),
        ("crossfit.fit_joint", [(crossfit, "fit_joint")], None),
        ("crossfit.evaluate", [(crossfit.FoldedNuisances, "evaluate")], None),
        ("bounds.theta", [(estimators, "theta_lower"), (lse, "theta_lower")], _theta_rows),
        ("bounds.theta", [(estimators, "theta_upper"), (lse, "theta_upper")], _theta_rows),
        ("bounds.theta", [(estimators, "theta_lower_linear"),
                          (lse, "theta_lower_linear")], _theta_rows),
        ("bounds.theta", [(estimators, "theta_upper_linear"),
                          (lse, "theta_upper_linear")], _theta_rows),
        ("bounds.theta", [(simulation, "theta_profile")], _theta_rows),
        ("estimators.psi_correction", [(estimators, "psi_correction"),
                                       (lse, "psi_correction")],
         lambda a, r: {"estimators.psi_correction.rows": len(r)}),
        # continuous._estimate imports direct_bounds from estimators per call.
        ("estimators.direct_bounds", [(cli, "direct_bounds"), (simulation, "direct_bounds"),
                                      (estimators, "direct_bounds")], None),
        ("estimators.plugin_bounds", [(simulation, "plugin_bounds")], None),
        ("lse.lse_bounds", [(cli, "lse_bounds"), (simulation, "lse_bounds"),
                            (continuous, "lse_bounds")], None),
        ("continuous.continuous_bounds", [(cli, "continuous_bounds")], None),
        ("continuous.augment", [(continuous, "augment")],
         lambda a, r: {"continuous.replicates": 1}),
        ("simulation.rmse_experiment", [(cli, "rmse_experiment")], None),
        ("simulation.gen_margin", [(simulation, "gen_margin")],
         lambda a, r: {"simulation.replicates": 1}),
        ("simulation.nuisance_eval", [(crossfit._NoisyNuisance, "evaluate")], None),
        ("simulation.gen_illustration", [(cli, "gen_illustration")], None),
        ("simulation.illustration_truth", [(cli, "illustration_truth")], None),
        ("simulation.width_comparison", [(cli, "width_comparison")], None),
        ("cli.emit", [(cli, "_emit")], None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: list[tuple[int, str, float]] = []  # (request, key, amount)
        self.requests = 0
        self._open: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, owners, hook in _targets():
            original = getattr(*owners[0])
            wrapper = self._wrap(name, original, hook)
            for owner, attr in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}'s function")
                self._patches.append((owner, attr, original, wrapper))

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.requests])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                for key, amount in hook(args, result).items():
                    self.counts.append((self.requests, key, amount))
            return result
        return traced

    @contextlib.contextmanager
    def request(self):
        """Trace one request: patch, open the root span, restore on exit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        idx = self._begin("cli.request")
        try:
            yield
        finally:
            self._end(idx)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.requests += 1

    def summary(self) -> dict[str, float]:
        """Per-request means of span time, self time, calls and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s = end - start - inner
            totals[f"{name}.s"] += end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
            totals[f"{name.split('.')[0]}.self_s"] += self_s
        for _, key, amount in self.counts:
            totals[key] += amount
        out = {k: v / max(self.requests, 1) for k, v in totals.items()}
        load_s = totals["data.load_csv.s"]
        out["data.load_csv.rows_per_s"] = (totals["data.load_csv.rows"] / load_s
                                           if load_s else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
