"""The benchmark's workloads: the cycle of CLI requests each one repeats.

A workload builds one cycle of requests for a scale:

* ``full``: what the benchmark times;
* ``reference``: small inputs drawn from ``REFERENCE_SEED``.  Every run sends
  this cycle first as its warm-up and compares the reports with
  ``reference.json``, which gives ``max_result_drift`` whatever the run's
  seed is;
* ``tiny``: the smoke test's sizes.

Input files are written into ``work`` before any timing starts; the program
sees only those files and the argv.  Each request has a ``kind``, under which
its own latency is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import BINARY_LAW, CONTINUOUS_LAW, write_csv

REFERENCE_SEED = 0
SIM_N_GRID = (500, 1000, 5000)  # the CLI's default --n-grid
SIM_R_POINTS = 9                # the CLI's default --r-grid has 9 points


@dataclass(frozen=True)
class Request:
    kind: str
    argv: list[str]
    rows: int  # observations carried through estimation


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[Path, int, str], list[Request]]


def _bounds_argv(path: Path) -> list[str]:
    return ["bounds", str(path), "--covariates", "x1,x2,x3",
            "--instrument", "z", "--exposure", "a", "--outcome", "y"]


def _analyst(work: Path, seed: int, scale: str) -> list[Request]:
    rows = {"full": 100_000, "reference": 5_000, "tiny": 2_000}[scale]
    binary = write_csv(work / f"binary-{scale}.csv", rows, seed, BINARY_LAW)
    cycle = [Request(method, _bounds_argv(binary) + ["--method", method], rows)
             for method in ("direct", "lse")]
    rows = {"full": 10_000, "reference": 2_000, "tiny": 1_000}[scale]
    bounded = write_csv(work / f"continuous-{scale}.csv", rows, seed, CONTINUOUS_LAW)
    cycle.append(Request("continuous", _bounds_argv(bounded) + [
        "--method", "continuous", "--m", "5",
        "--learner-pi", "knn:50", "--learner-lambda", "softmax"], rows))
    return cycle


def _replication(work: Path, seed: int, scale: str) -> list[Request]:
    reps = {"full": 10, "reference": 2, "tiny": 1}[scale]
    n = {"full": 5000, "reference": 2000, "tiny": 1000}[scale]
    size = [] if scale == "full" else ["--n", str(n)]  # full: the CLI defaults
    return [
        Request("simulate", ["simulate", "--reps", str(reps), "--seed", str(seed)],
                sum(SIM_N_GRID) * SIM_R_POINTS * reps),
        Request("illustrate", ["illustrate", "--seed", str(seed)] + size, n),
    ]


WORKLOADS = {w.name: w for w in (
    # What an applied analyst runs on a CSV, one request per --method:
    # * direct and lse on 100k rows of a binary outcome with the default
    #   histogram pi and lambda, K=5.  Histogram fits and CSV ingestion
    #   dominate (ROADMAP 2a, 2c); the estimator layer runs at large n, where
    #   array traffic sets peak_rss_mb.
    # * continuous, m=5, knn:50 pi and softmax lambda on 10k rows of an
    #   outcome in (0, 12): K*m = 25 propensity refits (2b) on the softmax
    #   solver (2d); no histogram fits.
    # Bypasses the simulation layer.
    Workload("analyst", _analyst),
    # The paper's own study, with the CLI's defaults but fewer reps:
    # * simulate on the default 3x9 (n, r) grid, 10 reps (270 replicates),
    #   oracle nuisances: no data, learner or cross-fit work, only the
    #   estimator layer at small n where per-call overhead dominates (2e);
    # * illustrate (n=5000, K=10, histogram pi, known lambda): the only user
    #   of the 200,001-point illustration integrals (3), and many small
    #   histogram fits that guard a 2a rewrite tuned for large n.
    # Bypasses CSV ingestion and the knn and softmax learners.
    Workload("replication", _replication),
)}
