"""Seeded input laws for the benchmark workloads.

Both laws are closed form and drawn from ``numpy.random.default_rng`` on the
stream ``[seed, law]``, so one seed always gives the same file.  An
unmeasured confounder ``U`` drives both the exposure and the outcome, which
is the situation the instrument-based bounds exist for.

    X1 ~ Bern(0.4),  X2 ~ U(0, 1),  X3 ~ N(0, 1),  U ~ N(0, 1)
    Z | X       ~ Bern(expit(-0.2 + 0.5 X1 + 0.8 (X2 - 0.5)))
    A | Z, X, U ~ Bern(expit(-1 + 2 Z + 0.4 X3 + 0.8 U))

binary law:      Y ~ Bern(expit(-0.4 + 0.9 A + 0.4 X1 - 0.3 X3 + 0.8 U))
continuous law:  Y = 12 expit(-0.3 + 0.9 A + 0.4 X1 - 0.3 X3 + 0.6 U + 0.5 E),
                 E ~ N(0, 1), so Y lies in (0, 12).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BINARY_LAW = 0
CONTINUOUS_LAW = 1
COLUMNS = ("x1", "x2", "x3", "z", "a", "y")


def _expit(v):
    return 1.0 / (1.0 + np.exp(-v))


def write_csv(path: Path, rows: int, seed: int, law: int) -> Path:
    """Write ``rows`` draws of ``law`` to ``path`` with a header row."""
    rng = np.random.default_rng([seed, law])
    x1 = (rng.random(rows) < 0.4).astype(int)
    x2 = rng.random(rows)
    x3 = rng.standard_normal(rows)
    u = rng.standard_normal(rows)
    z = (rng.random(rows) < _expit(-0.2 + 0.5 * x1 + 0.8 * (x2 - 0.5))).astype(int)
    a = (rng.random(rows) < _expit(-1.0 + 2.0 * z + 0.4 * x3 + 0.8 * u)).astype(int)
    if law == CONTINUOUS_LAW:
        e = rng.standard_normal(rows)
        y = np.char.mod("%.6f", 12.0 * _expit(
            -0.3 + 0.9 * a + 0.4 * x1 - 0.3 * x3 + 0.6 * u + 0.5 * e))
    else:
        y = (rng.random(rows) < _expit(
            -0.4 + 0.9 * a + 0.4 * x1 - 0.3 * x3 + 0.8 * u)).astype(int).astype(str)
    cols = (x1.astype(str), np.char.mod("%.6f", x2), np.char.mod("%.6f", x3),
            z.astype(str), a.astype(str), y)
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        fh.write("\n".join(",".join(r) for r in zip(*cols)) + "\n")
    return path
