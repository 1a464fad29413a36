"""Dataset container and CSV ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "ColumnMapping", "LoadError", "load_csv"]


class LoadError(ValueError):
    """CSV ingestion failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Dataset:
    """Observations (x, z, a, y) with optional sampling weights.

    ``outcome_kind`` is "binary" or "bounded-continuous"; binary outcomes
    must lie in {0, 1}.
    """

    x: np.ndarray          # (n, d) covariates
    z: np.ndarray          # (n,) instrument in {0, 1}
    a: np.ndarray          # (n,) exposure in {0, 1}
    y: np.ndarray          # (n,) outcome
    w: np.ndarray | None = None
    colnames: list[str] = field(default_factory=list)
    outcome_kind: str = "binary"

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x.shape[0] == 1 and len(np.asarray(self.z)) != 1:
            self.x = self.x.T
        self.z = np.asarray(self.z, dtype=int)
        self.a = np.asarray(self.a, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        n = len(self.z)
        if self.w is None:
            self.w = np.ones(n)
        self.w = np.asarray(self.w, dtype=float)
        if not (len(self.a) == len(self.y) == len(self.w) == self.x.shape[0] == n):
            raise ValueError("column lengths disagree")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite covariates")
        if not np.all(np.isin(self.z, [0, 1])):
            raise ValueError("instrument must be binary")
        if not np.all(np.isin(self.a, [0, 1])):
            raise ValueError("exposure must be binary")
        if self.outcome_kind == "binary" and not np.all(np.isin(self.y, [0.0, 1.0])):
            raise ValueError("binary outcome kind requires y in {0, 1}")
        if np.any(self.w <= 0):
            raise ValueError("weights must be strictly positive")
        if not self.colnames:
            self.colnames = [f"x{i}" for i in range(self.x.shape[1])]

    @property
    def n(self) -> int:
        return len(self.z)

    def normalized_weights(self) -> np.ndarray:
        return self.w / self.w.sum()

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.z[idx], self.a[idx], self.y[idx],
                       self.w[idx], list(self.colnames), self.outcome_kind)

    def replace_outcome(self, y: np.ndarray, outcome_kind: str) -> "Dataset":
        return Dataset(self.x, self.z, self.a, y, self.w,
                       list(self.colnames), outcome_kind)


@dataclass
class ColumnMapping:
    covariates: list[str]
    instrument: str
    exposure: str
    outcome: str
    weight: str | None = None


def _parse_float(value: str, row_no: int, col: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise LoadError("malformed-numeric",
                        f"row {row_no}: column '{col}' value {value!r} is not numeric")
    if not math.isfinite(v):
        raise LoadError("non-finite",
                        f"row {row_no}: column '{col}' value {value!r} is not finite")
    return v


def _parse_binary(value: str, row_no: int, col: str) -> int:
    v = _parse_float(value, row_no, col)
    if v not in (0.0, 1.0):
        raise LoadError("non-binary",
                        f"row {row_no}: column '{col}' value {value!r} is not 0/1")
    return int(v)


def load_csv(path, mapping: ColumnMapping,
             outcome_kind: str = "binary") -> Dataset:
    """Load a header-mapped CSV into a typed Dataset.

    Rows with missing required fields or non-finite values (``nan``,
    ``inf``) are rejected with their row numbers (1-based, counting the
    header as row 0).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError("empty-file", f"{path}: no header row")
        required = list(mapping.covariates) + [mapping.instrument,
                                               mapping.exposure, mapping.outcome]
        if mapping.weight:
            required.append(mapping.weight)
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise LoadError("missing-column", f"{path}: columns not found: {missing}")

        xs, zs, as_, ys, ws = [], [], [], [], []
        for row_no, row in enumerate(reader, start=1):
            blank = [c for c in required if not (row.get(c) or "").strip()]
            if blank:
                raise LoadError("missing-field",
                                f"row {row_no}: missing value(s) for {blank}")
            xs.append([_parse_float(row[c], row_no, c) for c in mapping.covariates])
            zs.append(_parse_binary(row[mapping.instrument], row_no, mapping.instrument))
            as_.append(_parse_binary(row[mapping.exposure], row_no, mapping.exposure))
            if outcome_kind == "binary":
                ys.append(_parse_binary(row[mapping.outcome], row_no, mapping.outcome))
            else:
                ys.append(_parse_float(row[mapping.outcome], row_no, mapping.outcome))
            if mapping.weight:
                ws.append(_parse_float(row[mapping.weight], row_no, mapping.weight))
    if not zs:
        raise LoadError("empty-file", f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(zs), np.array(as_), np.array(ys),
                   np.array(ws) if mapping.weight else None,
                   colnames=list(mapping.covariates), outcome_kind=outcome_kind)
