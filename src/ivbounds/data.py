"""Dataset container and CSV ingestion."""

from __future__ import annotations

import copy
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "ColumnMapping", "LoadError", "load_csv"]


def _check_outcome_kind(kind: str) -> None:
    if kind not in ("binary", "bounded-continuous"):
        raise ValueError(f"outcome kind {kind!r} is neither 'binary' nor 'bounded-continuous'")


class LoadError(ValueError):
    """CSV ingestion failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Dataset:
    """Observations (x, z, a, y) with optional sampling weights.

    ``outcome_kind`` is "binary" or "bounded-continuous"; binary outcomes
    must lie in {0, 1}.  Covariates, outcome and weights are stored as
    float64, the instrument and exposure as int8.
    """

    x: np.ndarray          # (n, d) covariates
    z: np.ndarray          # (n,) instrument in {0, 1}, int8
    a: np.ndarray          # (n,) exposure in {0, 1}, int8
    y: np.ndarray          # (n,) outcome
    w: np.ndarray | None = None  # (n,) weights, ones by default
    outcome_kind: str = "binary"

    def __post_init__(self):
        _check_outcome_kind(self.outcome_kind)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x.shape[0] == 1 and len(np.asarray(self.z)) != 1:
            self.x = self.x.T
        self.z, self.a = np.asarray(self.z), np.asarray(self.a)
        self.y = np.asarray(self.y, dtype=float)
        n = len(self.z)
        if self.w is None:
            self.w = np.ones(n)
        self.w = np.asarray(self.w, dtype=float)
        if not (len(self.a) == len(self.y) == len(self.w) == self.x.shape[0] == n):
            raise ValueError("column lengths disagree")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite covariates")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("non-finite outcome")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("non-finite weights")
        # Checked before the cast to int, which would truncate 0.7 to 0.
        if not np.all((self.z == 0) | (self.z == 1)):
            raise ValueError("instrument must be binary")
        if not np.all((self.a == 0) | (self.a == 1)):
            raise ValueError("exposure must be binary")
        self.z, self.a = self.z.astype(np.int8, copy=False), self.a.astype(np.int8, copy=False)
        if self.outcome_kind == "binary" and not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("binary outcome kind requires y in {0, 1}")
        if np.any(self.w <= 0):
            raise ValueError("weights must be strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.w.sum()):  # every normalized weight would be 0
                raise ValueError("weights sum to more than the largest float")

    @property
    def n(self) -> int:
        return len(self.z)

    def normalized_weights(self) -> np.ndarray:
        return self.w / self.w.sum()

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Rows ``idx``.  They passed ``__post_init__``'s checks when this
        dataset was built, so the subset skips them."""
        out = copy.copy(self)
        out.x, out.z, out.a, out.y, out.w = (
            v[idx] for v in (self.x, self.z, self.a, self.y, self.w))
        return out

    def replace_outcome(self, y: np.ndarray, outcome_kind: str) -> "Dataset":
        return Dataset(self.x, self.z, self.a, y, self.w, outcome_kind)


@dataclass
class ColumnMapping:
    covariates: list[str]
    instrument: str
    exposure: str
    outcome: str
    weight: str | None = None

    def __post_init__(self):
        names = [*self.covariates, self.instrument, self.exposure, self.outcome, self.weight]
        if repeated := sorted({c for c in names if c and names.count(c) > 1}):
            raise ValueError(f"columns mapped to more than one role: {repeated}")


def _cell_error(text: str, kind: str) -> tuple[str, str] | None:
    """(code, complaint) for a cell that fails ``kind``'s check, else None.

    Numbers are read as NumPy's text parser reads them: whitespace-padded
    ASCII without ``_`` digit separators.
    """
    number = text.strip()
    try:
        value = float(number) if number.isascii() and "_" not in number else None
    except ValueError:
        value = None
    if value is None:
        return "malformed-numeric", "is not numeric"
    if not math.isfinite(value):
        return "non-finite", "is not finite"
    if kind == "binary" and value not in (0.0, 1.0):
        return "non-binary", "is not 0/1"
    if kind == "weight" and value <= 0:
        return "non-positive-weight", "is not positive"
    return None


def _records(fh):
    """The ``csv`` records of ``fh``.  A field over ``csv.field_size_limit()``
    is LoadError ``field-too-large`` at its row (header 0, blanks unnumbered)."""
    reader, row_no = csv.reader(fh), 0
    while True:
        try:
            record = next(reader, None)
        except csv.Error as exc:  # the only one: the dialect is not strict
            raise LoadError("field-too-large", f"row {row_no}: {exc}") from None
        if record is None:
            return
        yield record
        row_no += bool(record)


def _raise_first_error(path, required, usecols, kinds):
    """Raise the LoadError of the first bad record.

    Error path only: re-reading the records with ``csv`` names and quotes the
    first cell that the parse or ``Dataset`` rejected; with none, a weight total
    that overflows is cited at the row where the running total first does (the
    last row when only the pairwise one does).
    """
    weights = []
    with open(path, newline="") as fh:
        records = (r for r in _records(fh) if r)
        next(records)  # the header
        for row_no, record in enumerate(records, start=1):
            cells = [record[i] if i < len(record) else "" for i in usecols]
            if blank := [c for c, text in zip(required, cells) if not text.strip()]:
                raise LoadError("missing-field", f"row {row_no}: missing value(s) for {blank}")
            for col, kind, text in zip(required, kinds, cells):
                if error := _cell_error(text, kind):
                    raise LoadError(error[0],
                                    f"row {row_no}: column '{col}' value {text!r} {error[1]}")
            if kinds[-1] == "weight":
                weights.append(float(cells[-1].strip()))
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(weights)):  # Dataset's test
            row = min(int(np.isfinite(np.cumsum(weights)).sum()) + 1, len(weights))
            raise LoadError("weight-total-overflow",
                            f"row {row}: weights sum to more than the largest float")
    raise LoadError("malformed-numeric", f"{path}: data rows are not numeric")


def load_csv(path, mapping: ColumnMapping,
             outcome_kind: str = "binary") -> Dataset:
    """Load a header-mapped CSV into a typed Dataset.

    The header is read by ``csv`` and the body column-wise by ``np.loadtxt``:
    fields may be quoted (``"a,b"``), blank lines are skipped, ``#`` starts
    no comment, and ``_`` digit separators or non-ASCII digits are malformed.
    A row with a missing, malformed or non-finite required value, a non-0/1
    instrument, exposure or binary outcome, or a non-positive weight raises
    ``LoadError`` with its code and row number (1-based, header is row 0), as
    do finite weights whose total overflows (``weight-total-overflow``, at the
    row where the running total first does).
    So does a field too long for ``csv`` in the header or in a record read
    to find a bad cell (``field-too-large``), and a header that names a mapped
    column twice (``duplicate-column``).  An unknown ``outcome_kind``
    raises ``ValueError`` before the file is opened.
    """
    _check_outcome_kind(outcome_kind)
    required = [*mapping.covariates, mapping.instrument, mapping.exposure,
                mapping.outcome]
    d = len(mapping.covariates)
    kinds = ["real"] * d + [
        "binary", "binary", "binary" if outcome_kind == "binary" else "real"]
    if mapping.weight:
        required.append(mapping.weight)
        kinds.append("weight")
    with open(path, newline="") as fh:
        header = next(_records(fh), None)
        if header is None:
            raise LoadError("empty-file", f"{path}: no header row")
        if missing := [c for c in required if c not in header]:
            raise LoadError("missing-column", f"{path}: columns not found: {missing}")
        if repeated := [c for c in required if header.count(c) > 1]:
            raise LoadError("duplicate-column", f"{path}: header repeats columns: {repeated}")
        usecols = [header.index(c) for c in required]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                   usecols=usecols, ndmin=2)
            if table.size:  # Dataset is the one check of the values
                # Each column is its own copy, so none keeps the parsed table alive.
                z, a, y, *w = (table[:, j].copy() for j in range(d, table.shape[1]))
                return Dataset(table[:, :d].copy(), z, a, y, w[0] if w else None, outcome_kind)
        except ValueError:  # the parse's or Dataset's; the row scan names the cell
            _raise_first_error(path, required, usecols, kinds)
    raise LoadError("empty-file", f"{path}: no data rows")
