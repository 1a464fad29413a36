"""Balke-Pearl bound algebra for a binary instrument/exposure/outcome.

Conditional cell probabilities are stored as arrays of shape (..., 2, 2, 2)
indexed ``pi[..., y, a, z] = P(Y=y, A=a | X, Z=z)``.  The two 8-vectors of
candidate bound values are linear in these cells, so both the plain bound
functions and their influence-function counterparts share one kernel.

The kernel is cell-major: it reads eight contiguous cell columns ``P[cell]``,
cell = 4y + 2a + z, each of any leading shape, and builds each candidate as a
chain of column adds and subtracts in ascending cell order.  The row-wise
extremes come from a pairwise max/min tree and the 1-based selectors from
the leading run of candidates that miss the extreme (uint8), so the first
extreme wins, as ``argmax`` does.  Every element is computed
by the same operations whatever the leading shape, so a law gives the same
bits alone or in a stack.  The public ``theta_*`` functions are layout
wrappers: they check pi once and return (..., 8) arrays.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThetaProfile",
    "theta_lower",
    "theta_upper",
    "theta_lower_linear",
    "theta_upper_linear",
    "theta_profile",
    "natural_bounds",
    "response_type_pi",
    "response_type_ate",
    "lp_sharp_bounds",
    "check_sharpness",
    "LOWER_CONSTANTS",
    "UPPER_CONSTANTS",
]

# Each row lists (y, a, z, sign) terms; constants are kept separately so the
# pure-linear part can be reused for influence-function contributions.
_LOWER_TERMS = [
    [(1, 1, 1, +1), (0, 0, 0, +1)],
    [(1, 1, 0, +1), (0, 0, 1, +1)],
    [(0, 1, 1, -1), (1, 0, 1, -1)],
    [(0, 1, 0, -1), (1, 0, 0, -1)],
    [(1, 1, 0, +1), (1, 1, 1, -1), (1, 0, 1, -1), (0, 1, 0, -1), (1, 0, 0, -1)],
    [(1, 1, 1, +1), (1, 1, 0, -1), (1, 0, 0, -1), (0, 1, 1, -1), (1, 0, 1, -1)],
    [(0, 0, 1, +1), (0, 1, 1, -1), (1, 0, 1, -1), (0, 1, 0, -1), (0, 0, 0, -1)],
    [(0, 0, 0, +1), (0, 1, 0, -1), (1, 0, 0, -1), (0, 1, 1, -1), (0, 0, 1, -1)],
]
LOWER_CONSTANTS = np.array([-1.0, -1.0, 0, 0, 0, 0, 0, 0])

_UPPER_TERMS = [
    [(0, 1, 1, -1), (1, 0, 0, -1)],
    [(0, 1, 0, -1), (1, 0, 1, -1)],
    [(1, 1, 1, +1), (0, 0, 1, +1)],
    [(1, 1, 0, +1), (0, 0, 0, +1)],
    [(0, 1, 0, -1), (0, 1, 1, +1), (0, 0, 1, +1), (1, 1, 0, +1), (0, 0, 0, +1)],
    [(0, 1, 1, -1), (1, 1, 1, +1), (0, 0, 1, +1), (0, 1, 0, +1), (0, 0, 0, +1)],
    [(1, 0, 1, -1), (1, 1, 1, +1), (0, 0, 1, +1), (1, 1, 0, +1), (1, 0, 0, +1)],
    [(1, 0, 0, -1), (1, 1, 0, +1), (0, 0, 0, +1), (1, 1, 1, +1), (1, 0, 1, +1)],
]
UPPER_CONSTANTS = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])


def _chains(terms, constants):
    """Per candidate: its (cell, sign) terms in ascending cell order, and its
    constant."""
    return [(sorted((4 * y + 2 * a + z, sign) for y, a, z, sign in row), float(const))
            for row, const in zip(terms, constants)]


_LOWER = _chains(_LOWER_TERMS, LOWER_CONSTANTS)
_UPPER = _chains(_UPPER_TERMS, UPPER_CONSTANTS)


def _cells(pi: np.ndarray, check: bool = True) -> np.ndarray:
    """pi (..., 2, 2, 2) as contiguous cell columns (8, ...).  A view of
    ``_rows`` output comes back without a copy.  ``check`` rejects
    non-finite cells."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-3:] != (2, 2, 2):
        raise ValueError(f"pi must have trailing shape (2, 2, 2), got {pi.shape}")
    if check and not np.all(np.isfinite(pi)):
        raise ValueError("pi contains non-finite entries")
    return np.ascontiguousarray(np.moveaxis(pi.reshape(pi.shape[:-3] + (8,)), -1, 0))


def _rows(cols: np.ndarray) -> np.ndarray:
    """Cell columns (8, ...) as a (..., 2, 2, 2) view."""
    return np.moveaxis(cols, 0, -1).reshape(cols.shape[1:] + (2, 2, 2))


def _last(cols: np.ndarray) -> np.ndarray:
    """Candidate columns (8, ...) as a contiguous (..., 8) array."""
    return np.ascontiguousarray(np.moveaxis(cols, 0, -1))


def _candidates(cells: np.ndarray, side, linear: bool = False) -> np.ndarray:
    """The 8 candidates of ``side`` (``_LOWER`` or ``_UPPER``) at the cell
    columns, as candidate columns (8, ...); ``linear`` drops the constants."""
    out = np.empty(cells.shape)
    for j, (((k0, s0), (k1, s1), *rest), const) in enumerate(side):
        col = out[j, ...]  # a view even when the leading shape is ()
        # 0 - x rather than -x: a zero cell starts the chain at +0.0, as a sum does
        first = cells[k0] if s0 > 0 else np.subtract(0.0, cells[k0], out=col)
        (np.add if s1 > 0 else np.subtract)(first, cells[k1], out=col)
        for k, sign in rest:
            (np.add if sign > 0 else np.subtract)(col, cells[k], out=col)
        if const and not linear:
            col += const
    return out


def _first_extreme(cands: np.ndarray, extreme) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``extreme`` (``np.maximum`` or ``np.minimum``) of the
    candidate columns, and the 1-based index of the first candidate that
    attains it, as ``argmax``/``argmin`` pick it: one plus the length of the
    leading run of candidates that miss the extreme, as uint8."""
    value = cands
    while len(value) > 1:
        value = extreme(value[0::2], value[1::2])
    value = value[0]
    miss = cands != value
    run = miss[0, ...].copy()
    index = run + np.uint8(1)
    for k in range(1, len(cands) - 1):
        run &= miss[k]
        index += run
    return value, index


def _select(cands: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each row's candidate at its 1-based ``index`` (rows,), by one flat take;
    the index is widened first, since a flat position overflows uint8."""
    return np.take(cands, (index.astype(np.intp) - 1) * index.size + np.arange(index.size))


def _profile(cells: np.ndarray):
    """(lower, upper, gamma_l, d_l, gamma_u, d_u): candidate columns and
    row-wise extremes at the cell columns."""
    lower, upper = _candidates(cells, _LOWER), _candidates(cells, _UPPER)
    return (lower, upper, *_first_extreme(lower, np.maximum),
            *_first_extreme(upper, np.minimum))


def theta_lower_linear(pi: np.ndarray) -> np.ndarray:
    """Linear part of the lower-bound templates (constants dropped)."""
    return _last(_candidates(_cells(pi), _LOWER, linear=True))


def theta_upper_linear(pi: np.ndarray) -> np.ndarray:
    """Linear part of the upper-bound templates (constants dropped)."""
    return _last(_candidates(_cells(pi), _UPPER, linear=True))


def theta_lower(pi: np.ndarray) -> np.ndarray:
    """The 8 lower-bound candidate values, in display order (index 0 = first)."""
    return _last(_candidates(_cells(pi), _LOWER))


def theta_upper(pi: np.ndarray) -> np.ndarray:
    """The 8 upper-bound candidate values, in display order."""
    return _last(_candidates(_cells(pi), _UPPER))


@dataclass(frozen=True)
class ThetaProfile:
    """Candidate bound values with their extrema and selector indices.

    ``d_l``/``d_u`` are 1-based to match the display numbering; ties are
    broken toward the smallest index.
    """

    theta_l: np.ndarray
    theta_u: np.ndarray
    gamma_l: float | np.ndarray
    gamma_u: float | np.ndarray
    d_l: int | np.ndarray
    d_u: int | np.ndarray


def theta_profile(pi: np.ndarray) -> ThetaProfile:
    lower, upper, gamma_l, d_l, gamma_u, d_u = _profile(_cells(pi))
    if lower.ndim == 1:
        return ThetaProfile(lower, upper, float(gamma_l), float(gamma_u),
                            int(d_l), int(d_u))
    return ThetaProfile(_last(lower), _last(upper), gamma_l, gamma_u, d_l, d_u)


def natural_bounds(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Manski/Robins natural bounds; identical to the first candidate pair."""
    return theta_lower(pi)[..., 0], theta_upper(pi)[..., 0]


# ---------------------------------------------------------------------------
# Response-type oracle: the 16 joint compliance/outcome types.
# Type u = (a0, a1, y0, y1) with a0 = A(z=0), a1 = A(z=1), y_a = Y(a).
# Flat index = 8*a0 + 4*a1 + 2*y0 + y1.
# ---------------------------------------------------------------------------

RESPONSE_TYPES = np.array(list(itertools.product([0, 1], repeat=4)))


def _type_incidence() -> np.ndarray:
    """(8, 16) 0/1 matrix: entry [4y + 2a + z, u] is 1 when type u lands in
    cell (y, a, z).

    Under instrument value z the exposure is A(z) and the outcome Y(A(z)),
    so each type lands in exactly one cell per instrument arm.
    """
    types = np.arange(16)
    incidence = np.zeros((8, 16))
    for z in (0, 1):
        a = RESPONSE_TYPES[:, z]
        y = RESPONSE_TYPES[types, 2 + a]
        incidence[4 * y + 2 * a + z, types] = 1.0
    return incidence


_TYPE_INCIDENCE = _type_incidence()


def response_type_pi(q: np.ndarray) -> np.ndarray:
    """Forward map from a response-type law to the observable cells."""
    q = np.asarray(q, dtype=float)
    if q.shape != (16,):
        raise ValueError("q must be a 16-vector")
    return (_TYPE_INCIDENCE @ q).reshape(2, 2, 2)


def response_type_ate(q: np.ndarray) -> float:
    """ATE implied by a response-type law: E[Y(1) - Y(0)]."""
    effects = RESPONSE_TYPES[:, 3] - RESPONSE_TYPES[:, 2]
    return float(np.asarray(q, dtype=float) @ effects)


# Constraint system for the sharpness oracle.  Full system has rank 7: the
# total-mass row plus, per arm, three of the four cell rows (the fourth is
# implied by the per-arm simplex identity).  Flat cell index 4y + 2a + z.
_KEPT_CELLS = [4 * y + 2 * a + z for z in (0, 1) for (y, a) in [(0, 1), (1, 0), (1, 1)]]


@functools.cache
def _basis_data() -> tuple[np.ndarray, np.ndarray]:
    """Inverses of all nonsingular 7-column bases of the constraint system,
    and the ATE effects of their types."""
    amat = np.vstack([np.ones(16), _TYPE_INCIDENCE[_KEPT_CELLS]])
    combos = np.array(list(itertools.combinations(range(16), 7)))
    blocks = amat[:, combos].transpose(1, 0, 2)  # (n_bases, 7, 7)
    keep = np.abs(np.linalg.det(blocks)) > 1e-9
    effects = (RESPONSE_TYPES[:, 3] - RESPONSE_TYPES[:, 2]).astype(float)
    return np.linalg.inv(blocks[keep]), effects[combos[keep]]


def lp_sharp_bounds(pi: np.ndarray, tol: float = 1e-10):
    """Exact min/max of the ATE over response-type laws matching ``pi``.

    Enumerates the basic feasible solutions of the 7-equality linear system,
    so it is an oracle independent of the closed-form bound templates.
    Bases with masses down to ``-tol`` count as feasible (bounds widen ~2 tol).
    Returns ``None`` when no law matches (an IV-model violation).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (2, 2, 2):
        raise ValueError("lp_sharp_bounds expects a single (2, 2, 2) law")
    if not np.all(np.isfinite(pi)):
        raise ValueError("pi contains non-finite entries")
    if np.any(np.abs(pi.sum(axis=(0, 1)) - 1.0) > tol):
        return None
    inverses, effects = _basis_data()
    q = inverses @ np.concatenate([[1.0], pi.ravel()[_KEPT_CELLS]])
    feasible = np.all(q >= -tol, axis=1)
    if not np.any(feasible):
        return None
    values = np.einsum("ij,ij->i", effects[feasible], q[feasible])
    return float(values.min()), float(values.max())


def check_sharpness(laws, tol: float = 1e-8) -> dict:
    """Closed-form bounds of each response-type law (row of ``laws``) must equal
    ``lp_sharp_bounds`` within ``tol``, contain the law's ATE and nest inside
    the natural bounds.  Returns a JSON-ready summary with every failure."""
    worst, failures = 0.0, []
    pis = np.array([response_type_pi(q) for q in laws]).reshape(-1, 2, 2, 2)
    prof = theta_profile(pis)  # one kernel for every law; candidate 0 is natural_bounds
    for i, q in enumerate(laws):
        lp = lp_sharp_bounds(pis[i])
        if lp is None:
            failures.append(f"law {i}: oracle reported infeasible")
            continue
        gl, gu = float(prof.gamma_l[i]), float(prof.gamma_u[i])
        worst = max(worst, abs(gl - lp[0]), abs(gu - lp[1]))
        ate = response_type_ate(q)
        if not gl - 1e-9 <= ate <= gu + 1e-9:
            failures.append(f"law {i}: ATE {ate} outside [{gl}, {gu}]")
        if not (prof.theta_l[i, 0] - 1e-12 <= gl and gu <= prof.theta_u[i, 0] + 1e-12):
            failures.append(f"law {i}: sharp bounds escape the natural bounds")
    return {"laws": len(laws), "max_lp_gap": worst, "tolerance": tol,
            "failures": failures, "ok": worst <= tol and not failures}
