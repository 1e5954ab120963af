"""Diagonal preconditioners and equilibration transforms.

Row equilibration scales each row to unit Euclidean norm, column
equilibration does the same for columns, and the Jacobi preconditioner
divides by the diagonal.  Each transform returns its scaling as a plain
read-only diagonal beside the scaled matrix, so experiments can report and
reproduce the exact scaling applied.
"""

from dataclasses import dataclass

import numpy as np

from equilab import densela
from equilab.errors import DimensionError, NonFiniteError, ZeroRowError

CSV_HEADER = "kind,rows,cols,kappa_before,kappa_after,seed"


def _read_only(d):
    d.flags.writeable = False
    return d


def _inverse_norms(norms, axis):
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]), axis=axis)
    return 1.0 / norms


def row_equilibrate(a):
    """Return (e, EA) where e = 1/||row_i||_2 is the diagonal of E.

    Zero rows raise ZeroRowError.
    """
    arr = densela._validated(a)
    inv = _inverse_norms(densela.row_norms2(arr), "row")
    return _read_only(inv), inv[:, None] * arr


def column_equilibrate(a):
    """Return (AC, c) where c = 1/||col_j||_2 is the diagonal of C."""
    arr = densela._validated(a)
    inv = _inverse_norms(densela.col_norms2(arr), "column")
    return arr * inv[None, :], _read_only(inv)


def row_column_equilibrate(a):
    """Row equilibrate, then column equilibrate the result.

    Returns (e, EAC, c) with e and c the diagonals.  Errors carry which
    stage hit a zero norm.
    """
    e, ea = row_equilibrate(a)
    eac, c = column_equilibrate(ea)
    return e, eac, c


def jacobi_precondition(a):
    """Return (d, DA) with d = 1/diag(A) for square A with nonzero diagonal.

    DA has unit diagonal.  Signs are preserved, so d may carry negative
    entries.
    """
    arr = densela._validated(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"jacobi preconditioner needs a square matrix, got {arr.shape}")
    d = np.diag(arr).copy()
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]), axis="diagonal")
    inv = 1.0 / d
    return _read_only(inv), inv[:, None] * arr


@dataclass(frozen=True)
class ConditioningReport:
    """Condition numbers of a matrix before and after one transform."""

    kind: str
    rows: int
    cols: int
    kappa_before: float
    kappa_after: float
    seed: int | None = None

    def csv_row(self):
        seed = "" if self.seed is None else str(self.seed)
        return (
            f"{self.kind},{self.rows},{self.cols},"
            f"{self.kappa_before!r},{self.kappa_after!r},{seed}"
        )


_TRANSFORMS = {
    "row_equilibration": lambda a: row_equilibrate(a)[1],
    "column_equilibration": lambda a: column_equilibrate(a)[0],
    "row_column_equilibration": lambda a: row_column_equilibrate(a)[1],
    "jacobi": lambda a: jacobi_precondition(a)[1],
}


def conditioning_report(a, kinds, seed=None):
    """Apply each named transform and report kappa before/after, one
    ConditioningReport per kind (strict condition numbers at
    densela.RANK_TOL, 1e-12).  kappa(A) is computed once for
    all kinds."""
    unknown = [k for k in kinds if k not in _TRANSFORMS]
    if unknown:
        raise DimensionError(f"unknown transform kind {unknown[0]!r}")
    if not kinds:
        return []
    arr = densela._validated(a)
    before = densela.condition_number(arr)
    return [
        ConditioningReport(
            kind=kind,
            rows=arr.shape[0],
            cols=arr.shape[1],
            kappa_before=before,
            kappa_after=densela.condition_number(_TRANSFORMS[kind](arr)),
            seed=seed,
        )
        for kind in kinds
    ]


def vds_trial(a, p):
    """kappa(EA) vs kappa(PA) for one matrix and one competing left scaling.

    E is the row equilibrator of a; p is the diagonal of P, one finite,
    strictly positive entry per row of a.  Returns (kappa_ea, kappa_pa).
    Rank deficiency in either product propagates as RankDeficientError so
    sweeps can exclude the trial explicitly.
    """
    arr = densela._validated(a)
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if not np.isfinite(p).all():
        raise NonFiniteError("diagonal has non-finite entries")
    zero = np.flatnonzero(p == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]), axis="diagonal")
    if np.any(p < 0.0):
        raise DimensionError("diagonal entries must be positive")
    if p.size != arr.shape[0]:
        raise DimensionError(f"diagonal of size {p.size} vs {arr.shape} matrix")
    _, ea = row_equilibrate(arr)
    return densela.condition_number(ea), densela.condition_number(p[:, None] * arr)
