"""Diagonal preconditioners and equilibration transforms.

Row equilibration scales each row to unit Euclidean norm, column
equilibration does the same for columns, and the Jacobi preconditioner
divides by the diagonal.  All of them are represented as explicit
DiagonalPreconditioner values so experiments can report and reproduce the
exact scaling applied.
"""

from dataclasses import dataclass

import numpy as np

from equilab import densela
from equilab.errors import DimensionError, NonFiniteError, ZeroRowError

CSV_HEADER = "kind,rows,cols,kappa_before,kappa_after,seed"


@dataclass(frozen=True)
class DiagonalPreconditioner:
    """Diagonal scaling D applied from one side of a matrix.

    kind is one of "row_equilibration", "column_equilibration", "jacobi",
    "custom".  Entries must be finite and nonzero; they must be strictly
    positive except for the jacobi kind, whose entries inherit the sign of
    the matrix diagonal.
    """

    diag: np.ndarray
    side: str
    kind: str = "custom"

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.float64).reshape(-1).copy()
        if d.size == 0:
            raise DimensionError("empty preconditioner diagonal")
        if not np.isfinite(d).all():
            raise NonFiniteError("preconditioner diagonal has non-finite entries")
        if np.any(d == 0.0):
            raise ZeroRowError(int(np.flatnonzero(d == 0.0)[0]), axis="diagonal")
        if self.kind != "jacobi" and np.any(d < 0.0):
            raise DimensionError(f"kind={self.kind!r} requires positive entries")
        if self.side not in ("left", "right"):
            raise DimensionError(f"side must be 'left' or 'right', got {self.side!r}")
        d.flags.writeable = False
        object.__setattr__(self, "diag", d)

    def apply(self, a):
        arr = densela._validated(a)
        if self.side == "left":
            if arr.shape[0] != self.diag.size:
                raise DimensionError(
                    f"left preconditioner of size {self.diag.size} vs {arr.shape} matrix"
                )
            return self.diag[:, None] * arr
        if arr.shape[1] != self.diag.size:
            raise DimensionError(
                f"right preconditioner of size {self.diag.size} vs {arr.shape} matrix"
            )
        return arr * self.diag[None, :]


def _inverse_norms(norms, axis):
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]), axis=axis)
    return 1.0 / norms


def row_equilibrate(a):
    """Return (E, EA) where E = diag(1/||row_i||_2).

    Zero rows raise ZeroRowError.
    """
    arr = densela._validated(a)
    inv = _inverse_norms(densela.row_norms2(arr), "row")
    e = DiagonalPreconditioner(inv, side="left", kind="row_equilibration")
    return e, inv[:, None] * arr


def column_equilibrate(a):
    """Return (AC, C) where C = diag(1/||col_j||_2)."""
    arr = densela._validated(a)
    inv = _inverse_norms(densela.col_norms2(arr), "column")
    c = DiagonalPreconditioner(inv, side="right", kind="column_equilibration")
    return arr * inv[None, :], c


def row_column_equilibrate(a):
    """Row equilibrate, then column equilibrate the result.

    Returns (E, EAC, C).  Errors carry which stage hit a zero norm.
    """
    e, ea = row_equilibrate(a)
    eac, c = column_equilibrate(ea)
    return e, eac, c


def jacobi_precondition(a):
    """Return (D, DA) with D = diag(A)^-1 for square A with nonzero diagonal.

    DA has unit diagonal.  Signs are preserved, so D may carry negative
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
    p = DiagonalPreconditioner(inv, side="left", kind="jacobi")
    return p, inv[:, None] * arr


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


def conditioning_report(a, kind, seed=None):
    """Apply one named transform and report kappa before/after (strict
    condition numbers at condition_number's rank_tol 1e-12)."""
    if kind not in _TRANSFORMS:
        raise DimensionError(f"unknown transform kind {kind!r}")
    arr = densela._validated(a)
    before = densela.condition_number(arr)
    after = densela.condition_number(_TRANSFORMS[kind](arr))
    return ConditioningReport(
        kind=kind,
        rows=arr.shape[0],
        cols=arr.shape[1],
        kappa_before=before,
        kappa_after=after,
        seed=seed,
    )


def vds_trial(a, p):
    """kappa(EA) vs kappa(PA) for one matrix and one competing left scaling.

    E is the row equilibrator of a; p is a DiagonalPreconditioner or a raw
    positive diagonal.  Returns (kappa_ea, kappa_pa).  Rank deficiency in
    either product propagates as RankDeficientError so sweeps can exclude
    the trial explicitly.
    """
    arr = densela._validated(a)
    if not isinstance(p, DiagonalPreconditioner):
        p = DiagonalPreconditioner(np.asarray(p, dtype=np.float64), side="left")
    _, ea = row_equilibrate(arr)
    pa = p.apply(arr)
    return densela.condition_number(ea), densela.condition_number(pa)
