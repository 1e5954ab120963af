"""Dense linear-algebra core.

Input validation for float64 matrices, a text matrix reader, and a
one-sided Jacobi SVD preconditioned by a row-sorted QR with column
pivoting: the basis for every condition number in the
package and for the quadratic minimizer in quadlab.  Everything is desk
scale: dimensions are capped at 4096 and all routines are deterministic
for a given input.
"""

from dataclasses import dataclass

import numpy as np

from equilab import _kernels
from equilab.errors import (
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    NotSymmetricError,
    RankDeficientError,
)

MAX_DIM = 4096
MAX_SWEEPS = 60
# Absolute Gram threshold scale: off-diagonal entries of B^T B are driven
# below _ABS_TOL_SCALE * ||A||_F^2.
_ABS_TOL_SCALE = 1e-14
# Relative floor: |<b_i,b_j>| is also driven below rel_tol*||b_i||*||b_j||,
# which keeps U orthonormal even when a pair of singular values is tiny
# compared to ||A||_F.  32*eps*len(column) sits safely above the rounding
# noise of the pair dot products.
_REL_TOL_FLOOR = 1e-14
# Relative Frobenius asymmetry allowed of a matrix treated as symmetric.
_SYM_TOL = 1e-12
# condition_number's rank threshold: sigma_min <= RANK_TOL * sigma_max is
# numerically rank deficient.
RANK_TOL = 1e-12

KERNEL_BACKEND = _kernels.BACKEND


def _validated(a, name="matrix"):
    """Coerce to a fresh validated float64 2-d array."""
    arr = np.array(a, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got ndim={arr.ndim}")
    n, m = arr.shape
    if n < 1 or m < 1:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    if n > MAX_DIM or m > MAX_DIM:
        raise DimensionError(f"{name} exceeds the {MAX_DIM} dimension cap: {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def read_matrix_text(path):
    """Read a text matrix: a 'rows cols' header line, then one row per line
    of whitespace-separated floats.

    Rejects ragged rows, bad headers, and non-finite values.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DimensionError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise DimensionError(f"{path}: header must be 'rows cols', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise DimensionError(f"{path}: non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != n:
        raise DimensionError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    out = np.empty((n, m), dtype=np.float64)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != m:
            raise DimensionError(f"{path}: row {i} has {len(parts)} entries, expected {m}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise NonFiniteError(f"{path}: row {i} has a non-numeric entry") from None
    return _validated(out, name=str(path))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = u @ diag(sigma) @ vt with sigma sorted descending."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def _complete_zero_columns(u, sigma):
    """Replace columns of u whose sigma is exactly zero with unit vectors
    orthogonal to the rest, chosen deterministically from the standard
    basis by largest residual (ties break toward the lower index)."""
    zero = np.flatnonzero(sigma == 0.0)
    if zero.size == 0:
        return u
    p = u.shape[0]
    active = [j for j in range(u.shape[1]) if sigma[j] > 0.0]
    for j in zero:
        if active:
            ua = u[:, active]
            scores = 1.0 - np.einsum("ij,ij->i", ua, ua)
        else:
            scores = np.ones(p)
        pick = int(np.argmax(scores))
        v = np.zeros(p)
        v[pick] = 1.0
        for _ in range(2):  # twice-is-enough re-orthogonalization
            if active:
                ua = u[:, active]
                v = v - ua @ (ua.T @ v)
        v /= np.linalg.norm(v)
        u[:, j] = v
        active.append(j)
    return u


def _jacobi(a, with_vectors):
    """Validate a, orient it tall and factor it: sort its rows, take a QR
    with column pivoting, T[:, perm] = Q R, and run the Jacobi sweeps on
    R^T (the kernel's bt = R).

    T is the tall orientation (A, or A.T when transposed).  Returns
    (bt, vt, q, perm, transposed): the rows of bt are the orthogonalized
    columns of R^T, vt holds the accumulated rotations and q the QR's Q,
    both None unless with_vectors.  The rotations, and so bt, do not
    depend on with_vectors.
    """
    arr = _validated(a)
    n, m = arr.shape
    fro_sq = float(np.sum(arr * arr))
    transposed = n < m
    # the QR's scratch: arr is already a private copy
    target = np.ascontiguousarray(arr.T) if transposed else arr
    p, k = target.shape
    bt = np.empty((k, k))
    q = np.empty((p, k)) if with_vectors else None
    perm = _kernels.qrcp(target, bt, q)
    vt = np.eye(k) if with_vectors else None
    abs_tol = _ABS_TOL_SCALE * fro_sq
    rel_tol = max(_REL_TOL_FLOOR, 32.0 * np.finfo(np.float64).eps * p)
    sweeps, converged = _kernels.jacobi_sweeps(bt, vt, rel_tol, abs_tol, MAX_SWEEPS)
    if not converged:
        raise ConvergenceError(f"Jacobi SVD did not converge in {MAX_SWEEPS} sweeps")
    return bt, vt, q, perm, transposed


def svd(a):
    """One-sided Jacobi SVD, preconditioned by a row-sorted QR with column
    pivoting.

    Returns SvdResult(u, sigma, vt) with u of shape (n, k), sigma of
    length k = min(n, m) sorted descending, and vt of shape (k, m).
    Singular vectors are sign-canonicalized: the first entry of each right
    singular vector above 1e-12 of its max magnitude is positive.

    Raises ConvergenceError if 60 cyclic sweeps do not converge (not
    observed for finite float64 input at desk scale).
    """
    # T P = Q R and the sweep gives R^T = W diag(sigma) J with J = vt, so
    # T = (Q J^T) diag(sigma) (P W)^T
    bt, vt, q, perm, transposed = _jacobi(a, with_vectors=True)
    sig, order = _sorted_norms(bt)
    safe = np.where(sig > 0.0, sig, 1.0)
    w = _complete_zero_columns((bt[order] / safe[:, None]).T, sig)
    v_t = np.empty_like(w)  # (k, k), columns are right singular vectors of T
    v_t[perm] = w
    u_t = q @ vt[order].T  # (p, k) orthonormal columns

    if transposed:
        u, vt_out = v_t, u_t.T
    else:
        u, vt_out = u_t, v_t.T

    _canonical_signs(u, vt_out)
    u = np.ascontiguousarray(u)
    vt_out = np.ascontiguousarray(vt_out)
    for x in (u, sig, vt_out):
        x.flags.writeable = False
    return SvdResult(u=u, sigma=sig, vt=vt_out)


def _canonical_signs(u, vt):
    """Negate, in place, each row of vt whose first entry above 1e-12 of
    the row's max magnitude is negative, and the matching column of u.
    An all-zero row is keyed to its first entry and never flips."""
    mag = np.abs(vt)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
    flip = vt[np.arange(vt.shape[0]), lead] < 0.0
    vt[flip] = -vt[flip]
    u[:, flip] = -u[:, flip]


def _sorted_norms(bt):
    """(sigma, order): the row norms of the swept bt, which are the
    singular values, in descending order, and the stable order of bt's
    rows that sorts them."""
    sig = np.sqrt(np.einsum("ij,ij->i", bt, bt))
    order = np.argsort(-sig, kind="stable")
    return sig[order], order


def _singular_values(a):
    """svd(a).sigma, bit for bit, from a sweep that builds no vectors."""
    return _sorted_norms(_jacobi(a, with_vectors=False)[0])[0]


def condition_number(a):
    """Spectral condition number sigma_max / sigma_min from the Jacobi
    sweep's singular values (no singular vectors are built).

    Raises RankDeficientError (carrying the extreme singular values) when
    sigma_min <= RANK_TOL * sigma_max, including for the zero matrix.
    """
    return _strict_condition_number(_singular_values(a))


def _strict_condition_number(sigma):
    """sigma[0] / sigma[-1] of a descending spectrum, or RankDeficientError
    at RANK_TOL."""
    s_max = float(sigma[0])
    s_min = float(sigma[-1])
    if s_min <= RANK_TOL * s_max or s_max == 0.0:
        raise RankDeficientError(s_max, s_min, RANK_TOL)
    return s_max / s_min


def check_symmetric(arr, name="matrix"):
    """Raise NotSymmetricError unless ||A - A^T||_F <= 1e-12 * ||A||_F."""
    asym = np.linalg.norm(arr - arr.T)
    if asym > _SYM_TOL * max(np.linalg.norm(arr), np.finfo(np.float64).tiny):
        raise NotSymmetricError(f"{name} is not symmetric: ||{name}-{name}^T||={asym!r}")


def row_norms2(a):
    """Euclidean norm of each row."""
    arr = _validated(a)
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def col_norms2(a):
    """Euclidean norm of each column."""
    arr = _validated(a)
    return np.sqrt(np.einsum("ij,ij->j", arr, arr))
