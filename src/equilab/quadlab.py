"""Gradient descent on quadratic objectives, mode by mode.

For L(theta) = 1/2 theta^T A theta - b^T theta with symmetric positive
definite A, plain GD decouples along the singular directions of A: the
coefficient of mode i contracts by (1 - eta * sigma_i) each step, so the
whole trajectory is predictable in closed form and the stable step-size
range is exactly eta < 2 / sigma_max.  This module implements the model,
the stable step-size bound and a recorded GD run.  Diagonal
preconditioning is done by the caller, as a new QuadraticProblem in
scaled coordinates (see bench.experiments.run_quad).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from equilab import densela
from equilab._csvfmt import format_csv
from equilab.errors import (
    DimensionError,
    InaccurateSolveError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

DIVERGENCE_NORM = 1e12
MAX_ITERS = 1_000_000
# iterates per batched loss/mode call in run_gd; small blocks keep the
# temporaries out of peak RSS (whole-trace 1 MB temporaries of a 2000-step,
# 64-dim run cost 1-2 MB of it)
TRACE_BLOCK_ROWS = 128
# cells (8 bytes each) run_gd reserves for iterates up front: a whole
# trace of up to 2**20 cells (quad64's 2001 x 64 is 128K) is allocated
# once; a longer one starts at this size and doubles as it runs, so an
# early divergence never reserves iters * n cells
GD_PREALLOC_CELLS = 2**20


def _check_vector(b, n, name="b"):
    v = np.asarray(b, dtype=np.float64).reshape(-1).copy()
    if v.size != n:
        raise DimensionError(f"{name} has length {v.size}, expected {n}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class QuadraticProblem:
    """L(theta) = 1/2 theta^T A theta - b^T theta, A symmetric full rank.

    Construction verifies symmetry (1e-12 relative) and numerical full
    rank.  The SVD and the minimizer are cached; kappa and the minimizer
    both come from the cached SVD, so each problem runs one SVD and no
    other factorization.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        arr = densela._validated(self.a, "A")
        n, m = arr.shape
        if n != m:
            raise DimensionError(f"A must be square, got {arr.shape}")
        densela.check_symmetric(arr, "A")
        arr = 0.5 * (arr + arr.T)
        vec = _check_vector(self.b, n)
        arr.flags.writeable = False
        vec.flags.writeable = False
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "b", vec)
        self.kappa  # force the full-rank check at construction

    @property
    def n(self):
        return self.a.shape[0]

    @cached_property
    def svd(self):
        return densela.svd(self.a)

    @cached_property
    def kappa(self):
        return densela._strict_condition_number(self.svd.sigma)

    @cached_property
    def theta_star(self):
        """The minimizer A^{-1} b from the cached SVD, refined once.

        A symmetric full-rank A is positive definite exactly when
        V^T U = I; an indefinite A puts a -1 eigenvalue in V^T U, so
        ||V^T U - I||_F >= 2.  NotPositiveDefiniteError is raised from 1,
        and InaccurateSolveError when ||b - A x|| > 1e-9 * max(1, ||b||).
        """
        u, sigma, vt = self.svd.u, self.svd.sigma, self.svd.vt
        if np.linalg.norm(vt @ u - np.eye(self.n)) >= 1.0:
            raise NotPositiveDefiniteError("A is symmetric but not positive definite")
        a, b = self.a, self.b
        x = vt.T @ ((u.T @ b) / sigma)
        x += vt.T @ ((u.T @ (b - a @ x)) / sigma)
        resid = float(np.linalg.norm(b - a @ x))
        if resid > 1e-9 * max(1.0, float(np.linalg.norm(b))):
            raise InaccurateSolveError(f"theta_star residual {resid!r} exceeds tolerance")
        x.flags.writeable = False
        return x

    def loss(self, theta):
        """1/2 theta^T A theta - b^T theta under the row-stack contract of
        `hesslab`: a (n,) theta gives a float, a (k, n) stack the (k,)
        losses, row i bit-identical to a call on row i alone.

        Rows sit on a leading batch axis, so matmul runs the same BLAS
        gemv and dot per row as the one-row call; one 2-D product (a gemm)
        or einsum would round differently.
        """
        t = np.asarray(theta, dtype=np.float64)
        if t.ndim == 1:
            return float(0.5 * t @ self.a @ t - self.b @ t)
        quad = (((0.5 * t)[:, None, :] @ self.a) @ t[:, :, None])[:, 0, 0]
        return quad - (self.b @ t[:, :, None])[:, 0]

    def gradient(self, theta):
        """A theta - b under the same contract as `loss`: a (n,) theta gives
        (n,), a (k, n) stack the (k, n) gradients, row i bit-identical to a
        call on row i alone (one gemv per row)."""
        t = np.asarray(theta, dtype=np.float64)
        return (self.a @ t[..., None])[..., 0] - self.b


def max_stable_lr(problem):
    """2 / sigma_max of A: GD diverges along the top mode for any larger eta."""
    return 2.0 / float(problem.svd.sigma[0])


@dataclass(frozen=True)
class GDTrace:
    """Recorded gradient-descent trajectory.

    iterates has shape (steps+1, n); losses and mode_coeffs align with it.
    mode_coeffs[t] = V^T (theta_t - theta_star) in the descending-sigma
    ordering of `sigma`.  diverged is set when the iterate norm passed
    1e12 or went non-finite; the trace keeps everything up to and
    including the offending iterate.
    """

    iterates: np.ndarray
    losses: np.ndarray
    mode_coeffs: np.ndarray
    eta: float
    sigma: np.ndarray
    diverged: bool

    @property
    def kappa(self):
        return float(self.sigma[0] / self.sigma[-1])

    def to_csv(self):
        """CSV text: a metadata comment line, then RFC-4180 rows (CRLF line
        ends).

        Every float, sigma included, is its shortest round-trip `repr`.
        The text comes from `_csvfmt.format_csv`, sigma's cells inside the
        comment line from a second, one-row call: on the compiled backend
        the extension writes the text in place into one str, on the numpy
        fallback `repr` runs once per distinct value per block of rows.
        """
        n_modes = self.mode_coeffs.shape[1]
        meta = "# eta=%r kappa=%r diverged=%s sigma=[%s]" % (
            self.eta,
            self.kappa,
            self.diverged,
            format_csv([], self.sigma[None, :], sep=" ")[:-2],
        )
        header = "iter,loss,theta_norm" + "".join(f",mode_{i}" for i in range(n_modes))
        norms = np.linalg.norm(self.iterates, axis=1)
        values = np.column_stack([self.losses, norms, self.mode_coeffs])
        return format_csv([meta, header], values, first=range(len(values)))


def run_gd(problem, theta0, eta, iters):
    """Run plain gradient descent on a QuadraticProblem and record the full
    trajectory.

    Terminates early with the diverged flag once the iterate norm exceeds
    1e12 or goes non-finite; the offending iterate is kept so traces stay
    inspectable.  The loop computes only the iterates, into one
    (iters + 1, n) array allocated before the first step when it holds at
    most GD_PREALLOC_CELLS cells; a longer run starts with that many cells
    and doubles the array, up to iters + 1 rows, as steps need it.  A
    trace that stops early keeps a copy of the rows it ran, not that
    array.  The losses and mode coefficients are
    computed after the loop, one batched call per block of
    TRACE_BLOCK_ROWS iterates, with the bits of per-step calls (see
    `QuadraticProblem.loss`).
    """
    if eta <= 0.0 or not np.isfinite(eta):
        raise DimensionError(f"eta must be positive and finite, got {eta!r}")
    if not (0 <= iters <= MAX_ITERS):
        raise DimensionError(f"iters must be in [0, {MAX_ITERS}], got {iters}")
    theta = _check_vector(theta0, problem.n, "theta0")
    res = problem.svd
    theta_star = problem.theta_star  # raises before the loop on an indefinite A

    # theta stays a fresh array every step, so the gradient's BLAS call
    # sees the operand it saw when these bits were set; a row is a copy
    iterates = np.empty((min(iters + 1, max(1, GD_PREALLOC_CELLS // problem.n)), problem.n))
    iterates[0] = theta
    diverged = False
    for t in range(1, iters + 1):
        theta = theta - eta * problem.gradient(theta)
        if t == len(iterates):
            grown = np.empty((min(iters + 1, 2 * t), problem.n))
            grown[:t] = iterates
            iterates = grown
        iterates[t] = theta
        # what np.linalg.norm computes for a 1-D array, without its overhead
        norm = math.sqrt(theta.dot(theta))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            diverged = True
            # keep the rows run, not the buffer sized for more steps
            iterates = iterates[:t + 1].copy()
            break
    losses = np.empty(len(iterates))
    modes = np.empty_like(iterates)
    for i in range(0, len(iterates), TRACE_BLOCK_ROWS):
        block = slice(i, i + TRACE_BLOCK_ROWS)
        rows = iterates[block]
        losses[block] = problem.loss(rows)
        # one gemv per row, as `vt @ (theta - theta_star)` for each theta
        modes[block] = (res.vt @ (rows - theta_star)[:, :, None])[:, :, 0]
    return GDTrace(
        iterates=iterates,
        losses=losses,
        mode_coeffs=modes,
        eta=float(eta),
        sigma=res.sigma.copy(),
        diverged=diverged,
    )
