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
from equilab._csvfmt import csv_text, format_rows
from equilab.errors import (
    DimensionError,
    InaccurateSolveError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

DIVERGENCE_NORM = 1e12
MAX_ITERS = 1_000_000


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
        t = np.asarray(theta, dtype=np.float64)
        return float(0.5 * t @ self.a @ t - self.b @ t)

    def gradient(self, theta):
        """A theta - b; a (k, n) stack of rows gives the (k, n) gradients
        from one matrix product (equal to per-row calls up to rounding)."""
        t = np.asarray(theta, dtype=np.float64)
        return (self.a @ t.T).T - self.b


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

        Every float, sigma included, is its shortest round-trip `repr`;
        `_csvfmt.format_rows` writes them, in the compiled extension or,
        on the numpy fallback, with one `repr` call per distinct value per
        block of rows.
        """
        n_modes = self.mode_coeffs.shape[1]
        buf = [
            "# eta=%r kappa=%r diverged=%s sigma=[%s]"
            % (
                self.eta,
                self.kappa,
                self.diverged,
                format_rows(self.sigma[None, :], sep=" ")[0],
            )
        ]
        header = "iter,loss,theta_norm" + "".join(f",mode_{i}" for i in range(n_modes))
        buf.append(header)
        norms = np.linalg.norm(self.iterates, axis=1)
        values = np.column_stack([self.losses, norms, self.mode_coeffs])
        buf += format_rows(values, first=range(len(values)))
        return csv_text(buf)


def run_gd(problem, theta0, eta, iters):
    """Run plain gradient descent on a QuadraticProblem and record the full
    trajectory.

    Terminates early with the diverged flag once the iterate norm exceeds
    1e12 or goes non-finite; the offending iterate is kept so traces stay
    inspectable.
    """
    if eta <= 0.0 or not np.isfinite(eta):
        raise DimensionError(f"eta must be positive and finite, got {eta!r}")
    if not (0 <= iters <= MAX_ITERS):
        raise DimensionError(f"iters must be in [0, {MAX_ITERS}], got {iters}")
    theta = _check_vector(theta0, problem.n, "theta0")
    res = problem.svd
    theta_star = problem.theta_star
    vt = res.vt

    # theta is rebound every step, never written in place, so no copies
    iterates = [theta]
    losses = [problem.loss(theta)]
    modes = [vt @ (theta - theta_star)]
    diverged = False
    for _ in range(iters):
        theta = theta - eta * problem.gradient(theta)
        iterates.append(theta)
        losses.append(problem.loss(theta))
        modes.append(vt @ (theta - theta_star))
        # what np.linalg.norm computes for a 1-D array, without its overhead
        norm = math.sqrt(theta.dot(theta))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            diverged = True
            break
    return GDTrace(
        iterates=np.array(iterates),
        losses=np.array(losses),
        mode_coeffs=np.array(modes),
        eta=float(eta),
        sigma=res.sigma.copy(),
        diverged=diverged,
    )
