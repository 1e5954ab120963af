"""Gradient descent on quadratic objectives, mode by mode.

For L(theta) = 1/2 theta^T A theta - b^T theta with symmetric positive
definite A, plain GD decouples along the singular directions of A: the
coefficient of mode i contracts by (1 - eta * sigma_i) each step, so the
whole trajectory is predictable in closed form and the stable step-size
range is exactly eta < 2 / sigma_max.  This module implements the model,
the prediction, and a left-preconditioned variant whose objective is
theta^T PA theta - (Pb)^T theta (note: no 1/2, so curvature doubles when
PA is symmetric).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from equilab import densela
from equilab.errors import DimensionError, NonFiniteError

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
    rank.  The SVD and the minimizer are cached; kappa comes from the
    cached SVD, so each problem runs one SVD.
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
        return densela._strict_condition_number(self.svd.sigma, 1e-12)

    @cached_property
    def theta_star(self):
        return densela.solve_spd(self.a, self.b)

    # hooks shared with PreconditionedQuadratic so run_gd treats both alike
    @property
    def gd_matrix(self):
        return self.a

    @property
    def gd_vector(self):
        return self.b

    def loss(self, theta):
        t = np.asarray(theta, dtype=np.float64)
        return float(0.5 * t @ self.a @ t - self.b @ t)

    def gradient(self, theta):
        t = np.asarray(theta, dtype=np.float64)
        return self.a @ t - self.b


@dataclass(frozen=True)
class PreconditionedQuadratic:
    """L_P(theta) = theta^T (PA) theta - (Pb)^T theta for a left scaling P.

    The gradient uses the symmetrized curvature M = PA + (PA)^T, since
    only the symmetric part of PA contributes to the objective.  When PA
    is symmetric this doubles the curvature of the 1/2-weighted plain
    form, so matching step sizes must be halved.
    """

    pa: np.ndarray
    pb: np.ndarray
    kappa_plain: float
    kappa_pa: float

    def __post_init__(self):
        arr = densela._validated(self.pa, "PA")
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"PA must be square, got {arr.shape}")
        vec = _check_vector(self.pb, arr.shape[0], "Pb")
        arr.flags.writeable = False
        vec.flags.writeable = False
        object.__setattr__(self, "pa", arr)
        object.__setattr__(self, "pb", vec)

    @cached_property
    def sym(self):
        return self.pa + self.pa.T

    @cached_property
    def svd(self):
        return densela.svd(self.sym)

    @cached_property
    def theta_star(self):
        # minimizer of the quadratic when M is positive definite
        return densela.solve_spd(self.sym, self.pb)

    @property
    def n(self):
        return self.pa.shape[0]

    @property
    def gd_matrix(self):
        return self.sym

    @property
    def gd_vector(self):
        return self.pb

    def loss(self, theta):
        t = np.asarray(theta, dtype=np.float64)
        return float(t @ self.pa @ t - self.pb @ t)

    def gradient(self, theta):
        t = np.asarray(theta, dtype=np.float64)
        return self.sym @ t - self.pb


def preconditioned_problem(problem, p):
    """Build the preconditioned objective from a QuadraticProblem and a
    DiagonalPreconditioner (or raw diagonal vector)."""
    from equilab.precond import DiagonalPreconditioner

    if not isinstance(p, DiagonalPreconditioner):
        p = DiagonalPreconditioner(np.asarray(p, dtype=np.float64), side="left")
    pa = p.apply(problem.a)
    pb = p.diag * problem.b
    return PreconditionedQuadratic(
        pa=pa,
        pb=pb,
        kappa_plain=problem.kappa,
        kappa_pa=densela.condition_number(pa),
    )


def loss(problem, theta):
    return problem.loss(theta)


def gradient(problem, theta):
    return problem.gradient(theta)


def hessian(problem):
    return problem.gd_matrix


def max_stable_lr(problem):
    """2 / sigma_max of the curvature matrix the GD iteration actually sees."""
    return 2.0 / float(problem.svd.sigma[0])


def predicted_modes(problem, theta0, eta, t):
    """Closed-form mode coefficients after t steps: (1 - eta sigma_i)^t x0_i,
    where x0 = V^T (theta0 - theta_star)."""
    if t < 0:
        raise DimensionError(f"t must be >= 0, got {t}")
    t0 = _check_vector(theta0, problem.n, "theta0")
    res = problem.svd
    x0 = res.vt @ (t0 - problem.theta_star)
    return (1.0 - eta * res.sigma) ** t * x0


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
    theta_star: np.ndarray
    diverged: bool

    @property
    def steps(self):
        return self.iterates.shape[0] - 1

    @property
    def kappa(self):
        return float(self.sigma[0] / self.sigma[-1])

    def to_csv(self, path):
        """Metadata comment line, then RFC-4180 rows (CRLF line ends)."""
        n_modes = self.mode_coeffs.shape[1]
        buf = [
            "# eta=%r kappa=%r diverged=%s sigma=[%s]"
            % (
                self.eta,
                self.kappa,
                self.diverged,
                " ".join(repr(float(s)) for s in self.sigma),
            )
        ]
        header = "iter,loss,theta_norm" + "".join(f",mode_{i}" for i in range(n_modes))
        buf.append(header)
        norms = np.linalg.norm(self.iterates, axis=1)
        for t in range(self.iterates.shape[0]):
            cells = [str(t), repr(float(self.losses[t])), repr(float(norms[t]))]
            cells += [repr(float(x)) for x in self.mode_coeffs[t]]
            buf.append(",".join(cells))
        data = "\r\n".join(buf) + "\r\n"
        if hasattr(path, "write"):
            path.write(data)
        else:
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(data)


def run_gd(problem, theta0, eta, iters):
    """Run plain gradient descent and record the full trajectory.

    Works for QuadraticProblem and PreconditionedQuadratic.  Terminates
    early with the diverged flag once the iterate norm exceeds 1e12 or
    goes non-finite; the offending iterate is kept so traces stay
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

    iterates = [theta.copy()]
    losses = [problem.loss(theta)]
    modes = [vt @ (theta - theta_star)]
    diverged = False
    for _ in range(iters):
        theta = theta - eta * problem.gradient(theta)
        iterates.append(theta.copy())
        losses.append(problem.loss(theta))
        modes.append(vt @ (theta - theta_star))
        norm = np.linalg.norm(theta)
        if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
            diverged = True
            break
    return GDTrace(
        iterates=np.array(iterates),
        losses=np.array(losses),
        mode_coeffs=np.array(modes),
        eta=float(eta),
        sigma=res.sigma.copy(),
        theta_star=theta_star,
        diverged=diverged,
    )
