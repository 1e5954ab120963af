"""Gradient descent on quadratic objectives, mode by mode.

For L(theta) = 1/2 theta^T A theta - b^T theta with symmetric positive
definite A, plain GD decouples along the singular directions of A: the
coefficient of mode i contracts by (1 - eta * sigma_i) each step, so the
whole trajectory is predictable in closed form and the stable step-size
range is exactly eta < 2 / sigma_max.  This module implements the model,
the stable step-size bound and a recorded GD run.  Diagonal
preconditioning is done by the caller, as a new QuadraticProblem in
scaled coordinates (see bench.experiments.run_quad).

`run_gd` runs one problem, or a stack of same-size problems in one loop
(run_quad's arms: plain and each diagonal scaling), every member with the
bits of its own run.  Each run is recorded as the table of its trace CSV:
per iterate its loss, its norm and its mode coefficients, filled in place
over the iterates after the loop.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from equilab import densela
from equilab._csvfmt import csv_blocks
from equilab.errors import (
    DimensionError,
    InaccurateSolveError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

DIVERGENCE_NORM = 1e12
MAX_ITERS = 1_000_000
# steps per divergence check, and iterates per batched loss/mode call, in
# run_gd; small blocks keep the temporaries out of peak RSS (whole-trace
# 1 MB temporaries of a 2000-step, 64-dim run cost 1-2 MB of it)
TRACE_BLOCK_ROWS = 128
# cells (8 bytes each) run_gd reserves for its stack of trace tables up
# front: a whole stack of up to 2**20 cells (quad64's 3 x 2001 x 66 is
# 396K) is allocated once; a longer one starts at this size and doubles
# as it runs, so an early divergence never reserves iters * n cells
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
    """Recorded gradient-descent trajectory, held as its CSV table.

    table has one row per iterate (steps + 1 rows) and n + 2 columns: the
    loss, the iterate's norm, then the n mode coefficients
    V^T (theta_t - theta_star) in the descending-sigma ordering of
    `sigma`.  losses and mode_coeffs are views of its columns.  diverged
    is set when the iterate norm passed 1e12 or went non-finite; the trace
    keeps everything up to and including the offending iterate.
    """

    table: np.ndarray
    eta: float
    sigma: np.ndarray
    diverged: bool

    @property
    def losses(self):
        return self.table[:, 0]

    @property
    def mode_coeffs(self):
        return self.table[:, 2:]

    @property
    def kappa(self):
        return float(self.sigma[0] / self.sigma[-1])

    def csv_blocks(self):
        """CSV text as `_csvfmt.csv_blocks` strs: a metadata comment line,
        then RFC-4180 rows (CRLF line ends): iter, then the table's row.

        Every float, sigma included, is its shortest round-trip `repr`.
        The rows come a block at a time, so a writer can put each str in
        its file before the next is made: on the compiled backend the
        extension formats them, on the numpy fallback `repr` runs once per
        distinct value per block of rows.
        """
        meta = "# eta=%r kappa=%r diverged=%s sigma=[%s]" % (
            self.eta,
            self.kappa,
            self.diverged,
            " ".join(map(repr, self.sigma.tolist())),
        )
        n_modes = self.table.shape[1] - 2
        header = "iter,loss,theta_norm" + "".join(f",mode_{i}" for i in range(n_modes))
        return csv_blocks([meta, header], self.table)

    def to_csv(self):
        """The CSV text of `csv_blocks` as one str."""
        return "".join(self.csv_blocks())


def run_gd(problem, theta0, eta, iters):
    """Run plain gradient descent on a QuadraticProblem and record the full
    trajectory as a GDTrace.

    `problem` may instead be a sequence of same-size problems, with a
    sequence of as many theta0s and etas: the runs then step as one stack
    and a list of their traces is returned, each equal bit for bit to the
    problem's own run (one BLAS gemv per member and step, as alone).

    A run stops early with the diverged flag once the iterate norm exceeds
    1e12 or goes non-finite; the offending iterate is kept so traces stay
    inspectable.  The loop computes only the iterates, into columns 2: of
    one (members, iters + 1, n + 2) block allocated before the first step
    when it holds at most GD_PREALLOC_CELLS cells; a longer run starts
    with that many cells and doubles the block, up to iters + 1 rows, as
    steps need it.  Divergence is checked once per TRACE_BLOCK_ROWS steps
    from the stored rows, with the bits of a per-step norm; a member that
    diverged leaves the stack with a copy of the rows it ran.  After the
    loop, each block of TRACE_BLOCK_ROWS rows of a trace gets its losses,
    norms and mode coefficients in place, with the bits of per-step calls
    (see `QuadraticProblem.loss`): the block becomes the CSV table.
    """
    stacked = not isinstance(problem, QuadraticProblem)
    problems, thetas, etas = ((list(problem), list(theta0), list(eta)) if stacked
                              else ([problem], [theta0], [eta]))
    if not problems or not len(problems) == len(thetas) == len(etas):
        raise DimensionError(f"run_gd needs one theta0 and one eta per problem, got "
                             f"{len(problems)} problems, {len(thetas)} theta0s and "
                             f"{len(etas)} etas")
    n = problems[0].n
    if any(p.n != n for p in problems):
        raise DimensionError(f"stacked problems differ in size: {[p.n for p in problems]}")
    for e in etas:
        if e <= 0.0 or not np.isfinite(e):
            raise DimensionError(f"eta must be positive and finite, got {e!r}")
    if not (0 <= iters <= MAX_ITERS):
        raise DimensionError(f"iters must be in [0, {MAX_ITERS}], got {iters}")
    theta = np.stack([_check_vector(t, n, "theta0") for t in thetas])
    for p in problems:
        p.theta_star  # raises before the loop on an indefinite A

    tables = _iterate_tables(problems, theta, etas, iters)
    traces = []
    for p, e, (table, diverged) in zip(problems, etas, tables):
        _fill_table(p, table)
        traces.append(GDTrace(table=table, eta=float(e), sigma=p.svd.sigma.copy(),
                              diverged=diverged))
    return traces if stacked else traces[0]


def _iterate_tables(problems, theta, etas, iters):
    """GD from the (k, n) theta stack: per member, (its rows, diverged),
    the iterates in columns 2: of each (rows, n + 2) table."""
    k, n = theta.shape
    width = n + 2
    a = np.stack([p.a for p in problems])
    b = np.stack([p.b for p in problems])
    lr = np.array(etas, dtype=np.float64)[:, None]
    block = np.empty((k, min(iters + 1, max(1, GD_PREALLOC_CELLS // (k * width))), width))
    block[:, 0, 2:] = theta
    alive = list(range(k))
    tables = [None] * k
    checked = 0
    # a member that diverged steps on until its block of rows is checked,
    # and may overflow there
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, iters + 1):
            # theta stays a fresh array every step, so each member's gemv
            # sees the operand a solo run sees
            theta = theta - lr * ((a @ theta[:, :, None])[:, :, 0] - b)
            if t == block.shape[1]:
                grown = np.empty((len(alive), min(iters + 1, 2 * t), width))
                grown[:, :t] = block
                block = grown
            block[:, t, 2:] = theta
            if t - checked < TRACE_BLOCK_ROWS and t < iters:
                continue
            first, checked = checked + 1, t
            rows = block[:, first:t + 1, 2:]
            # one ddot per row, as `theta.dot(theta)` of each step
            norms = np.sqrt((rows[:, :, None, :] @ rows[:, :, :, None])[:, :, 0, 0])
            offending = ~(norms <= DIVERGENCE_NORM)
            if not offending.any():
                continue
            keep = []
            for j, hits in enumerate(offending):
                if hits.any():
                    # keep the rows run, not the block sized for more steps
                    tables[alive[j]] = (block[j, :first + int(hits.argmax()) + 1].copy(), True)
                else:
                    keep.append(j)
            alive = [alive[j] for j in keep]
            if not alive:
                break
            block, theta, a, b, lr = block[keep], theta[keep], a[keep], b[keep], lr[keep]
    for j, member in enumerate(alive):
        tables[member] = (block[j], False)
    return tables


def _fill_table(problem, table):
    """Overwrite each iterate in columns 2: of table with its mode
    coefficients, after its loss and norm are written to columns 0 and 1;
    one batched call per block of TRACE_BLOCK_ROWS rows."""
    res, theta_star = problem.svd, problem.theta_star
    for i in range(0, len(table), TRACE_BLOCK_ROWS):
        rows = table[i:i + TRACE_BLOCK_ROWS]
        theta = rows[:, 2:]
        rows[:, 0] = problem.loss(theta)
        rows[:, 1] = np.linalg.norm(theta, axis=1)
        # one gemv per row, as `vt @ (theta - theta_star)` for each theta
        theta[...] = (res.vt @ (theta - theta_star)[:, :, None])[:, :, 0]
