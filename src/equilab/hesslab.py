"""Finite-difference Hessians and curvature-conditioning comparisons.

The Hessian of a loss is estimated from central differences of the
analytic gradient, FD_CHUNK columns per gradient call, and symmetrized;
hessian_kappa takes its condition number over the numerically surviving
spectrum (eigenvalue magnitudes from LAPACK eigvalsh above rank_tol *
sigma_max), since reparametrized losses have exact null directions that
would make the strict condition number meaningless.  Those nulls are not
the radial directions: scale invariance of a row gives r^T H r = 0 and
H r = -g_r for its radial direction r and row gradient g_r.  Dense
equilibration normalizes one row per input unit of the (in, out) W (its
outgoing weights), so the nulls come from rows with a single entry, which
it pins to sign(w) (every row of a k->1 output layer under
conditioned="all"): such a weight has zero gradient and zero curvature.
The finite-difference noise floor makes the Jacobi SVD's relative
accuracy moot here; weight matrices keep using it (see densela).

Gradient functions follow a (n)->(n) gufunc contract: given a (k, n)
stack of parameter rows they return the (k, n) stack of gradients, row i
the gradient at row i (bit-identical to a call on row i alone for
net_loss_functions).  Every gradient call here passes a stack (a one-row
stack for a single theta), so a gradient function without that contract
fails at once.  Loss functions take a single theta.
"""

import logging
from dataclasses import dataclass

import numpy as np

from equilab import densela
from equilab._heap import keep_freed_heap
from equilab.errors import DimensionError, EmptyResultError, GradientCheckError
from equilab.net.network import Network
from equilab.net.train import loss_and_gradients, mse_loss, train

log = logging.getLogger(__name__)

MAX_HESSIAN_DIM = 2000
# cbrt(eps) ~6.06e-6, optimal for central differences
FD_STEP_SCALE = np.finfo(np.float64).eps ** (1.0 / 3.0)
# Hessian columns per gradient call (a stack of 2 * FD_CHUNK rows), sized
# by peak memory.  On the 121-parameter 2-16-4-1 fixture (2 vCPU Xeon, BLAS
# on one thread), one plain plus one equilibrated Hessian took 57 ms at one
# column per call, 28 ms at 4, 24 ms at 8 and 40-42 ms at 12-32.  In the
# hess121 benchmark workload, 4 columns add 0.5 MB to the 43 MB peak RSS
# and 8 columns add 1.9 MB for a further 9% of run time.
FD_CHUNK = 4

CSV_HEADER = "seed,phase,kappa_plain,kappa_eq,rank_ok_plain,rank_ok_eq"

# snapshot points are taken after these epochs of a reference SGD run:
# 1/4, 1/2 and 3/4 of 40 epochs
SNAPSHOT_EPOCHS = (10, 20, 30)

# gradient self-check: relative tolerance and number of random directions
SELF_CHECK_TOL = 1e-5
SELF_CHECK_DIRS = 5


def fd_step_sizes(theta):
    """Per-coordinate central-difference steps: cbrt(eps) * max(1, |theta_i|)."""
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(theta))


def _stacked_grad(grad_fn, rows):
    """grad_fn on a (k, n) stack of rows; any other result shape raises."""
    g = np.asarray(grad_fn(rows), dtype=np.float64)
    if g.shape != rows.shape:
        raise DimensionError(f"gradient stack of shape {g.shape} for a parameter "
                             f"stack of shape {rows.shape}")
    return g


def gradient_self_check(loss_fn, grad_fn, theta):
    """Verify grad_fn against directional central differences of loss_fn.

    grad_fn is called once, on theta as a one-row stack, and that
    gradient is returned.  Directions are fixed by an internal seed so the
    check is deterministic.  Raises GradientCheckError beyond
    SELF_CHECK_TOL (relative) in any of SELF_CHECK_DIRS directions.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    g = _stacked_grad(grad_fn, theta[None, :])[0]
    rng = np.random.default_rng(np.random.SeedSequence((0x5E1F, theta.size)))
    h = FD_STEP_SCALE * max(1.0, float(np.max(np.abs(theta))))
    gnorm = float(np.linalg.norm(g))
    for k in range(SELF_CHECK_DIRS):
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        fd = (loss_fn(theta + h * d) - loss_fn(theta - h * d)) / (2.0 * h)
        an = float(g @ d)
        scale = max(abs(fd), abs(an), 1e-8 * max(gnorm, 1.0))
        if abs(fd - an) > SELF_CHECK_TOL * scale:
            raise GradientCheckError(
                f"direction {k}: analytic {an!r} vs central FD {fd!r} "
                f"(relative error {abs(fd - an) / scale:.3e} > {SELF_CHECK_TOL:g})")
    return g


@dataclass(frozen=True)
class HessianEstimate:
    """Symmetrized central-difference Hessian.

    asymmetry is ||H_raw - H_raw^T||_F measured before symmetrization,
    kept as a quality signal.
    """

    h: np.ndarray
    asymmetry: float


def fd_hessian(loss_fn, grad_fn, theta):
    """Central-difference Hessian from the analytic gradient.

    H[:, i] = (grad(theta + h_i e_i) - grad(theta - h_i e_i)) / (2 h_i),
    then symmetrized as (H + H^T) / 2.  Dimension is capped at 2000.
    grad_fn must follow the (n)->(n) row-stack contract (module
    docstring): the columns are evaluated FD_CHUNK at a time as one call
    on a (2 * FD_CHUNK, n) stack, plus rows and minus rows.  When grad_fn's
    rows are bit-identical to single-theta calls, so is H to the
    column-by-column loop.  A result of any other shape raises
    DimensionError.  The gradient at theta is first validated against
    finite differences of the loss (gradient_self_check), so a Hessian
    takes ceil(n / FD_CHUNK) + 1 gradient calls.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1).copy()
    n = theta.size
    if n < 1 or n > MAX_HESSIAN_DIM:
        raise DimensionError(f"theta size {n} outside [1, {MAX_HESSIAN_DIM}]")
    if not np.isfinite(theta).all():
        raise DimensionError("theta contains non-finite entries")
    keep_freed_heap()
    gradient_self_check(loss_fn, grad_fn, theta)
    steps = fd_step_sizes(theta)
    h_raw = np.empty((n, n))
    for start in range(0, n, FD_CHUNK):
        cols = np.arange(start, min(start + FD_CHUNK, n))
        k = cols.size
        rows = np.tile(theta, (2 * k, 1))
        rows[np.arange(k), cols] += steps[cols]
        rows[np.arange(k, 2 * k), cols] -= steps[cols]
        g = _stacked_grad(grad_fn, rows)
        h_raw[:, cols] = ((g[:k] - g[k:]) / (2.0 * steps[cols])[:, None]).T
    asym = float(np.linalg.norm(h_raw - h_raw.T))
    h = 0.5 * (h_raw + h_raw.T)
    return HessianEstimate(h=h, asymmetry=asym)


@dataclass(frozen=True)
class KappaSummary:
    """Condition number of a Hessian over its surviving spectrum.

    full_rank is the strict verdict at rank_tol; kappa is sigma_max over
    the smallest surviving singular value (the strict condition number
    when full_rank, nan when nothing survives).  n_surviving counts
    retained directions.
    """

    kappa: float
    full_rank: bool
    n_surviving: int


def hessian_kappa(h, rank_tol=1e-8):
    """Condition number of a square symmetric matrix over its surviving
    spectrum.

    The spectrum is the sorted eigenvalue magnitudes from LAPACK eigvalsh,
    which for a symmetric matrix are its singular values; it survives above
    rank_tol * sigma_max, and rank_tol must lie in (0, 1).  The default
    1e-8 sits well above the finite-difference noise floor and so far above
    eigvalsh's eps * ||H|| error.  A matrix that is not symmetric to 1e-12
    (relative, Frobenius) raises NotSymmetricError.
    """
    if not 0.0 < rank_tol < 1.0:
        raise DimensionError(f"rank_tol must be in (0, 1), got {rank_tol!r}")
    arr = densela._validated(h, "hessian")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"hessian must be square, got {arr.shape}")
    densela.check_symmetric(arr, "hessian")
    # eigvalsh reads one triangle, hence the symmetry check above
    sig = np.sort(np.abs(np.linalg.eigvalsh(arr)))[::-1]
    # rank_tol < 1 keeps sigma_max itself unless the spectrum is all zero
    n_keep = int(np.count_nonzero(sig > rank_tol * sig[0]))
    kappa = float(sig[0]) / float(sig[n_keep - 1]) if n_keep else float("nan")
    return KappaSummary(kappa=kappa, full_rank=n_keep == sig.size, n_surviving=n_keep)


def net_loss_functions(net, x, y):
    """(loss_fn, grad_fn) of the MSE loss over the flat parameter vector of
    a network.

    loss_fn takes one theta.  grad_fn follows the (n)->(n) row-stack
    contract: a theta of shape (n,) gives (n,), a (k, n) stack gives the
    (k, n) gradients from one stacked forward/backward pass, dense and
    conv layers alike; batch norm stacks, every row using the net's
    running statistics.  The closures own a private clone, so the caller's
    net is untouched.  Evaluation uses eval mode (deterministic, running
    statistics for any batch norm), and a non-finite activation in any row
    raises NonFiniteActivationError.
    """
    worker = net.clone()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def loss_fn(theta):
        worker.set_params_vector(theta)
        return mse_loss(worker.forward(x), y)[0]

    def grad_fn(theta):
        worker.set_params_vector(theta)
        _, grads = loss_and_gradients(worker, x, y, training=False)
        return worker.grads_to_vector(grads)

    return loss_fn, grad_fn


@dataclass(frozen=True)
class KappaComparison:
    """One theta: curvature conditioning of plain vs equilibrated loss."""

    seed: int
    phase: str  # "init" or "snapshot"
    kappa_plain: float
    kappa_eq: float
    rank_ok_plain: bool
    rank_ok_eq: bool
    n_surviving_plain: int
    n_surviving_eq: int

    @property
    def satisfied(self):
        """kappa ordering with a 1e-6 relative allowance."""
        return self.kappa_eq <= self.kappa_plain * (1.0 + 1e-6)

    def csv_row(self):
        return (f"{self.seed},{self.phase},{self.kappa_plain!r},{self.kappa_eq!r},"
                f"{self.rank_ok_plain},{self.rank_ok_eq}")


@dataclass(frozen=True)
class CurvatureSweepSummary:
    """Counts of one sweep; skipped points are split by reason."""

    n_points: int
    n_comparable: int
    n_satisfied: int
    n_skipped_self_check: int     # the FD gradient self-check failed
    n_skipped_empty_spectrum: int  # either side had no surviving spectrum

    @property
    def n_skipped(self):
        return self.n_skipped_self_check + self.n_skipped_empty_spectrum

    @property
    def fraction_satisfied(self):
        return self.n_satisfied / self.n_comparable if self.n_comparable else float("nan")


def compare_curvature_sweep(specs, x, y, *, n_points=40, seed=0,
                            rank_tol=1e-8, conditioned="all"):
    """Sample parameter points and compare plain vs equilibrated curvature
    of the MSE loss.

    Half the points are fresh seeded initializations; the other half are
    snapshots of reference SGD runs of the plain network (lr 0.05, batch
    16), taken after SNAPSHOT_EPOCHS.  conditioned is
    with_conditioning's which ("hidden" or "all").  Returns
    (comparisons, summary).  Points where the FD gradient self-check
    fails, or where either side has no surviving spectrum, are skipped and
    counted per reason.
    """
    if n_points < 1:
        raise DimensionError("n_points must be >= 1")
    base = Network(specs, seed=seed)
    if base.parameter_count() > MAX_HESSIAN_DIM:
        raise DimensionError(
            f"{base.parameter_count()} parameters exceed the Hessian cap {MAX_HESSIAN_DIM}")
    n_init = (n_points + 1) // 2
    n_snap = n_points - n_init

    thetas = []
    for i in range(n_init):
        init_seed = int(np.random.SeedSequence((seed, 10, i)).generate_state(1)[0])
        net_i = Network(specs, seed=init_seed)
        thetas.append(("init", i, net_i.get_params_vector()))

    run = -1
    collected = 0
    while collected < n_snap:
        run += 1
        run_seed = int(np.random.SeedSequence((seed, 20, run)).generate_state(1)[0])
        net_r = Network(specs, seed=run_seed)
        done = 0
        for m_i, mark in enumerate(SNAPSHOT_EPOCHS):
            train(net_r, x, y, lr=0.05, epochs=mark - done,
                  batch_size=16, seed=run_seed + m_i, record=False)
            thetas.append(("snapshot", run * len(SNAPSHOT_EPOCHS) + m_i,
                           net_r.get_params_vector()))
            collected += 1
            done = mark
            if collected >= n_snap:
                break

    eq_net = base.with_conditioning("equilibrate_reparam", which=conditioned)
    pairs = [net_loss_functions(net, x, y) for net in (base, eq_net)]
    comparisons = []
    n_bad_grad = n_empty = 0
    for phase, idx, theta in thetas:
        try:
            kp, ke = [hessian_kappa(fd_hessian(*pair, theta).h, rank_tol)
                      for pair in pairs]
        except GradientCheckError as exc:
            log.warning("skipping %s point %d: %s", phase, idx, exc)
            n_bad_grad += 1
            continue
        if kp.n_surviving == 0 or ke.n_surviving == 0:
            log.warning("skipping %s point %d: empty surviving spectrum", phase, idx)
            n_empty += 1
            continue
        comparisons.append(KappaComparison(
            seed=idx, phase=phase,
            kappa_plain=kp.kappa, kappa_eq=ke.kappa,
            rank_ok_plain=kp.full_rank, rank_ok_eq=ke.full_rank,
            n_surviving_plain=kp.n_surviving, n_surviving_eq=ke.n_surviving))
    if not comparisons:
        raise EmptyResultError(
            "no comparable points: every sampled theta was rank deficient or "
            "failed the gradient self-check")
    n_sat = sum(1 for c in comparisons if c.satisfied)
    summary = CurvatureSweepSummary(n_points=len(thetas), n_comparable=len(comparisons),
                                    n_satisfied=n_sat, n_skipped_self_check=n_bad_grad,
                                    n_skipped_empty_spectrum=n_empty)
    return comparisons, summary
