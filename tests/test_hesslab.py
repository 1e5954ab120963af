import mpmath
import numpy as np
import pytest

from equilab import hesslab
from equilab.errors import (DimensionError, EmptyResultError,
                            GradientCheckError, NotSymmetricError)
from equilab.net import DenseSpec, Network
from equilab.net.data import teacher_student_regression
from equilab.net.train import loss_and_gradients, train


def quad_fns(a, b):
    """Loss of one theta; gradient of a theta or of a (k, n) row stack."""
    def loss(t):
        return float(0.5 * t @ a @ t + b @ t)

    def grad(t):
        return (a @ t.T).T + b

    return loss, grad


def _relative_asymmetry(est):
    """||H_raw - H_raw^T||_F / ||H||_F of a HessianEstimate."""
    hnorm = float(np.linalg.norm(est.h))
    return est.asymmetry / hnorm if hnorm > 0 else 0.0


def _fd_hessian_loss_only(loss_fn, theta):
    """Independent oracle for fd_hessian: second differences of the loss
    alone, never touching the gradient code.

    H_ii = (f(+h_i) - 2 f(0) + f(-h_i)) / h_i^2 and
    H_ij = (f(+i+j) - f(+i-j) - f(-i+j) + f(-i-j)) / (4 h_i h_j),
    with steps eps**(1/4) * max(1, |theta_i|).  Noisier than fd_hessian.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1).copy()
    n = theta.size
    steps = (np.finfo(np.float64).eps ** 0.25) * np.maximum(1.0, np.abs(theta))
    f0 = loss_fn(theta)
    h = np.empty((n, n))

    def probe(i, si, j, sj):
        t = theta.copy()
        t[i] += si * steps[i]
        t[j] += sj * steps[j]
        return loss_fn(t)

    for i in range(n):
        h[i, i] = (probe(i, 1, i, 0) - 2.0 * f0 + probe(i, -1, i, 0)) / steps[i] ** 2
        for j in range(i + 1, n):
            val = (probe(i, 1, j, 1) - probe(i, 1, j, -1)
                   - probe(i, -1, j, 1) + probe(i, -1, j, -1)) / (4.0 * steps[i] * steps[j])
            h[i, j] = val
            h[j, i] = val
    return h


def spd(dim, kappa, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = np.geomspace(kappa, 1.0, dim)
    return (q * s) @ q.T, rng.standard_normal(dim)


class TestSelfCheck:
    def test_exact_gradient_passes(self):
        a, b = spd(6, 100.0, 0)
        loss, grad = quad_fns(a, b)
        g = hesslab.gradient_self_check(loss, grad, np.ones(6))
        np.testing.assert_array_equal(g, grad(np.ones((1, 6)))[0])

    def test_wrong_gradient_raises(self):
        a, b = spd(6, 100.0, 1)
        loss, grad = quad_fns(a, b)
        with pytest.raises(GradientCheckError):
            hesslab.gradient_self_check(loss, lambda t: 1.5 * grad(t), np.ones(6))

    def test_shape_mismatch(self):
        loss, grad = quad_fns(*spd(4, 10.0, 2))
        with pytest.raises(DimensionError):
            hesslab.gradient_self_check(loss, lambda t: grad(t)[..., :2], np.ones(4))

    def test_step_sizes(self):
        t = np.array([0.0, 0.5, -3.0])
        np.testing.assert_allclose(
            hesslab.fd_step_sizes(t),
            hesslab.FD_STEP_SCALE * np.array([1.0, 1.0, 3.0]))


class TestFdHessian:
    def test_recovers_quadratic_exactly(self):
        a, b = spd(8, 1e3, 3)
        loss, grad = quad_fns(a, b)
        est = hesslab.fd_hessian(loss, grad, np.zeros(8))
        assert np.linalg.norm(est.h - a) <= 1e-8 * np.linalg.norm(a)
        assert _relative_asymmetry(est) < 1e-9

    def test_loss_only_cross_check(self):
        a, b = spd(5, 50.0, 4)
        loss, grad = quad_fns(a, b)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(5)
        h_grad = hesslab.fd_hessian(loss, grad, theta).h
        h_loss = _fd_hessian_loss_only(loss, theta)
        assert np.linalg.norm(h_loss - h_grad) <= 1e-5 * np.linalg.norm(h_grad)

    def test_validation(self):
        loss, grad = quad_fns(*spd(3, 10.0, 6))
        with pytest.raises(DimensionError):
            hesslab.fd_hessian(loss, grad, np.array([1.0, np.inf, 0.0]))
        with pytest.raises(DimensionError):
            hesslab.fd_hessian(loss, grad, np.zeros(hesslab.MAX_HESSIAN_DIM + 1))

    def test_gradient_at_theta_evaluated_once(self):
        # 10 columns at FD_CHUNK 4 take 3 stacks, plus one gradient at
        # theta for the self-check
        a, b = spd(10, 10.0, 10)
        loss, grad = quad_fns(a, b)
        calls = []

        def counting_grad(t):
            calls.append(t.shape)
            return grad(t)

        hesslab.fd_hessian(loss, counting_grad, np.ones(10))
        assert hesslab.FD_CHUNK == 4
        assert sorted(calls) == [(1, 10), (4, 10), (8, 10), (8, 10)]

    def test_bad_gradient_caught_by_default(self):
        a, b = spd(4, 10.0, 7)
        loss, grad = quad_fns(a, b)
        with pytest.raises(GradientCheckError):
            hesslab.fd_hessian(loss, lambda t: 2.0 * grad(t), np.ones(4))

    def test_gradient_of_wrong_shape_raises(self):
        # each breaks the (n)->(n) row-stack contract in another way:
        # a dropped stack axis, a transposed stack, one stack row too few;
        # the first two fail in the self-check, the third at the first FD stack
        a, b = spd(10, 10.0, 9)
        loss, grad = quad_fns(a, b)
        n_rows = 2 * hesslab.FD_CHUNK
        for bad in (lambda t: grad(t)[0], lambda t: grad(t).T,
                    lambda t: grad(t)[:-1] if len(t) == n_rows else grad(t)):
            with pytest.raises(DimensionError):
                hesslab.fd_hessian(loss, bad, np.ones(10))


def _hess121_fixture():
    """The 2-16-4-1 tanh fixture of the hess121 workload and acceptance 08."""
    widths = (2, 16, 4, 1)
    x, y, _ = teacher_student_regression(128, seed=0, widths=widths, kappa=1e3,
                                         activation="tanh")
    specs = [DenseSpec(2, 16, activation="tanh"), DenseSpec(16, 4, activation="tanh"),
             DenseSpec(4, 1)]
    return specs, x, y


def _column_loop_hessian(grad_fn, theta):
    """Reference: one single-theta gradient per perturbed theta, column by
    column, with the arithmetic of fd_hessian."""
    n = theta.size
    steps = hesslab.fd_step_sizes(theta)
    h_raw = np.empty((n, n))
    t = theta.copy()
    for i in range(n):
        e = t[i]
        t[i] = e + steps[i]
        gp = grad_fn(t)
        t[i] = e - steps[i]
        gm = grad_fn(t)
        t[i] = e
        h_raw[:, i] = (gp - gm) / (2.0 * steps[i])
    return 0.5 * (h_raw + h_raw.T)


class TestFdHessianReference:
    """fd_hessian's stacked columns against the column-by-column loop."""

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_hess121_fixture_bit_identical(self, conditioned):
        specs, x, y = _hess121_fixture()
        net = Network(specs, seed=0)
        snap = Network(specs, seed=0)
        train(snap, x, y, lr=0.05, epochs=10, batch_size=16, seed=0, record=False)
        if conditioned:
            net = net.with_conditioning("equilibrate_reparam", which="all")
        loss_fn, grad_fn = hesslab.net_loss_functions(net, x, y)
        for theta in (net.get_params_vector(), snap.get_params_vector()):
            est = hesslab.fd_hessian(loss_fn, grad_fn, theta)
            np.testing.assert_array_equal(est.h, _column_loop_hessian(grad_fn, theta))


class TestHessianKappa:
    def test_known_spd_spectrum(self):
        h = np.diag([100.0, 10.0, 1.0])
        ks = hesslab.hessian_kappa(h)
        assert ks.kappa == pytest.approx(100.0, rel=1e-12)
        assert ks.full_rank and ks.n_surviving == 3

    def test_rank_deficient_uses_surviving_spectrum(self):
        h = np.diag([100.0, 10.0, 1e-12])
        ks = hesslab.hessian_kappa(h, rank_tol=1e-8)
        assert not ks.full_rank
        assert ks.n_surviving == 2
        assert ks.kappa == pytest.approx(10.0, rel=1e-12)

    def test_surviving_rule(self):
        # survivors are strictly above rank_tol * sigma_max; kappa divides
        # by the smallest of them, and sign does not matter
        ks = hesslab.hessian_kappa(np.diag([1e3, -1.0, 1e-14]), rank_tol=1e-8)
        assert (ks.n_surviving, ks.full_rank) == (2, False)
        assert ks.kappa == pytest.approx(1e3, rel=1e-12)
        ks = hesslab.hessian_kappa(np.diag([1.0, 0.5, 0.5]), rank_tol=0.5)
        assert (ks.n_surviving, ks.kappa) == (1, 1.0)

    def test_zero_matrix(self):
        ks = hesslab.hessian_kappa(np.zeros((3, 3)))
        assert np.isnan(ks.kappa) and ks.n_surviving == 0
        assert not ks.full_rank

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -1e-8, float("nan")])
    def test_rank_tol_validation(self, bad):
        with pytest.raises(DimensionError):
            hesslab.hessian_kappa(np.diag([2.0, 1.0]), rank_tol=bad)

    def test_takes_matrix_and_rejects_nonsquare(self):
        a, b = spd(4, 10.0, 8)
        est = hesslab.fd_hessian(*quad_fns(a, b), np.zeros(4))
        assert hesslab.hessian_kappa(est.h).kappa == pytest.approx(10.0, rel=1e-6)
        with pytest.raises(DimensionError):
            hesslab.hessian_kappa(np.zeros((2, 3)))


class TestHessianKappaOracle:
    """hessian_kappa against 40-digit mpmath eigenvalues of the same matrix."""

    @staticmethod
    def graded_indefinite(seed, n=24):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # 20 surviving magnitudes over five decades, four far below
        # rank_tol * sigma_max = 1e-8, alternating signs throughout
        mags = np.concatenate([np.geomspace(10.0, 1e-4, n - 4),
                               [1e-10, 3e-12, 1e-13, 0.0]])
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        h = (q * (signs * mags)) @ q.T
        return 0.5 * (h + h.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_mpmath_eigsy(self, seed):
        h = self.graded_indefinite(seed)
        rank_tol = 1e-8
        with mpmath.workdps(40):
            ev = mpmath.eigsy(mpmath.matrix(h.tolist()), eigvals_only=True)
            mags = sorted((abs(ev[i]) for i in range(h.shape[0])), reverse=True)
            keep = [m for m in mags if m > rank_tol * mags[0]]
            kappa_oracle = float(keep[0] / keep[-1])
        ks = hesslab.hessian_kappa(h, rank_tol=rank_tol)
        assert ks.n_surviving == len(keep) == h.shape[0] - 4
        assert not ks.full_rank
        assert ks.kappa == pytest.approx(kappa_oracle, rel=1e-9)

    def test_nonsymmetric_raw_input_raises(self):
        h = np.diag([3.0, 2.0, 1.0])
        h[0, 2] = 1e-6
        with pytest.raises(NotSymmetricError):
            hesslab.hessian_kappa(h)


class TestNetLossFunctions:
    def test_matches_training_loss_and_leaves_net_alone(self):
        x, y, _ = teacher_student_regression(32, seed=0, widths=(2, 4, 1))
        net = Network([DenseSpec(2, 4, activation="tanh"), DenseSpec(4, 1)],
                      seed=1)
        theta0 = net.get_params_vector()
        loss_fn, grad_fn = hesslab.net_loss_functions(net, x, y)
        pred = net.forward(x)
        assert loss_fn(theta0) == pytest.approx(float(np.mean((pred - y) ** 2)),
                                                rel=1e-12)
        # forward-only, with the bits of the forward/backward loss
        assert loss_fn(theta0) == loss_and_gradients(net, x, y, training=False)[0]
        hesslab.gradient_self_check(loss_fn, grad_fn, theta0)
        loss_fn(theta0 * 2.0)  # moves only the private clone
        np.testing.assert_array_equal(net.get_params_vector(), theta0)


class TestCompare:
    def test_reparam_side_has_null_directions(self):
        # equilibrating the (4, 1) output weight pins each scalar row to
        # +-1, so those 4 coordinates are exact null directions of the
        # reparametrized loss at every theta
        x, y, _ = teacher_student_regression(48, seed=2, widths=(2, 4, 1))
        net = Network([DenseSpec(2, 4, activation="tanh"), DenseSpec(4, 1)],
                      seed=3)
        eq_net = net.with_conditioning("equilibrate_reparam", which="all")
        theta = net.get_params_vector()
        kp, ke = [hesslab.hessian_kappa(hesslab.fd_hessian(
                      *hesslab.net_loss_functions(n, x, y), theta).h)
                  for n in (net, eq_net)]
        assert kp.n_surviving - ke.n_surviving >= 4
        assert not ke.full_rank
        assert np.isfinite(ke.kappa)

    def test_satisfied_allowance(self):
        base = dict(seed=0, phase="init", rank_ok_plain=True, rank_ok_eq=True,
                    n_surviving_plain=3, n_surviving_eq=3)
        ok = hesslab.KappaComparison(kappa_plain=10.0, kappa_eq=10.0, **base)
        bad = hesslab.KappaComparison(kappa_plain=10.0,
                                      kappa_eq=10.0 * (1 + 2e-6), **base)
        assert ok.satisfied and not bad.satisfied

    def test_csv_row_matches_header(self):
        c = hesslab.KappaComparison(seed=1, phase="snapshot", kappa_plain=2.0,
                                    kappa_eq=1.5, rank_ok_plain=True,
                                    rank_ok_eq=False, n_surviving_plain=5,
                                    n_surviving_eq=4)
        assert len(c.csv_row().split(",")) == len(hesslab.CSV_HEADER.split(","))

    def test_sweep_small_run(self):
        x, y, _ = teacher_student_regression(48, seed=0, widths=(2, 3, 1),
                                             kappa=100.0)
        comps, summary = hesslab.compare_curvature_sweep(
            [DenseSpec(2, 3, activation="tanh"), DenseSpec(3, 1)], x, y,
            n_points=4, seed=0, conditioned="hidden")
        assert summary.n_points == 4
        assert summary.n_comparable == len(comps)
        assert summary.n_comparable + summary.n_skipped == 4
        assert summary.n_skipped == (summary.n_skipped_self_check
                                     + summary.n_skipped_empty_spectrum)
        phases = {c.phase for c in comps}
        assert phases <= {"init", "snapshot"}
        assert 0.0 <= summary.fraction_satisfied <= 1.0

    def test_skipped_points_counted_per_reason(self, monkeypatch):
        # point 1 fails its first self-check; points 2 and 4 get an empty
        # equilibrated spectrum (the 2nd and 6th kappa, plain before eq)
        real_fd, real_kappa = hesslab.fd_hessian, hesslab.hessian_kappa
        empty = hesslab.KappaSummary(kappa=float("nan"), full_rank=False,
                                     n_surviving=0)
        fd_calls, kappa_calls = [], []

        def patched_fd(loss_fn, grad_fn, theta):
            fd_calls.append(theta)
            if len(fd_calls) == 1:
                raise GradientCheckError("forced")
            return real_fd(loss_fn, grad_fn, theta)

        def patched_kappa(h, rank_tol):
            kappa_calls.append(h)
            if len(kappa_calls) in (2, 6):
                return empty
            return real_kappa(h, rank_tol)

        monkeypatch.setattr(hesslab, "fd_hessian", patched_fd)
        monkeypatch.setattr(hesslab, "hessian_kappa", patched_kappa)
        x, y, _ = teacher_student_regression(32, seed=0, widths=(2, 3, 1))
        comps, summary = hesslab.compare_curvature_sweep(
            [DenseSpec(2, 3, activation="tanh"), DenseSpec(3, 1)], x, y,
            n_points=5, seed=0)
        assert summary.n_skipped_self_check == 1
        assert summary.n_skipped_empty_spectrum == 2
        assert summary.n_skipped == 3
        assert summary.n_comparable == len(comps) == 2

    def test_all_points_skipped_raises(self, monkeypatch):
        def boom(*a, **kw):
            raise GradientCheckError("forced")

        monkeypatch.setattr(hesslab, "fd_hessian", boom)
        x, y, _ = teacher_student_regression(32, seed=0, widths=(2, 3, 1))
        with pytest.raises(EmptyResultError):
            hesslab.compare_curvature_sweep(
                [DenseSpec(2, 3, activation="tanh"), DenseSpec(3, 1)], x, y,
                n_points=2, seed=0)

    def test_parameter_cap(self):
        x = np.zeros((4, 60))
        y = np.zeros((4, 40))
        with pytest.raises(DimensionError):
            hesslab.compare_curvature_sweep([DenseSpec(60, 40)], x, y, n_points=1)
