import numpy as np
import pytest

from equilab import quadlab
from equilab.errors import NotPositiveDefiniteError, NotSymmetricError


def spd_problem(seed, n=6, kappa=100.0, zero_b=False):
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.geomspace(kappa, 1.0, n)
    a = (q * sigma) @ q.T
    a = 0.5 * (a + a.T)
    b = np.zeros(n) if zero_b else rng.standard_normal(n)
    return quadlab.QuadraticProblem(a, b), rng.standard_normal(n)


class TestProblem:
    def test_loss_and_gradient_closed_form(self):
        prob, theta = spd_problem(0)
        expect_loss = 0.5 * theta @ prob.a @ theta - prob.b @ theta
        assert prob.loss(theta) == pytest.approx(expect_loss, rel=1e-12)
        np.testing.assert_allclose(prob.gradient(theta), prob.a @ theta - prob.b,
                                   rtol=1e-12)

    def test_gradient_matches_fd(self):
        prob, theta = spd_problem(1)
        g = prob.gradient(theta)
        h = 1e-6
        for i in range(prob.n):
            e = np.zeros(prob.n)
            e[i] = h
            fd = (prob.loss(theta + e) - prob.loss(theta - e)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_theta_star_is_stationary(self):
        prob, _ = spd_problem(2)
        np.testing.assert_allclose(prob.gradient(prob.theta_star),
                                   np.zeros(prob.n), atol=1e-9)

    def test_kappa_matches_spectrum(self):
        prob, _ = spd_problem(3, kappa=1e4)
        assert prob.kappa == pytest.approx(1e4, rel=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            quadlab.QuadraticProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_max_stable_lr(self):
        prob, _ = spd_problem(4, kappa=50.0)
        assert quadlab.max_stable_lr(prob) == pytest.approx(2.0 / prob.svd.sigma[0],
                                                            rel=1e-12)


class TestThetaStar:
    def test_known_2x2(self):
        # [[4,1],[1,3]] x = [1,2] has exact solution (1/11, 7/11)
        prob = quadlab.QuadraticProblem(np.array([[4.0, 1.0], [1.0, 3.0]]),
                                        np.array([1.0, 2.0]))
        np.testing.assert_allclose(prob.theta_star, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.standard_normal((8, 8))
            a = m @ m.T + 8.0 * np.eye(8)
            b = rng.standard_normal(8)
            prob = quadlab.QuadraticProblem(a, b)
            x = prob.theta_star
            assert np.linalg.norm(prob.a @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_rejects_indefinite(self):
        prob = quadlab.QuadraticProblem(np.diag([1.0, -1.0]), np.ones(2))
        with pytest.raises(NotPositiveDefiniteError):
            prob.theta_star

    def test_rejects_indefinite_with_repeated_sigma(self):
        # diag(1, 1, 1, -1, -1) rotated so that the -1 plane spreads evenly
        # over the axes: every singular value is 1 and every diagonal entry
        # is 0.2, so each u_i . v_i can be positive although A is indefinite
        k = 2.0 * np.pi * np.arange(5) / 5.0
        w = np.sqrt(0.4) * np.column_stack([np.cos(k), np.sin(k)])
        a = np.eye(5) - 2.0 * w @ w.T
        np.testing.assert_allclose(np.diag(a), 0.2, rtol=1e-12)
        prob = quadlab.QuadraticProblem(a, np.ones(5))
        with pytest.raises(NotPositiveDefiniteError):
            prob.theta_star


class TestModeAnalysis:
    def test_modes_match_closed_form(self):
        for seed in range(5):
            prob, theta0 = spd_problem(seed, kappa=1e3)
            eta = 0.5 * quadlab.max_stable_lr(prob)
            trace = quadlab.run_gd(prob, theta0, eta, 40)
            x0 = trace.mode_coeffs[0]
            for t in (1, 5, 17, 40):
                expect = (1.0 - eta * prob.svd.sigma) ** t * x0
                np.testing.assert_allclose(trace.mode_coeffs[t], expect,
                                           rtol=1e-8, atol=1e-12)

    def test_converges_just_below_threshold(self):
        prob, theta0 = spd_problem(8, zero_b=True)
        eta = 0.99 * quadlab.max_stable_lr(prob)
        trace = quadlab.run_gd(prob, theta0, eta, 3000)
        assert not trace.diverged
        assert trace.losses[-1] < trace.losses[0]
        assert abs(trace.mode_coeffs[-1]).max() < abs(trace.mode_coeffs[0]).max()

    def test_diverges_just_above_threshold(self):
        prob, theta0 = spd_problem(9, zero_b=True)
        eta = 1.01 * quadlab.max_stable_lr(prob)
        trace = quadlab.run_gd(prob, theta0, eta, 3000)
        top = abs(trace.mode_coeffs[:, 0])
        assert top[-1] > 10.0 * top[0]

    def test_divergence_flag_keeps_offending_iterate(self):
        prob, theta0 = spd_problem(10, zero_b=True)
        eta = 3.0 * quadlab.max_stable_lr(prob)
        trace = quadlab.run_gd(prob, theta0, eta, 10_000)
        assert trace.diverged
        assert np.linalg.norm(trace.iterates[-1]) > quadlab.DIVERGENCE_NORM
        assert trace.iterates.shape[0] - 1 < 10_000


class TestTraceCsv:
    def test_metadata_and_layout(self):
        prob, theta0 = spd_problem(11)
        trace = quadlab.run_gd(prob, theta0, 0.3 * quadlab.max_stable_lr(prob), 5)
        text = trace.to_csv()
        lines = text.split("\r\n")
        assert lines[0].startswith("# eta=")
        assert lines[1].split(",")[:3] == ["iter", "loss", "theta_norm"]
        assert "mode_0" in lines[1]
        # 5 steps -> 6 iterates, plus metadata, header, trailing empty
        assert len(lines) == 9

    def test_byte_identical_reruns(self):
        def render():
            prob, theta0 = spd_problem(12)
            trace = quadlab.run_gd(prob, theta0, 0.2 * quadlab.max_stable_lr(prob), 7)
            return trace.to_csv()

        assert render() == render()
