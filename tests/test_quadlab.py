import tracemalloc

import numpy as np
import pytest

from equilab import quadlab
from equilab.errors import DimensionError, NotPositiveDefiniteError, NotSymmetricError


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
        # column 1 is the iterate's norm
        assert trace.table[-1, 1] > quadlab.DIVERGENCE_NORM
        assert trace.table.shape[0] - 1 < 10_000


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


def reference_gd(prob, theta0, eta, iters):
    """run_gd as a per-step loop with the one-row formulas: the loss and the
    mode coefficients of each iterate are computed inside the loop.
    Returns the trace, its table built column by column, and the iterates."""
    a, b, vt, theta_star = prob.a, prob.b, prob.svd.vt, prob.theta_star
    t = np.array(theta0, dtype=np.float64)
    iterates = [t]
    losses = [float(0.5 * t @ a @ t - b @ t)]
    modes = [vt @ (t - theta_star)]
    diverged = False
    for _ in range(iters):
        t = t - eta * (a @ t - b)
        iterates.append(t)
        losses.append(float(0.5 * t @ a @ t - b @ t))
        modes.append(vt @ (t - theta_star))
        norm = np.linalg.norm(t)
        if not np.isfinite(norm) or norm > quadlab.DIVERGENCE_NORM:
            diverged = True
            break
    iterates = np.array(iterates)
    table = np.column_stack([losses, np.linalg.norm(iterates, axis=1), modes])
    trace = quadlab.GDTrace(table=table, eta=float(eta), sigma=prob.svd.sigma.copy(),
                            diverged=diverged)
    return trace, iterates


def assert_equals_reference(trace, ref, ref_iterates):
    """Bitwise: the losses, the norms of the iterates, the mode coefficients
    and the CSV bytes."""
    assert trace.diverged == ref.diverged
    assert trace.table.shape == ref.table.shape
    assert np.array_equal(trace.losses, ref.losses)
    assert np.array_equal(trace.table[:, 1], np.linalg.norm(ref_iterates, axis=1))
    assert np.array_equal(trace.mode_coeffs, ref.mode_coeffs)
    assert trace.to_csv().encode() == ref.to_csv().encode()


def owned_bytes(array):
    """Bytes of the buffer an array keeps alive."""
    return (array if array.base is None else array.base).nbytes


class TestBatchedTrace:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("factor", [0.5, 1.01, 3.0, 10.0, 300.0])
    def test_matches_per_step_loop_bitwise(self, factor):
        prob, theta0 = spd_problem(13, n=32, kappa=1e4)
        eta = factor * quadlab.max_stable_lr(prob)
        trace = quadlab.run_gd(prob, theta0, eta, 2000)
        ref, ref_iterates = reference_gd(prob, theta0, eta, 2000)
        assert trace.diverged == (factor > 1.0)
        assert_equals_reference(trace, ref, ref_iterates)

    def test_diverged_trace_arrays_align(self):
        prob, theta0 = spd_problem(14, n=12)
        trace = quadlab.run_gd(prob, theta0, 3.0 * quadlab.max_stable_lr(prob), 10_000)
        assert trace.diverged
        k = trace.table.shape[0]
        assert k < 10_001
        assert trace.table.shape == (k, prob.n + 2)
        assert trace.losses.shape == (k,)
        assert trace.mode_coeffs.shape == (k, prob.n)
        # a copy of the rows run, not a view of the (10_001, n + 2) block
        assert trace.table.base is None

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_grown_buffer_keeps_the_bits(self, monkeypatch, factor):
        # 2 rows up front, so a 2000-step run doubles its block 10 times
        prob, theta0 = spd_problem(13, n=32, kappa=1e4)
        monkeypatch.setattr(quadlab, "GD_PREALLOC_CELLS", 3 * prob.n)
        eta = factor * quadlab.max_stable_lr(prob)
        trace = quadlab.run_gd(prob, theta0, eta, 2000)
        ref, ref_iterates = reference_gd(prob, theta0, eta, 2000)
        assert trace.diverged == (factor > 1.0)
        assert_equals_reference(trace, ref, ref_iterates)
        # the trace keeps its own rows alive, no larger block
        assert owned_bytes(trace.table) == trace.table.nbytes

    def test_early_divergence_reserves_no_buffer_for_every_step(self):
        prob, theta0 = spd_problem(14, n=64)
        eta = 3.0 * quadlab.max_stable_lr(prob)
        tracemalloc.start()
        try:
            trace = quadlab.run_gd(prob, theta0, eta, quadlab.MAX_ITERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.diverged and len(trace.table) < 1000
        # an (MAX_ITERS + 1, 66) block would be 528 MB; the first one is 8 MB
        assert peak < 2 * 8 * quadlab.GD_PREALLOC_CELLS

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("iters", [0, 1, 127, 128, 129, 2000])
    def test_stack_equals_solo_runs(self, iters):
        # same-size problems of different spectra; the second member
        # diverges (and overflows before its block of rows is checked), the
        # others run to the end
        probs, thetas = zip(*(spd_problem(s, n=24, kappa=kappa)
                              for s, kappa in ((20, 1e3), (21, 1e2), (22, 1e5))))
        etas = [f * quadlab.max_stable_lr(p) for f, p in zip((0.5, 300.0, 0.9), probs)]
        traces = quadlab.run_gd(probs, thetas, etas, iters)
        assert isinstance(traces, list) and len(traces) == 3
        assert [t.diverged for t in traces] == [False, iters > 5, False]
        for prob, theta0, eta, trace in zip(probs, thetas, etas, traces):
            solo = quadlab.run_gd(prob, theta0, eta, iters)
            assert np.array_equal(trace.table, solo.table)
            assert trace.to_csv() == solo.to_csv()
            ref, ref_iterates = reference_gd(prob, theta0, eta, iters)
            assert_equals_reference(trace, ref, ref_iterates)

    def test_stack_rejects_mismatched_members(self):
        (p6, t6), (p7, t7) = spd_problem(23, n=6), spd_problem(24, n=7)
        with pytest.raises(DimensionError):
            quadlab.run_gd([p6, p7], [t6, t7], [0.1, 0.1], 5)
        with pytest.raises(DimensionError):
            quadlab.run_gd([p6, p6], [t6], [0.1, 0.1], 5)
        with pytest.raises(DimensionError):
            quadlab.run_gd([p6], [t6], [0.0], 5)
        with pytest.raises(DimensionError):
            quadlab.run_gd([], [], [], 5)

    @pytest.mark.parametrize("n", [6, 17, 64, 121])
    def test_stack_equals_per_row_calls(self, n):
        prob, _ = spd_problem(15, n=n, kappa=1e6)
        rows = np.random.default_rng(n).standard_normal((9, n)) * 1e3
        losses = prob.loss(rows)
        grads = prob.gradient(rows)
        assert losses.shape == (9,) and grads.shape == (9, n)
        assert np.array_equal(losses, [prob.loss(r) for r in rows])
        assert np.array_equal(grads, [prob.gradient(r) for r in rows])

    def test_one_row_loss_is_a_float(self):
        prob, theta = spd_problem(16)
        assert type(prob.loss(theta)) is float
        assert type(prob.loss(list(theta))) is float
