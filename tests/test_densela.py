import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilab import densela
from equilab.errors import (
    DimensionError,
    NonFiniteError,
    RankDeficientError,
)


def random_matrix(seed, m, n, scale_rows=False):
    rng = np.random.default_rng(np.random.SeedSequence((seed, m, n)))
    a = rng.standard_normal((m, n))
    if scale_rows:
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=m)[:, None]
    return a


class TestMatrixType:
    """The matrix input contract: finite float64, 2-d, non-empty, capped."""

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            densela.svd(np.zeros(3))
        with pytest.raises(DimensionError):
            densela.svd(np.zeros((2, 2, 2)))

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(DimensionError):
            densela.svd(np.zeros((0, 2)))
        with pytest.raises(DimensionError):
            densela.svd(np.zeros((1, densela.MAX_DIM + 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            densela.svd([[1.0, np.nan]])
        with pytest.raises(NonFiniteError):
            densela.svd([[np.inf, 1.0]])

    def test_immutable_and_copies_input(self):
        for m, n in ((3, 2), (2, 3)):
            src = random_matrix(1, m, n)
            before = src.copy()
            res = densela.svd(src)
            assert np.array_equal(src, before)
            for arr in (res.u, res.sigma, res.vt):
                with pytest.raises(ValueError):
                    arr[0] = 3.0

    def test_text_roundtrip(self, tmp_path):
        a = random_matrix(0, 3, 5)
        path = tmp_path / "m.txt"
        rows = [" ".join(repr(float(x)) for x in row) for row in a]
        path.write_text("3 5\n" + "\n".join(rows) + "\n")
        assert np.array_equal(densela.read_matrix_text(path), a)

    def test_text_rejects_bad_header_and_ragged(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1 2\n3 4\n")
        with pytest.raises(DimensionError):
            densela.read_matrix_text(p)
        p.write_text("2 2\n1 2\n3\n")
        with pytest.raises(DimensionError):
            densela.read_matrix_text(p)
        p.write_text("2 2\n1 2\nx 4\n")
        with pytest.raises(NonFiniteError):
            densela.read_matrix_text(p)


class TestSvd:
    def test_known_2x2_against_char_poly(self):
        # singular values of [[1,2],[3,4]] from the characteristic
        # polynomial of A^T A: lambda^2 - 30 lambda + 4 = 0
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        disc = np.sqrt(30.0**2 - 4.0 * 4.0)
        expect = np.sqrt(np.array([(30.0 + disc) / 2.0, (30.0 - disc) / 2.0]))
        res = densela.svd(a)
        np.testing.assert_allclose(res.sigma, expect, rtol=1e-14)

    def test_reconstruction_tall_wide_square(self):
        for seed, (m, n) in enumerate([(7, 3), (3, 7), (5, 5), (1, 4), (4, 1)]):
            a = random_matrix(seed, m, n)
            res = densela.svd(a)
            err = np.linalg.norm((res.u * res.sigma) @ res.vt - a)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(a))

    def test_orthogonality(self):
        a = random_matrix(11, 9, 6)
        res = densela.svd(a)
        k = min(a.shape)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(k), atol=1e-12)

    @pytest.mark.parametrize("case", ["zero-column", "duplicated-column", "1xn", "nx1",
                                      "wide", "wide-zero-row"])
    def test_orthonormal_and_reconstructs_edge_cases(self, case):
        a = random_matrix(23, 7, 5)
        if case == "zero-column":
            a[:, 1] = 0.0
        elif case == "duplicated-column":
            a[:, 3] = a[:, 0]
        elif case == "1xn":
            a = random_matrix(23, 1, 6)
        elif case == "nx1":
            a = random_matrix(23, 6, 1)
        elif case == "wide":
            a = random_matrix(23, 4, 9)
        else:
            a = random_matrix(23, 4, 9)
            a[2] = 0.0
        res = densela.svd(a)
        k = min(a.shape)
        assert res.u.shape == (a.shape[0], k) and res.vt.shape == (k, a.shape[1])
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(k), rtol=0.0, atol=1e-13)
        err = np.linalg.norm((res.u * res.sigma) @ res.vt - a)
        assert err <= 1e-13 * np.linalg.norm(a)

    def test_sigma_sorted_and_nonnegative(self):
        a = random_matrix(2, 8, 8)
        s = densela.svd(a).sigma
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0.0)

    def test_zero_matrix(self):
        res = densela.svd(np.zeros((3, 2)))
        assert np.all(res.sigma == 0.0)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(2), atol=1e-15)

    def test_rank_one(self):
        a = np.outer([1.0, 2.0, 2.0], [3.0, 4.0])
        res = densela.svd(a)
        # Frobenius norm carries the single nonzero singular value
        np.testing.assert_allclose(res.sigma[0], np.linalg.norm(a), rtol=1e-14)
        assert res.sigma[1] <= 1e-14 * res.sigma[0]
        np.testing.assert_allclose((res.u * res.sigma) @ res.vt, a, atol=1e-13)

    def test_matches_lapack_singular_values(self):
        for seed in range(5):
            a = random_matrix(100 + seed, 12, 9, scale_rows=True)
            mine = densela.svd(a).sigma
            ref = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(mine, ref, rtol=1e-10)

    def test_identical_across_backends(self):
        from equilab._kernels import jacobi_py

        a = random_matrix(42, 10, 10)
        res = densela.svd(a)
        bt = np.ascontiguousarray(a.T.copy())
        vt = np.eye(10)
        jacobi_py.jacobi_sweeps(bt, vt, densela._REL_TOL_FLOOR,
                                1e-14 * float(np.sum(a * a)), densela.MAX_SWEEPS)
        sigma_py = np.sort(np.linalg.norm(bt, axis=1))[::-1]
        np.testing.assert_allclose(res.sigma, sigma_py, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
    def test_property_reconstruct_and_norm(self, m, n, seed):
        a = random_matrix(seed, m, n)
        res = densela.svd(a)
        err = np.linalg.norm((res.u * res.sigma) @ res.vt - a)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
        # Frobenius norm is the l2 norm of the spectrum
        np.testing.assert_allclose(np.sqrt(np.sum(res.sigma**2)),
                                   np.linalg.norm(a), rtol=1e-12)


def loop_canonical_signs(u, vt):
    """Reference sign convention, one row of vt at a time."""
    for i in range(vt.shape[0]):
        row = vt[i]
        idx = np.flatnonzero(np.abs(row) > 1e-12 * np.max(np.abs(row)))
        lead = idx[0] if idx.size else 0
        if row[lead] < 0.0:
            vt[i] = -row
            u[:, i] = -u[:, i]


class TestSignConvention:
    @pytest.mark.parametrize("shape,rank", [((9, 4), 4), ((4, 9), 4), ((8, 8), 8),
                                            ((9, 6), 2), ((6, 9), 2), ((5, 5), 0)],
                             ids=["tall", "wide", "square", "tall-rank2", "wide-rank2",
                                  "zero"])
    def test_array_ops_match_loop_bit_for_bit(self, shape, rank):
        rng = np.random.default_rng(np.random.SeedSequence((7,) + shape + (rank,)))
        m, n = shape
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        res = densela.svd(a)
        k = res.sigma.size
        # random signs, plus a row whose leading entries sit below and at
        # the 1e-12 threshold, and an all-zero row
        signs = rng.choice([-1.0, 1.0], size=k)
        u = res.u * signs
        vt = res.vt * signs[:, None]
        tricky = -rng.standard_normal(n)
        peak = np.max(np.abs(tricky[2:]))
        tricky[:2] = 1e-13 * peak, -1e-12 * peak
        u = np.column_stack([u, rng.standard_normal((m, 2))])
        vt = np.vstack([vt, tricky, np.zeros(n)])
        want_u, want_vt = u.copy(), vt.copy()
        loop_canonical_signs(want_u, want_vt)
        densela._canonical_signs(u, vt)
        assert u.tobytes() == want_u.tobytes()
        assert vt.tobytes() == want_vt.tobytes()
        # svd's own output is already canonical
        u, vt = res.u.copy(), res.vt.copy()
        loop_canonical_signs(u, vt)
        assert u.tobytes() == res.u.tobytes() and vt.tobytes() == res.vt.tobytes()


def _graded(seed, shape, axis):
    """B scaled by 10**U(-4, 4) along axis 0 (D B), 1 (B D) or, for axis
    2, both (D1 B D2)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed,) + shape + (axis,)))
    a = rng.standard_normal(shape)
    if axis in (0, 2):
        a = a * 10.0 ** rng.uniform(-4.0, 4.0, size=shape[0])[:, None]
    if axis in (1, 2):
        a = a * 10.0 ** rng.uniform(-4.0, 4.0, size=shape[1])[None, :]
    return a


def _mpmath_sigma(a):
    """Singular values from a 40-digit SVD, descending."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    sig = mp.svd_r(mp.matrix(a.tolist()), compute_uv=False)
    return sorted((sig[i] for i in range(len(sig))), reverse=True)


class TestConditionNumber:
    def test_oracle_2x2(self):
        # char poly of A^T A for [[3,4],[0,5]]: lambda^2 - 50 lambda + 225
        a = np.array([[3.0, 4.0], [0.0, 5.0]])
        lam = np.roots([1.0, -50.0, 225.0])
        expect = np.sqrt(max(lam) / min(lam))
        assert abs(densela.condition_number(a) - expect) <= 1e-12
        assert abs(densela.condition_number(a) - 3.0) <= 1e-10

    def test_identity_kappa_one(self):
        assert densela.condition_number(np.eye(6)) == pytest.approx(1.0, abs=1e-14)

    def test_scale_invariance(self):
        a = random_matrix(5, 6, 6)
        k1 = densela.condition_number(a)
        k2 = densela.condition_number(123.456 * a)
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_rank_deficient_raises_with_payload(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(RankDeficientError) as exc:
            densela.condition_number(a)
        assert exc.value.sigma_max > 0.0
        assert exc.value.rank_tol == densela.RANK_TOL == 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10),
           st.sampled_from(["plain", "graded", "low-rank", "zero-column"]),
           st.integers(0, 10_000))
    def test_property_matches_svd_sigma_bitwise(self, m, n, rank, kind, seed):
        a = random_matrix(seed, m, n, scale_rows=kind == "graded")
        if kind == "low-rank":
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        elif kind == "zero-column":
            a[:, seed % n] = 0.0
        sigma = densela.svd(a).sigma
        assert densela._singular_values(a).tobytes() == sigma.tobytes()
        s_max, s_min = float(sigma[0]), float(sigma[-1])
        if s_min <= 1e-12 * s_max or s_max == 0.0:
            with pytest.raises(RankDeficientError) as exc:
                densela.condition_number(a)
            assert (exc.value.sigma_max, exc.value.sigma_min) == (s_max, s_min)
        else:
            assert densela.condition_number(a) == s_max / s_min

    # 40-digit oracle for kappa and for every singular value of svd;
    # LAPACK's singular values miss it by up to 2.2e-8 on the row-graded
    # and 1.2e-6 on the two-sided cases
    @pytest.mark.parametrize("shape", [(16, 16), (12, 8), (8, 12), (24, 5)],
                             ids=["16x16", "12x8", "8x12", "24x5"])
    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["row-graded", "col-graded", "two-sided"])
    def test_graded_against_mpmath_oracle(self, shape, axis):
        for seed in range(3):
            a = _graded(seed, shape, axis)
            want = _mpmath_sigma(a)
            kappa = want[0] / want[-1]
            # the two-sided cases reach kappa 1e14, beyond condition_number's
            # RANK_TOL, so kappa is taken from the spectrum it would divide
            sig = densela._singular_values(a)
            rel = abs(mpmath.mpf(float(sig[0]) / float(sig[-1])) - kappa) / kappa
            assert rel <= 1e-10, (seed, float(rel))
            for k, (got, exact) in enumerate(zip(densela.svd(a).sigma, want)):
                rel = abs(mpmath.mpf(float(got)) - exact) / exact
                assert rel <= 1e-10, (seed, k, float(rel))


class TestHelpers:
    def test_norm_helpers_oracle(self):
        a = np.array([[3.0, 4.0], [0.0, 5.0]])
        np.testing.assert_allclose(densela.row_norms2(a), [5.0, 5.0])
        np.testing.assert_allclose(densela.col_norms2(a), [3.0, np.sqrt(41.0)])

