import numpy as np
import pytest

from equilab.errors import DimensionError
from equilab.net import layers as L


def vjp_check(fwd, vjp_from_cache, m, rng, rel=1e-6, h=1e-7):
    """<vjp(g), dm> must equal the directional FD of <f(m), g>."""
    out, cache = fwd(m)
    g = rng.standard_normal(out.shape)
    dm = rng.standard_normal(m.shape)
    lhs = np.sum(vjp_from_cache(cache, g) * dm)
    up, _ = fwd(m + h * dm)
    dn, _ = fwd(m - h * dm)
    rhs = np.sum((up - dn) * g) / (2.0 * h)
    assert lhs == pytest.approx(rhs, rel=rel, abs=1e-9)


class TestParseNormalization:
    def test_single_tags(self):
        assert L.parse_normalization("none") == (False, None)
        assert L.parse_normalization("batch_norm") == (True, None)
        assert L.parse_normalization("weight_standardization") == (False, "weight_standardization")

    def test_combined(self):
        assert L.parse_normalization("batch_norm+weight_normalization") == (
            True, "weight_normalization")

    def test_rejections(self):
        with pytest.raises(DimensionError):
            L.parse_normalization("nope")
        with pytest.raises(DimensionError):
            L.parse_normalization("none+batch_norm")
        with pytest.raises(DimensionError):
            L.parse_normalization("weight_standardization+weight_normalization")


class TestActivations:
    def test_values(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(L.apply_activation("relu", z), [0.0, 0.0, 3.0])
        np.testing.assert_allclose(L.apply_activation("tanh", z), np.tanh(z))
        np.testing.assert_allclose(L.apply_activation("identity", z), z)
        # logits pass through; the loss applies the sigmoid
        np.testing.assert_allclose(L.apply_activation("sigmoid_output", z), z)

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 5))
        g = rng.standard_normal((4, 5))
        h = 1e-7
        for name in L.ACTIVATIONS:
            out = L.apply_activation(name, z)
            got = L.activation_vjp(name, z, out, g)
            lhs = np.sum(got * g)
            rhs = np.sum((L.apply_activation(name, z + h * g) -
                          L.apply_activation(name, z - h * g)) * g) / (2.0 * h)
            assert lhs == pytest.approx(rhs, rel=1e-6)


class TestRowTransforms:
    def test_standardize_moments(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 40)) * 3.0 + 2.0
        mhat, _ = L.rows_standardize(m)
        np.testing.assert_allclose(mhat.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(mhat.var(axis=1), 1.0, atol=1e-3)

    def test_standardize_vjp(self):
        rng = np.random.default_rng(2)
        vjp_check(L.rows_standardize, L.rows_standardize_vjp,
                  rng.standard_normal((4, 9)), rng)

    def test_normalize_unit_rows_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 8)) * 10.0 ** rng.uniform(-2, 2, size=(6, 1))
        mhat, _ = L.rows_normalize(m)
        np.testing.assert_allclose(np.linalg.norm(mhat, axis=1), 1.0, rtol=1e-13)
        mhat2, _ = L.rows_normalize(m * 37.5)
        np.testing.assert_allclose(mhat, mhat2, rtol=1e-13)

    def test_normalize_vjp(self):
        rng = np.random.default_rng(4)
        vjp_check(L.rows_normalize, L.rows_normalize_vjp,
                  rng.standard_normal((5, 7)), rng)

    def test_normalize_floor_warns_and_vjp_stays_linear(self, caplog):
        import logging

        m = np.vstack([np.full(4, 1e-15), np.ones(4)])
        with caplog.at_level(logging.WARNING, logger="equilab.net.layers"):
            mhat, cache = L.rows_normalize(m)
        assert any("clamped" in r.getMessage() for r in caplog.records)
        # clamped row is divided by the constant floor, not projected
        g = np.ones((2, 4))
        dm = L.rows_normalize_vjp(cache, g)
        np.testing.assert_allclose(dm[0], g[0] / L.NORM_FLOOR)

    def test_stacked_rows_with_clamped_row_match_members(self):
        # a leading stack axis gives each member's own bits, including the
        # clamped-row branch of the normalizing transforms and their VJPs
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 4, 5))
        m[1, 2] = 1e-15
        gains = rng.uniform(0.5, 2.0, size=(3, 4))
        g = rng.standard_normal(m.shape)
        stacked = (L.rows_normalize_vjp(L.rows_normalize(m)[1], g),
                   L.rows_weightnorm_vjp(L.rows_weightnorm(m, gains)[1], g),
                   L.rows_standardize_vjp(L.rows_standardize(m)[1], g))
        for i in range(3):
            single = (L.rows_normalize_vjp(L.rows_normalize(m[i])[1], g[i]),
                      L.rows_weightnorm_vjp(L.rows_weightnorm(m[i], gains[i])[1], g[i]),
                      L.rows_standardize_vjp(L.rows_standardize(m[i])[1], g[i]))
            np.testing.assert_array_equal(stacked[0][i], single[0])
            np.testing.assert_array_equal(stacked[1][0][i], single[1][0])
            np.testing.assert_array_equal(stacked[1][1][i], single[1][1])
            np.testing.assert_array_equal(stacked[2][i], single[2])

    def test_weightnorm_identity_at_setup_gains(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 6))
        norms = np.linalg.norm(v, axis=1)
        w, _ = L.rows_weightnorm(v, norms)
        np.testing.assert_allclose(w, v, rtol=1e-13)

    def test_weightnorm_vjp_both_outputs(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((3, 5))
        gains = rng.uniform(0.5, 2.0, size=3)
        w, cache = L.rows_weightnorm(v, gains)
        g = rng.standard_normal(w.shape)
        dv, dg = L.rows_weightnorm_vjp(cache, g)
        h = 1e-7
        dvm = rng.standard_normal(v.shape)
        up, _ = L.rows_weightnorm(v + h * dvm, gains)
        dn, _ = L.rows_weightnorm(v - h * dvm, gains)
        assert np.sum(dv * dvm) == pytest.approx(np.sum((up - dn) * g) / (2 * h), rel=1e-6)
        dgm = rng.standard_normal(3)
        up, _ = L.rows_weightnorm(v, gains + h * dgm)
        dn, _ = L.rows_weightnorm(v, gains - h * dgm)
        assert np.sum(dg * dgm) == pytest.approx(np.sum((up - dn) * g) / (2 * h), rel=1e-6)


class TestBatchNorm:
    def test_training_batch_stats(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 5)) * 4.0 + 1.0
        gamma, beta = np.ones(5), np.zeros(5)
        rm, rv = np.zeros(5), np.ones(5)
        out, _ = L.bn_forward(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_running_buffers_update_in_place(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((32, 3)) + 5.0
        rm, rv = np.zeros(3), np.ones(3)
        L.bn_forward(x, np.ones(3), np.zeros(3), rm, rv, training=True)
        np.testing.assert_allclose(rm, L.BN_MOMENTUM * x.mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("rows", [2, 3, 37])
    def test_training_stats_are_mean_and_var_bits(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 6)) * 3.0 + 2.0
        gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
        rm, rv = rng.standard_normal(6), rng.random(6) + 0.5
        mu, var = x.mean(axis=0), x.var(axis=0)
        want_rm = rm * (1.0 - L.BN_MOMENTUM) + L.BN_MOMENTUM * mu
        want_rv = rv * (1.0 - L.BN_MOMENTUM) + L.BN_MOMENTUM * var
        want = gamma * ((x - mu) / np.sqrt(var + L.BN_EPS)) + beta
        out, _ = L.bn_forward(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(rm, want_rm)
        np.testing.assert_array_equal(rv, want_rv)

    def test_eval_uses_running_stats(self):
        x = np.array([[10.0, 20.0], [30.0, 40.0]])
        rm, rv = np.array([1.0, 2.0]), np.array([4.0, 9.0])
        out, _ = L.bn_forward(x, np.ones(2), np.zeros(2), rm, rv, training=False)
        expect = (x - rm) / np.sqrt(rv + L.BN_EPS)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_batch_of_one_rejected_in_training(self):
        with pytest.raises(DimensionError):
            L.bn_forward(np.ones((1, 3)), np.ones(3), np.zeros(3),
                         np.zeros(3), np.ones(3), training=True)

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 4))
        gamma = rng.uniform(0.5, 1.5, size=4)
        beta = rng.standard_normal(4)

        def fwd(x_in):
            rm, rv = np.zeros(4), np.ones(4)
            return L.bn_forward(x_in, gamma, beta, rm, rv, training=True)[:2]

        def vjp(cache, g):
            return L.bn_vjp(cache, g)[0]

        vjp_check(fwd, vjp, x, rng, rel=1e-5)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("rows, features", [(2, 1), (7, 3), (33, 16)])
    def test_stack_members_equal_single_calls(self, rows, features, training):
        # a (k, rows, features) stack normalizes each member over its own
        # rows with its own gamma, beta and running buffers
        k = 3
        rng = np.random.default_rng(rows * features)
        x = rng.standard_normal((k, rows, features)) * rng.uniform(0.5, 20.0, (k, 1, 1))
        gamma, beta = rng.standard_normal((k, features)), rng.standard_normal((k, features))
        rm, rv = rng.standard_normal((k, features)), rng.random((k, features)) + 0.5
        rm0, rv0 = rm.copy(), rv.copy()
        out, cache = L.bn_forward(x, gamma, beta, rm, rv, training=training)
        g = rng.standard_normal(out.shape)
        dx, dgamma, dbeta = L.bn_vjp(cache, g)
        for i in range(k):
            rm_i, rv_i = rm0[i].copy(), rv0[i].copy()
            out_i, cache_i = L.bn_forward(x[i], gamma[i], beta[i], rm_i, rv_i,
                                          training=training)
            np.testing.assert_array_equal(out[i], out_i)
            np.testing.assert_array_equal(rm[i], rm_i)
            np.testing.assert_array_equal(rv[i], rv_i)
            for stacked, single in zip((dx, dgamma, dbeta), L.bn_vjp(cache_i, g[i])):
                np.testing.assert_array_equal(stacked[i], single)
        assert training != np.array_equal(rm, rm0)

    def test_rejects_non_2d_input(self):
        with pytest.raises(DimensionError):
            L.bn_forward(np.ones((4, 3, 2, 2)), np.ones(3), np.zeros(3),
                         np.zeros(3), np.ones(3), training=True)

    def test_conv_layer_normalizes_each_channel(self):
        # conv batch norm runs over im2col rows, i.e. per channel over
        # batch and space; the reference normalizes the plain conv output
        # over axes (0, 2, 3)
        spec = L.Conv2dSpec(2, 3, kernel_size=3, padding=1, normalization="batch_norm")
        layer = L.build_layer(spec, np.random.default_rng(10))
        plain = L.build_layer(L.Conv2dSpec(2, 3, kernel_size=3, padding=1),
                              np.random.default_rng(10))
        layer.b += np.array([1.0, -2.0, 3.0])
        plain.b = layer.b
        x = np.random.default_rng(11).standard_normal((8, 2, 5, 5)) * 2.0 + 3.0
        out, _ = layer.forward(x, training=True)
        assert out.shape == (8, 3, 5, 5)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        z, _ = plain.forward(x, training=True)
        ref = (z - z.mean(axis=(0, 2, 3), keepdims=True)) / np.sqrt(
            z.var(axis=(0, 2, 3), keepdims=True) + L.BN_EPS)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


class TestIm2col:
    def test_matches_direct_patches(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 7))
        cols, (oh, ow) = L.im2col(x, 3, 3, stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        idx = 0
        for n in range(2):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                    np.testing.assert_array_equal(cols[idx], patch.ravel())
                    idx += 1

    def test_col2im_is_adjoint(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 2, 5, 5))
        cols, (oh, ow) = L.im2col(x, 3, 3, stride=1, padding=1)
        c = rng.standard_normal(cols.shape)
        lhs = np.sum(cols * c)
        back = L.col2im(c, x.shape, 3, 3, stride=1, padding=1, oh=oh, ow=ow)
        rhs = np.sum(x * back)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_out_size_error(self):
        with pytest.raises(DimensionError):
            L.conv_out_size(2, 5, 1, 0)


class TestSpecsAndLayers:
    def test_spec_validation(self):
        with pytest.raises(DimensionError):
            L.DenseSpec(0, 4)
        with pytest.raises(DimensionError):
            L.DenseSpec(2, 4, activation="swish")
        with pytest.raises(DimensionError):
            L.DenseSpec(2, 4, conditioning="whiten")
        with pytest.raises(DimensionError):
            L.Conv2dSpec(1, 4, kernel_size=0)

    def test_effective_weight_unit_fanin_rows_under_reparam(self):
        rng = np.random.default_rng(13)
        spec = L.DenseSpec(3, 8, conditioning="equilibrate_reparam")
        layer = L.build_layer(spec, rng)
        layer.w *= np.array([100.0, 1.0, 0.01])[:, None]
        # effective weight is output-major (out, in); fan-in rows of W are
        # its columns
        eff = layer.effective_weight()
        assert eff.shape == (8, 3)
        np.testing.assert_allclose(np.linalg.norm(eff, axis=0), 1.0, rtol=1e-12)

    def test_static_conditioning_rewrites_once(self):
        rng = np.random.default_rng(14)
        spec = L.DenseSpec(3, 6, conditioning="equilibrate_static")
        layer = L.build_layer(spec, rng)
        layer.w *= np.array([50.0, 1.0, 0.1])[:, None]
        layer.apply_static_conditioning()
        np.testing.assert_allclose(np.linalg.norm(layer.w, axis=1), 1.0, rtol=1e-12)
        # static mode leaves the forward path untouched afterwards
        np.testing.assert_allclose(layer.effective_weight(), layer.w.T)

    def test_conv_effective_rows_are_unrolled_filters(self):
        rng = np.random.default_rng(15)
        spec = L.Conv2dSpec(2, 4, kernel_size=3, conditioning="equilibrate_reparam")
        layer = L.build_layer(spec, rng)
        eff = layer.effective_weight()
        assert eff.shape == (4, 2 * 3 * 3)
        np.testing.assert_allclose(np.linalg.norm(eff, axis=1), 1.0, rtol=1e-12)
