import numpy as np
import pytest

from equilab.errors import DimensionError, NonFiniteActivationError
from equilab.hesslab import net_loss_functions
from equilab.net import DenseSpec, Conv2dSpec, Network, layers
from equilab.net.data import make_teacher


def fd_grad_check(net, x, rng, rel=1e-5, h=1e-6, n_dirs=3, training=True):
    """Backprop gradient of <forward(x), G> must match central differences."""
    theta0 = net.get_params_vector()
    g_out = rng.standard_normal(net.forward(x, training=training).shape)

    def f(theta):
        net.set_params_vector(theta)
        return float(np.sum(net.forward(x, training=training) * g_out))

    net.set_params_vector(theta0)
    out, caches = net.forward_with_caches(x, training)
    gvec = net.grads_to_vector(net.backward(g_out, caches))
    for _ in range(n_dirs):
        d = rng.standard_normal(theta0.size)
        d /= np.linalg.norm(d)
        num = (f(theta0 + h * d) - f(theta0 - h * d)) / (2.0 * h)
        assert float(gvec @ d) == pytest.approx(num, rel=rel, abs=1e-8)
    net.set_params_vector(theta0)


def small_dense(**kw):
    return Network([
        DenseSpec(2, 8, activation="tanh", **kw),
        DenseSpec(8, 1),
    ], seed=3)


def dense_2_8_4_1():
    return Network([DenseSpec(2, 8, activation="tanh"),
                    DenseSpec(8, 4, activation="tanh"), DenseSpec(4, 1)], seed=0)


class TestConstruction:
    def test_empty_and_bad_final_activation(self):
        with pytest.raises(DimensionError):
            Network([])
        with pytest.raises(DimensionError):
            Network([DenseSpec(2, 1, activation="tanh")])

    def test_chain_width_mismatch(self):
        with pytest.raises(DimensionError):
            Network([DenseSpec(2, 8, activation="tanh"), DenseSpec(9, 1)])

    def test_conv_requires_input_shape(self):
        with pytest.raises(DimensionError):
            Network([Conv2dSpec(1, 2, kernel_size=3), DenseSpec(8, 1)])

    def test_conv_after_dense_rejected(self):
        with pytest.raises(DimensionError):
            Network([DenseSpec(4, 4, activation="tanh"),
                     Conv2dSpec(1, 1, kernel_size=1), DenseSpec(1, 1)],
                    input_shape=(1, 2, 2))

    def test_seed_determinism(self):
        a = small_dense().get_params_vector()
        b = small_dense().get_params_vector()
        c = Network([DenseSpec(2, 8, activation="tanh"), DenseSpec(8, 1)],
                    seed=4).get_params_vector()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestForward:
    def test_dense_shapes(self):
        net = small_dense()
        out = net.forward(np.zeros((7, 2)))
        assert out.shape == (7, 1)

    def test_conv_to_dense_flattens(self):
        net = Network([
            Conv2dSpec(1, 3, kernel_size=3, padding=1, activation="tanh"),
            DenseSpec(3 * 5 * 5, 1),
        ], seed=0, input_shape=(1, 5, 5))
        rng = np.random.default_rng(0)
        x4 = rng.standard_normal((4, 1, 5, 5))
        out = net.forward(x4)
        assert out.shape == (4, 1)
        # flat input is reshaped through input_shape and agrees exactly
        np.testing.assert_array_equal(net.forward(x4.reshape(4, -1)), out)

    def test_all_conv_output_stays_4d(self):
        net = Network([Conv2dSpec(1, 2, kernel_size=3)], seed=0,
                      input_shape=(1, 6, 6))
        out = net.forward(np.zeros((2, 1, 6, 6)))
        assert out.shape == (2, 2, 4, 4)


class TestGradients:
    def test_plain_dense(self):
        rng = np.random.default_rng(0)
        fd_grad_check(small_dense(), rng.standard_normal((12, 2)), rng)

    @pytest.mark.parametrize("norm", [
        "batch_norm", "weight_standardization", "weight_normalization",
        "batch_norm+weight_standardization"])
    def test_normalized_dense(self, norm):
        rng = np.random.default_rng(1)
        fd_grad_check(small_dense(normalization=norm),
                      rng.standard_normal((12, 2)), rng)

    def test_reparam_dense(self):
        rng = np.random.default_rng(2)
        fd_grad_check(small_dense(conditioning="equilibrate_reparam"),
                      rng.standard_normal((12, 2)), rng)

    def test_conv_with_bn_and_reparam(self):
        net = Network([
            Conv2dSpec(2, 3, kernel_size=3, stride=2, padding=1,
                       activation="tanh", normalization="batch_norm",
                       conditioning="equilibrate_reparam"),
            DenseSpec(3 * 3 * 3, 1),
        ], seed=5, input_shape=(2, 5, 5))
        rng = np.random.default_rng(3)
        fd_grad_check(net, rng.standard_normal((6, 2, 5, 5)), rng)

    def test_first_layer_input_gradient_not_computed(self, monkeypatch):
        # conv -> conv -> dense: only the second conv scatters its input
        # gradient back (col2im); the first layer's has no reader
        net = Network([Conv2dSpec(1, 2, kernel_size=3, padding=1, activation="tanh"),
                       Conv2dSpec(2, 2, kernel_size=3, activation="tanh"),
                       DenseSpec(2 * 3 * 3, 1)], seed=0, input_shape=(1, 5, 5))
        x = np.random.default_rng(4).standard_normal((6, 1, 5, 5))
        out, caches = net.forward_with_caches(x, True)
        calls = []
        col2im = layers.col2im
        monkeypatch.setattr(layers, "col2im", lambda *a: calls.append(a) or col2im(*a))
        grads = net.backward(np.ones_like(out), caches)
        assert len(calls) == 1
        # a layer's own backward still returns its input gradient, and the
        # parameter gradients keep their bits
        g, full = np.ones_like(out), [None] * 3
        for i in (2, 1, 0):
            g, full[i] = net.layers[i].backward(g, caches[i])
        assert len(calls) == 3 and g.shape == x.shape
        assert np.array_equal(net.grads_to_vector(grads), net.grads_to_vector(full))


class TestParamsVector:
    def test_roundtrip(self):
        net = small_dense(normalization="batch_norm+weight_normalization")
        theta = net.get_params_vector()
        net.set_params_vector(theta * 2.0)
        np.testing.assert_allclose(net.get_params_vector(), theta * 2.0)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            small_dense().set_params_vector(np.zeros(3))
        n = small_dense().parameter_count()
        with pytest.raises(DimensionError):
            small_dense().set_params_vector(np.zeros((2, 3, n)))

    def test_missing_gradient_raises(self):
        # every parameter has a gradient; one that is missing is not zero-filled
        net = small_dense(normalization="batch_norm+weight_normalization")
        x = np.random.default_rng(0).standard_normal((5, 2))
        out, caches = net.forward_with_caches(x, True)
        grads = net.backward(np.ones_like(out), caches)
        assert net.grads_to_vector(grads).shape == (net.parameter_count(),)
        del grads[0]["g"]
        with pytest.raises(KeyError):
            net.grads_to_vector(grads)


def assert_params_in_buffer(net):
    """Every parameter attribute is a view of the one parameter buffer, the
    (n,) or (k, n) parameter vector itself, so an update of the buffer
    reaches it (a rebound or copied attribute would not)."""
    buf = net.param_buffer
    theta = net.get_params_vector()
    assert buf.shape == theta.shape and buf.shape[-1] == net.parameter_count()
    arrays = [arr for layer in net.layers for _, arr in layer.param_items()]
    assert all(np.shares_memory(arr, buf) for arr in arrays)
    marked = np.arange(buf.size, dtype=float).reshape(buf.shape)
    buf[...] = marked
    np.testing.assert_array_equal(net.get_params_vector(), marked)
    np.testing.assert_array_equal(
        np.concatenate([arr.reshape(buf.shape[:-1] + (-1,)) for arr in arrays], axis=-1),
        marked)
    buf[...] = theta


def dense_bn_wn():
    return small_dense(normalization="batch_norm+weight_normalization")


def conv_bn_static():
    return Network([Conv2dSpec(1, 2, kernel_size=3, normalization="batch_norm",
                               conditioning="equilibrate_static"),
                    DenseSpec(2 * 3 * 3, 1)], seed=0, input_shape=(1, 5, 5))


class TestParamBuffer:
    @pytest.mark.parametrize("kw", [
        {}, {"normalization": "batch_norm+weight_normalization"},
        {"normalization": "weight_standardization"},
        {"conditioning": "equilibrate_static"}])
    def test_views_survive_every_rebuild(self, kw):
        net = small_dense(**kw)
        assert_params_in_buffer(net)
        assert_params_in_buffer(net.clone())
        for cond in ("equilibrate_static", "equilibrate_reparam"):
            assert_params_in_buffer(net.with_conditioning(cond, which="all"))
        theta = net.get_params_vector()
        net.set_params_vector(theta + 1.0)
        assert_params_in_buffer(net)
        net.set_params_vector(np.stack([theta, theta + 1.0]))
        assert_params_in_buffer(net)
        net.set_params_vector(theta)
        assert_params_in_buffer(net)

    def test_conv_and_teacher(self):
        conv = conv_bn_static()
        assert_params_in_buffer(conv)
        assert_params_in_buffer(conv.clone())
        assert_params_in_buffer(make_teacher(kappa=1e3, seed=2))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("make", [dense_bn_wn, conv_bn_static])
    def test_stacked_buffer_is_the_parameter_stack(self, make, k):
        net = make()
        theta = net.get_params_vector()
        stack = theta + np.arange(k)[:, None]
        net.set_params_vector(stack)
        assert net.param_buffer.shape == (k, theta.size)
        np.testing.assert_array_equal(net.param_buffer, stack)
        assert_params_in_buffer(net)
        net.set_params_vector(theta)
        assert net.param_buffer.shape == theta.shape
        assert_params_in_buffer(net)


def _transform_kw(transform):
    """Spec keywords of a weight transform or normalization name."""
    if transform.startswith(("weight_", "batch_norm")):
        return {"normalization": transform}
    return {} if transform == "plain" else {"conditioning": transform}


def _assert_rows_equal_single_gradients(net, x, rng, k):
    """A (k, n) stack through net_loss_functions' grad_fn gives, row by
    row, the bits of a call on that row alone."""
    y = rng.standard_normal((len(x), 1))
    net.forward(x, training=True)  # move any batch-norm running buffers
    theta = net.get_params_vector()
    stack = theta + 0.3 * rng.standard_normal((k, theta.size))
    _, grad_fn = net_loss_functions(net, x, y)
    g = grad_fn(stack)
    assert g.shape == (k, theta.size)
    for i in range(k):
        np.testing.assert_array_equal(g[i], grad_fn(stack[i]))


class TestStackedParameters:
    """A (k, n) parameter stack against one parameter vector at a time."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("act", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("transform", [
        "plain", "weight_standardization", "weight_normalization",
        "equilibrate_static", "equilibrate_reparam", "batch_norm",
        "batch_norm+weight_standardization"])
    def test_rows_equal_single_gradients(self, transform, act, k):
        kw = _transform_kw(transform)
        net = Network([DenseSpec(2, 6, activation=act, **kw),
                       DenseSpec(6, 4, activation=act, **kw),
                       DenseSpec(4, 1, **kw)], seed=7)
        rng = np.random.default_rng(k)
        _assert_rows_equal_single_gradients(net, rng.standard_normal((32, 2)), rng, k)

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    @pytest.mark.parametrize("transform", [
        "plain", "weight_standardization", "weight_normalization",
        "equilibrate_static", "equilibrate_reparam", "batch_norm",
        "batch_norm+weight_normalization"])
    def test_conv_rows_equal_single_gradients(self, transform, act):
        # a shared 4-d input into a stacked conv layer, a stacked 5-d one
        # into the next, then a dense layer on the flattened 5-d output
        kw = _transform_kw(transform)
        net = Network([Conv2dSpec(2, 3, kernel_size=3, padding=1, activation=act, **kw),
                       Conv2dSpec(3, 2, kernel_size=2, stride=2, activation=act, **kw),
                       DenseSpec(2 * 3 * 3, 1)], seed=4, input_shape=(2, 6, 6))
        rng = np.random.default_rng(5)
        _assert_rows_equal_single_gradients(net, rng.standard_normal((5, 2, 6, 6)), rng, 3)

    def test_stack_roundtrip_is_contiguous(self):
        net = small_dense(normalization="weight_normalization")
        stack = np.arange(3.0 * net.parameter_count()).reshape(3, -1)
        net.set_params_vector(stack)
        np.testing.assert_array_equal(net.get_params_vector(), stack)
        for layer in net.layers:
            for _, arr in layer.param_items():
                assert arr.shape[0] == 3

    def test_batch_norm_buffers_follow_the_stack(self):
        # stacking copies the buffers to every member, unstacking keeps the
        # first member's, and a stacked training pass moves each its own way
        net = small_dense(normalization="batch_norm")
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        net.forward(x, training=True)
        rm = net.layers[0].running_mean.copy()
        theta = net.get_params_vector()
        net.set_params_vector(np.stack([theta, 2.0 * theta]))
        np.testing.assert_array_equal(net.layers[0].running_mean, [rm, rm])
        net.forward(x, training=True)
        moved = net.layers[0].running_mean.copy()
        assert not np.array_equal(moved[0], moved[1])
        net.set_params_vector(theta)
        np.testing.assert_array_equal(net.layers[0].running_mean, moved[0])

    def test_training_pass_of_a_stack_marks_a_non_finite_member(self):
        # member 1's relu layer overflows to inf, which the tanh layer after
        # it squashes back to finite values; the stacked pass gives that
        # member NaN outputs instead of raising, keeps the batch-norm buffers
        # of the later layer as they were, and leaves member 0 untouched
        specs = [DenseSpec(2, 3, activation="relu"),
                 DenseSpec(3, 4, activation="tanh"),
                 DenseSpec(4, 4, activation="tanh", normalization="batch_norm"),
                 DenseSpec(4, 1)]
        x = np.random.default_rng(8).uniform(1.0, 2.0, (5, 2))
        net = Network(specs, seed=1)
        theta = net.get_params_vector()
        blown = theta.copy()
        blown[:6] = 1e308  # the first layer's weights
        blown[9:21] = np.abs(blown[9:21])  # the second's, so inf * w is +inf
        solo = Network(specs, seed=1)
        solo.set_params_vector(blown)
        with np.errstate(over="ignore", invalid="ignore"):
            h = solo.layers[0].forward(x, True)[0]
            assert np.isfinite(solo.layers[1].forward(h, True)[0]).all()
            with pytest.raises(NonFiniteActivationError):
                solo.forward(x, training=True)
        net.set_params_vector(np.stack([theta, blown]))
        rm = net.layers[2].running_mean.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = net.forward_with_caches(x, True)
        assert np.isnan(out[1]).all()
        np.testing.assert_array_equal(net.layers[2].running_mean[1], rm[1])
        solo.set_params_vector(theta)
        np.testing.assert_array_equal(out[0], solo.forward(x, training=True))
        np.testing.assert_array_equal(net.layers[2].running_mean[0],
                                      solo.layers[2].running_mean)
        # an eval pass still raises
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteActivationError):
            net.forward(x, training=False)


class TestConditioningTwins:
    def test_twin_keeps_params_and_count(self):
        net = small_dense()
        twin = net.with_conditioning("equilibrate_reparam", which="hidden")
        assert twin.parameter_count() == net.parameter_count()
        np.testing.assert_array_equal(twin.get_params_vector(),
                                      net.get_params_vector())
        assert twin.specs[0].conditioning == "equilibrate_reparam"
        assert twin.specs[-1].conditioning == "none"

    def test_static_twin_equilibrates_selected_weights(self):
        net = small_dense()
        net.layers[0].w *= np.array([30.0, 0.5])[:, None]
        twin = net.with_conditioning("equilibrate_static", which="hidden")
        np.testing.assert_allclose(
            np.linalg.norm(twin.layers[0].w, axis=1), 1.0, rtol=1e-12)
        # unselected layer untouched
        np.testing.assert_array_equal(twin.layers[1].w, net.layers[1].w)

    def test_reparam_equals_static_forward_at_same_weights(self):
        # a reparam layer evaluates the equilibrated weight, so its output
        # matches the statically rewritten twin at the initial point
        net = small_dense()
        net.layers[0].w *= np.array([30.0, 0.5])[:, None]
        rep = net.with_conditioning("equilibrate_reparam", which="hidden")
        sta = net.with_conditioning("equilibrate_static", which="hidden")
        x = np.random.default_rng(4).standard_normal((9, 2))
        np.testing.assert_allclose(rep.forward(x), sta.forward(x), rtol=1e-12)

    @pytest.mark.parametrize("cond", ["equilibrate_reparam", "equilibrate_static"])
    @pytest.mark.parametrize("which", ["12", "", "foo", "Hidden", [5], [-1], [True], [0.0],
                                       3, None, [0], (1, 2), range(1, 3), np.array([1]),
                                       np.array([1, 2])],
                             ids=repr)
    def test_which_rejects_anything_but_names_and_indices(self, cond, which):
        net = dense_2_8_4_1()
        with pytest.raises(DimensionError):
            net.with_conditioning(cond, which=which)


class TestConditionNumbers:
    def test_effective_kappa_drops_under_reparam(self):
        net = small_dense()
        net.layers[0].w *= np.array([1000.0, 1.0])[:, None]
        raw, eff = net.with_conditioning(
            "equilibrate_reparam", which="hidden").weight_condition_numbers()
        assert raw[0] == net.weight_condition_numbers()[0][0]
        assert eff[0] < raw[0] / 10.0
        # the untransformed last layer reports one kappa for both
        assert eff[1] == raw[1]

    def test_rank_deficient_reports_nan(self):
        net = small_dense()
        net.layers[0].w[...] = np.outer(np.ones(2), np.arange(8.0))
        ks, _ = net.weight_condition_numbers()
        assert np.isnan(ks[0]) and np.isfinite(ks[1])


class TestCloneAndCheckpoint:
    def test_clone_is_independent(self):
        net = small_dense(normalization="batch_norm")
        net.forward(np.random.default_rng(5).standard_normal((8, 2)),
                    training=True)  # move the running buffers
        twin = net.clone()
        x = np.random.default_rng(6).standard_normal((5, 2))
        np.testing.assert_array_equal(twin.forward(x), net.forward(x))
        twin.layers[0].w += 1.0
        assert not np.array_equal(twin.layers[0].w, net.layers[0].w)
