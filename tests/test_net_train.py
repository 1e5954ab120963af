import importlib
import tracemalloc

import numpy as np
import pytest

from equilab.bench.experiments import ARMS
from equilab.errors import DimensionError, NonFiniteActivationError, NonFiniteError
from equilab.net.train import bce_loss, evaluate, loss_and_gradients, mse_loss, train
from equilab.net import Conv2dSpec, DenseSpec, Network
from equilab.net.data import teacher_student_regression, two_moons

# the module itself; equilab.net re-exports its train() under the same name
train_module = importlib.import_module("equilab.net.train")


def fresh_net(seed=0, out_act="identity"):
    return Network([DenseSpec(2, 8, activation="tanh"),
                    DenseSpec(8, 1, activation=out_act)], seed=seed)


class TestLosses:
    def test_mse_value_and_gradient(self):
        pred = np.array([[1.0], [3.0]])
        y = np.array([[0.0], [1.0]])
        val, g = mse_loss(pred, y)
        assert val == pytest.approx((1.0 + 4.0) / 2.0)
        np.testing.assert_allclose(g, [[1.0], [2.0]])

    def test_bce_matches_naive_form_in_safe_range(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-5, 5, size=(20, 1))
        y = (rng.random((20, 1)) > 0.5).astype(float)
        val, _ = bce_loss(z, y)
        p = 1.0 / (1.0 + np.exp(-z))
        naive = float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))
        assert val == pytest.approx(naive, rel=1e-12)

    def test_bce_stable_at_extreme_logits(self):
        z = np.array([[800.0], [-800.0]])
        y = np.array([[1.0], [0.0]])
        val, g = bce_loss(z, y)
        assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(g))

    def test_bce_gradient_bits_match_two_branch_sigmoid(self):
        rng = np.random.default_rng(2)
        z = np.concatenate([rng.standard_normal(40) * 8.0,
                            [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]])[:, None]
        y = (rng.random(z.shape) > 0.5).astype(float)
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        sig[~pos] = ez / (1.0 + ez)
        val, g = bce_loss(z, y)
        naive = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        assert val == float(np.mean(naive))
        np.testing.assert_array_equal(g, (sig - y) / z.size)

    def test_bce_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 1))
        y = (rng.random((6, 1)) > 0.5).astype(float)
        _, g = bce_loss(z, y)
        h = 1e-6
        for i in range(6):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (bce_loss(zp, y)[0] - bce_loss(zm, y)[0]) / (2 * h)
            assert g[i, 0] == pytest.approx(fd, rel=1e-6)


class TestTrain:
    def test_loss_decreases_and_trace_fields(self):
        x, y, _ = teacher_student_regression(128, seed=0, kappa=10.0)
        net = fresh_net()
        tr = train(net, x, y, lr=0.05, epochs=10, batch_size=32, seed=0)
        assert tr.epochs_completed == 10
        assert tr.train_loss[-1] < tr.train_loss[0]
        assert not tr.diverged and tr.diverged_at is None
        assert tr.kappa_weights.shape == (10, 2)
        # every step's time is kept: 4 steps in each of 10 epochs
        assert tr.step_times.shape == (40,)
        assert (tr.step_times > 0.0).all()
        assert tr.accuracy is None

    def test_identical_setup_gives_identical_losses(self):
        x, y, _ = teacher_student_regression(96, seed=3)
        n1, n2 = fresh_net(), fresh_net()
        t1 = train(n1, x, y, lr=0.05, epochs=5, seed=4)
        t2 = train(n2, x, y, lr=0.05, epochs=5, seed=4)
        np.testing.assert_array_equal(t1.train_loss, t2.train_loss)
        np.testing.assert_array_equal(n1.param_buffer, n2.param_buffer)
        assert t1.data_digest == t2.data_digest

    def test_shuffle_stream_ignores_network(self):
        x, y, _ = teacher_student_regression(96, seed=3)
        n1, n2 = fresh_net(seed=0), fresh_net(seed=9)
        assert not np.array_equal(n1.param_buffer, n2.param_buffer)
        t1 = train(n1, x, y, lr=0.01, epochs=3, seed=4)
        t2 = train(n2, x, y, lr=0.01, epochs=3, seed=4)
        assert t1.data_digest == t2.data_digest

    def test_divergence_flags_instead_of_raising(self):
        x, y, _ = teacher_student_regression(128, seed=0, kappa=1e3)
        net = fresh_net()
        tr = train(net, x, y, lr=1e6, epochs=20, batch_size=32, seed=0)
        assert tr.diverged
        assert tr.diverged_at is not None and tr.diverged_at < 20
        assert tr.epochs_completed <= tr.diverged_at

    def test_nan_gradient_in_a_later_parameter_flags_divergence(self, monkeypatch):
        # the last batch of epoch 0 sends NaN into the output bias, the last
        # parameter array, which a per-array max() over the arrays dropped
        net = Network([DenseSpec(2, 4, activation="tanh"), DenseSpec(4, 1)], seed=0)
        x, y, _ = teacher_student_regression(8, seed=0)
        calls = []

        def poisoned(n, xb, yb, **kw):
            val, grads = loss_and_gradients(n, xb, yb, **kw)
            calls.append(None)
            if len(calls) == 2:
                grads[1]["b"] = np.full_like(grads[1]["b"], np.nan)
            return val, grads

        monkeypatch.setattr(train_module, "loss_and_gradients", poisoned)
        tr = train(net, x, y, lr=0.01, epochs=3, batch_size=4)
        assert tr.diverged and tr.diverged_at == 0
        assert tr.epochs_completed == 0

    def test_net_ends_unstacked_when_training_raises(self, monkeypatch):
        # the eval pass of epoch 1 raises; the net is left holding the
        # parameters of its one member, as after the epoch's last step
        x, y, _ = teacher_student_regression(16, seed=0)
        net, ref = fresh_net(), fresh_net()
        evals = []

        def failing(n, *a, **kw):
            evals.append(None)
            if len(evals) == 2:
                raise NonFiniteActivationError(1, stage="activation")
            return evaluate(n, *a, **kw)

        monkeypatch.setattr(train_module, "evaluate", failing)
        with pytest.raises(NonFiniteActivationError):
            train(net, x, y, lr=0.1, epochs=3, batch_size=8)
        per_array_sgd(ref, x, y, loss="mse", lr=0.1, momentum=0.0, epochs=2,
                      batch_size=8, seed=0)
        np.testing.assert_array_equal(net.param_buffer, ref.param_buffer)

    def test_momentum_changes_the_path(self):
        x, y, _ = teacher_student_regression(96, seed=2)
        t0 = train(fresh_net(), x, y, lr=0.01, epochs=5, seed=1)
        t1 = train(fresh_net(), x, y, lr=0.01, momentum=0.9, epochs=5, seed=1)
        assert not np.array_equal(t0.train_loss, t1.train_loss)

    def test_bce_records_accuracy(self):
        x, y = two_moons(128, noise=0.1, seed=0)
        net = fresh_net(out_act="sigmoid_output")
        tr = train(net, x, y, loss="bce", lr=0.1, epochs=10, seed=0)
        assert tr.accuracy is not None and len(tr.accuracy) == 10
        assert tr.accuracy[-1] > 0.7

    def test_validation(self):
        x, y, _ = teacher_student_regression(16, seed=0)
        with pytest.raises(DimensionError):
            train(fresh_net(), x, y, loss="huber")
        with pytest.raises(DimensionError):
            train(fresh_net(), x, y, lr=0.0)
        with pytest.raises(DimensionError):
            train(fresh_net(), x, y[:-1])
        stacked = fresh_net()
        stacked.set_params_vector(stacked.get_params_vector()[None, :])
        with pytest.raises(DimensionError):
            train(stacked, x, y)
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            train(fresh_net(), bad, y)
        with pytest.raises(DimensionError):
            train(fresh_net(), x[:0], y[:0])
        for lr in ([], [[0.1]], [0.1, -1.0], [0.1, np.inf]):
            with pytest.raises(DimensionError):
                train(fresh_net(), x, y, lr=lr)
        with pytest.raises(DimensionError):
            train(stacked, x, y, lr=[0.1, 0.2])

    @pytest.mark.parametrize("n, batch_size", [(16, 1), (1, 4)],
                             ids=["batch_size_1", "one_sample"])
    def test_batch_norm_with_only_singleton_batches_rejected(self, n, batch_size):
        # batch norm skips singleton batches; with nothing else there is no
        # step and no loss to average
        x, y, _ = teacher_student_regression(n, seed=0)
        net = Network([DenseSpec(2, 8, activation="tanh", normalization="batch_norm"),
                       DenseSpec(8, 1)], seed=0)
        before = net.get_params_vector()
        with pytest.raises(DimensionError):
            train(net, x, y, batch_size=batch_size)
        np.testing.assert_array_equal(net.get_params_vector(), before)
        # without batch norm the same data trains
        assert train(fresh_net(), x, y, batch_size=batch_size, epochs=1).epochs_completed == 1

    def test_one_pass_per_step_and_no_clone(self, monkeypatch):
        # every forward/backward that train() runs is a timed SGD step
        x, y, _ = teacher_student_regression(20, seed=0)
        calls = []

        def counted(n, xb, yb, **kw):
            calls.append(len(xb))
            return loss_and_gradients(n, xb, yb, **kw)

        def no_clone(self):
            raise AssertionError("train() cloned the network")

        monkeypatch.setattr(train_module, "loss_and_gradients", counted)
        monkeypatch.setattr(Network, "clone", no_clone)
        tr = train(fresh_net(), x, y, epochs=2, batch_size=8, record=False)
        assert calls == [8, 8, 4] * 2
        assert len(tr.step_times) == len(calls)


def per_array_sgd(net, x, y, *, loss, lr, momentum, epochs, batch_size, seed):
    """The SGD loop as it was before the flat parameter buffer and the rate
    stack: one unstacked net, one update per parameter array, batches
    fancy-indexed from the permutation.  train()'s divergence rule: a
    non-finite activation or loss stops the run at the offending batch,
    before its update, and a parameter beyond DIVERGENCE_NORM in absolute
    value (or non-finite) after it.  Returns the per-epoch train losses of
    the completed epochs and the epoch the run diverged in, or None."""
    has_bn = any(layer.batch_norm for layer in net.layers)
    params = [(li, name, arr) for li, layer in enumerate(net.layers)
              for name, arr in layer.param_items()]
    velocity = [np.zeros_like(arr) for _, _, arr in params]
    n = x.shape[0]
    losses = []
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, epoch)))
        perm = rng.permutation(n)
        batch_losses, batch_sizes = [], []
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            if has_bn and idx.size < 2:
                continue
            try:
                val, grads = loss_and_gradients(net, x[idx], y[idx], loss=loss)
            except NonFiniteActivationError:
                return np.array(losses), epoch
            if not np.isfinite(val):
                return np.array(losses), epoch
            for (li, name, arr), v in zip(params, velocity):
                g = np.asarray(grads[li][name]).reshape(arr.shape)
                if momentum:
                    v *= momentum
                    v += g
                    g = v
                arr -= lr * g
            batch_losses.append(val)
            batch_sizes.append(idx.size)
            if not all(np.abs(arr).max() <= train_module.DIVERGENCE_NORM
                       for _, _, arr in params):
                return np.array(losses), epoch
        losses.append(float(np.average(batch_losses, weights=batch_sizes)))
    return np.array(losses), None


# an arm on a conv-conv-dense net over 1x4x4 images, with batch norm and
# equilibrate_reparam on both conv layers
CONV_ARM = "conv_bn+e"


def arm_fixture(arm, loss, hidden):
    """(net factory, x, y) of 37 samples for an arm of ARMS on a dense
    2-*hidden-1 net, or for CONV_ARM.

    37 samples in batches of 4 leave a singleton remainder, which the
    batch-norm arms skip.
    """
    out_act = "sigmoid_output" if loss == "bce" else "identity"
    if arm == CONV_ARM:
        rng = np.random.default_rng(1)
        x = rng.standard_normal((37, 16))
        z = np.tanh(x @ rng.standard_normal((16, 1)) / 4.0)
        y = (z > 0).astype(float) if loss == "bce" else z
        return (lambda: conv_net("batch_norm", "equilibrate_reparam", out_act)), x, y
    if loss == "bce":
        x, y = two_moons(37, noise=0.2, seed=1)
    else:
        x, y, _ = teacher_student_regression(37, seed=1, kappa=10.0)
    norm, cond = ARMS[arm]
    widths = (2, *hidden)
    acts = ("tanh", "relu")

    def arm_net():
        specs = [DenseSpec(a, b, activation=act, normalization=norm)
                 for a, b, act in zip(widths, widths[1:], acts)]
        net = Network([*specs, DenseSpec(widths[-1], 1, activation=out_act)], seed=5)
        return net if cond == "none" else net.with_conditioning(cond)

    return arm_net, x, y


def conv_net(norm, cond, out_act="identity"):
    """1x4x4 images -> conv 3x3 (3 filters, tanh) -> conv 2x2 stride 2
    (2 filters, relu) -> dense 8 -> 1; norm and cond on both conv layers."""
    net = Network([Conv2dSpec(1, 3, kernel_size=3, padding=1, activation="tanh",
                              normalization=norm),
                   Conv2dSpec(3, 2, kernel_size=2, stride=2, activation="relu",
                              normalization=norm),
                   DenseSpec(8, 1, activation=out_act)], seed=5, input_shape=(1, 4, 4))
    return net if cond == "none" else net.with_conditioning(cond)


class TestFlatStepMatchesPerArrayLoop:
    """train()'s one-buffer step gives the bits of the per-array loop."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("loss", ["mse", "bce"])
    @pytest.mark.parametrize("arm", [*ARMS, CONV_ARM])
    def test_bit_identical(self, arm, loss, momentum):
        arm_net, x, y = arm_fixture(arm, loss, hidden=(6,))
        kw = dict(loss=loss, lr=0.1, momentum=momentum, epochs=3, batch_size=4, seed=2)
        ref = arm_net()
        ref_losses, ref_diverged_at = per_array_sgd(ref, x, y, **kw)
        net = arm_net()
        tr = train(net, x, y, record=False, **kw)
        assert not tr.diverged and ref_diverged_at is None
        np.testing.assert_array_equal(tr.train_loss, ref_losses)
        np.testing.assert_array_equal(net.get_params_vector(), ref.get_params_vector())


TRACE_FIELDS = ("train_loss", "eval_loss", "accuracy", "kappa_weights", "kappa_effective",
                "diverged", "diverged_at", "data_digest")


def assert_members_match_reference(arm_net, x, y, rates, **kw):
    """Train arm_net() on a stack of rates; each member's train_loss and
    diverged_at equal per_array_sgd's at its rate, the net ends with the
    parameters and batch-norm buffers of the first rate's reference run,
    and each trace equals a solo train() call's (a one-member stack),
    except for step_times, which are the stacked steps' times.  Returns
    the traces."""
    net = arm_net()
    traces = train(net, x, y, lr=rates, **kw)
    steps = traces[0].step_times
    for i, lr in enumerate(rates):
        ref = arm_net()
        ref_losses, ref_diverged_at = per_array_sgd(
            ref, x, y, lr=lr, **{k: v for k, v in kw.items() if k != "record"})
        np.testing.assert_array_equal(traces[i].train_loss, ref_losses)
        assert traces[i].diverged_at == ref_diverged_at
        if i == 0:
            np.testing.assert_array_equal(net.param_buffer, ref.param_buffer)
            for mine, theirs in zip(net.layers, ref.layers):
                for (_, a), (_, b) in zip(mine.buffer_items(), theirs.buffer_items()):
                    np.testing.assert_array_equal(a, b)
        want = train(arm_net(), x, y, lr=lr, **{**kw, "record": i == 0})
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(getattr(traces[i], field), getattr(want, field))
        assert len(traces[i].step_times) == len(want.step_times)
        np.testing.assert_array_equal(traces[i].step_times, steps[:len(want.step_times)])
    return traces


class TestRateStack:
    """train() on a sequence of rates against per_array_sgd at each rate."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("loss", ["mse", "bce"])
    @pytest.mark.parametrize("arm", [*ARMS, CONV_ARM])
    def test_members_equal_solo_runs(self, arm, loss, momentum):
        # 1e30 diverges in every arm and 1e4 in most, so members leave the
        # stack at different batches
        arm_net, x, y = arm_fixture(arm, loss, hidden=(6, 5))
        traces = assert_members_match_reference(
            arm_net, x, y, [0.1, 1e4, 0.3, 1e30],
            loss=loss, momentum=momentum, epochs=3, batch_size=4, seed=2)
        assert traces[3].diverged and not traces[0].diverged

    @pytest.mark.parametrize("cond", ["none", "equilibrate_static", "equilibrate_reparam"])
    @pytest.mark.parametrize("norm", ["none", "batch_norm", "weight_standardization",
                                      "weight_normalization"])
    def test_conv_members_match_reference(self, norm, cond):
        x = np.random.default_rng(3).standard_normal((37, 16))
        y = np.sin(x[:, :1])
        traces = assert_members_match_reference(
            lambda: conv_net(norm, cond), x, y, [0.05, 1e30, 0.2],
            loss="mse", momentum=0.9, epochs=3, batch_size=4, seed=2)
        assert traces[1].diverged and not traces[0].diverged

    @pytest.mark.parametrize("scale, stage", [(1e160, "loss"), (1.7e308, "activation")])
    def test_non_finite_batch_matches_reference(self, scale, stage):
        # one sample, put in epoch 0's sixth batch, overflows the squared
        # error or the first layer's preactivations; the 1e30 member has
        # left by then, at the first batch, by the parameter bound
        rng = np.random.default_rng(4)
        x = rng.standard_normal((37, 4))
        y = np.sin(x[:, :1])
        perm = np.random.default_rng(np.random.SeedSequence((2, 37, 0))).permutation(37)
        x[perm[20]] = scale

        def arm_net():
            return Network([DenseSpec(4, 6, activation="relu"), DenseSpec(6, 1)], seed=0)

        with np.errstate(over="ignore", invalid="ignore"):
            if stage == "loss":
                assert loss_and_gradients(arm_net(), x[perm[20:21]], y[:1])[0] == np.inf
            else:
                with pytest.raises(NonFiniteActivationError):
                    loss_and_gradients(arm_net(), x[perm[20:21]], y[:1])
            traces = assert_members_match_reference(
                arm_net, x, y, [0.05, 0.1, 1e30],
                loss="mse", momentum=0.0, epochs=3, batch_size=4, seed=2)
        assert [t.diverged_at for t in traces] == [0, 0, 0]
        assert [len(t.step_times) for t in traces] == [5, 5, 1]

    def test_first_rate_diverging_leaves_its_net(self):
        x, y, _ = teacher_student_regression(40, seed=0, kappa=1e3)
        net, solo = fresh_net(), fresh_net()
        first, second = train(net, x, y, lr=[1e6, 0.05], epochs=4, batch_size=8)
        want = train(solo, x, y, lr=1e6, epochs=4, batch_size=8)
        assert first.diverged and not second.diverged
        np.testing.assert_array_equal(first.train_loss, want.train_loss)
        np.testing.assert_array_equal(net.param_buffer, solo.param_buffer)
        # every finite step of the second rate kept its kappa columns nan
        assert np.isnan(second.kappa_weights).all() and second.epochs_completed == 4

    def test_one_pass_per_stacked_step(self, monkeypatch):
        x, y, _ = teacher_student_regression(20, seed=0)
        calls = []

        def counted(n, xb, yb, **kw):
            calls.append(len(xb))
            return loss_and_gradients(n, xb, yb, **kw)

        monkeypatch.setattr(train_module, "loss_and_gradients", counted)
        traces = train(fresh_net(), x, y, lr=[0.01, 0.02, 0.03], epochs=2, batch_size=8)
        assert calls == [8, 8, 4] * 2
        assert all(len(t.step_times) == len(calls) for t in traces)


class TestRecording:
    """record: the first rate's eval loss, accuracy and kappa come from an
    unstacked clone of the net; every other member evaluates nothing."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("loss", ["mse", "bce"])
    @pytest.mark.parametrize("arm", [*ARMS, CONV_ARM])
    def test_recorded_member_equals_solo_call(self, arm, loss, momentum):
        arm_net, x, y = arm_fixture(arm, loss, hidden=(6,))
        kw = dict(loss=loss, momentum=momentum, epochs=3, batch_size=4, seed=2)
        net = arm_net()
        first, second = train(net, x, y, lr=[0.1, 0.3], **kw)
        solo = train(arm_net(), x, y, lr=0.1, **kw)
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(getattr(first, field), getattr(solo, field))
        assert len(first.step_times) == len(solo.step_times)
        # the last record is the final net's, evaluated on its own
        ev, acc = evaluate(net, x, y, loss=loss)
        assert first.eval_loss[-1] == ev
        assert (first.accuracy is None) == (acc is None)
        if acc is not None:
            assert first.accuracy[-1] == acc
        raw, eff = net.weight_condition_numbers()
        np.testing.assert_array_equal(first.kappa_weights[-1], raw)
        np.testing.assert_array_equal(first.kappa_effective[-1], eff)
        # the second rate records nothing, over every epoch it completed
        assert not np.isnan(first.eval_loss).any()
        for col in (second.eval_loss, second.kappa_weights, second.kappa_effective,
                    *([] if loss == "mse" else [second.accuracy])):
            assert len(col) == second.epochs_completed == 3 and np.isnan(col).all()

    @pytest.mark.parametrize("record", [False, True])
    def test_eval_forwards_only_for_the_recording_member(self, monkeypatch, record):
        arm_net, x, y = arm_fixture("bn+e", "bce", hidden=(6,))
        forward = Network.forward
        evals = []

        def counted(self, xb, training=False):
            if not training:
                evals.append(len(xb))
            return forward(self, xb, training)

        monkeypatch.setattr(Network, "forward", counted)
        traces = train(arm_net(), x, y, loss="bce", lr=[0.1, 1e4, 0.3], epochs=3,
                       batch_size=4, seed=2, record=record)
        assert not traces[0].diverged
        # one full-batch forward per epoch end of the first rate, or none
        assert evals == ([len(x)] * 3 if record else [])
        if not record:
            assert all(np.isnan(t.eval_loss).all() and np.isnan(t.accuracy).all()
                       for t in traces)

    def test_records_fresh_values_after_a_later_member_leaves(self):
        # the 1e30 member leaves at the first batch, which rebuilds the
        # stack's parameter and batch-norm buffers; the first rate's records
        # must follow the new buffers
        x = np.random.default_rng(3).standard_normal((37, 16))
        y = np.sin(x[:, :1])
        net = conv_net("batch_norm", "equilibrate_reparam")
        first, gone = train(net, x, y, lr=[0.05, 1e30], momentum=0.9, epochs=4,
                            batch_size=4, seed=2)
        assert gone.diverged_at == 0 and not first.diverged
        solo = train(conv_net("batch_norm", "equilibrate_reparam"), x, y, lr=0.05,
                     momentum=0.9, epochs=4, batch_size=4, seed=2)
        for field in ("eval_loss", "kappa_weights", "kappa_effective"):
            np.testing.assert_array_equal(getattr(first, field), getattr(solo, field))
        assert len(set(first.eval_loss.tolist())) == 4
        assert first.eval_loss[-1] == evaluate(net, x, y)[0]

    def test_rate_stack_holds_no_stacked_eval(self):
        # a stacked full-batch eval forward of ten batch-norm members holds
        # several (10, 512, 64) float64 arrays, 2.6 MB each, and peaked at
        # 22 MB; training the stack with one unstacked eval peaks near 3.4 MB
        x, y = two_moons(512, noise=0.2, seed=0)
        net = Network([DenseSpec(2, 64, activation="tanh", normalization="batch_norm"),
                       DenseSpec(64, 64, activation="relu", normalization="batch_norm"),
                       DenseSpec(64, 1, activation="sigmoid_output")], seed=0)
        tracemalloc.start()
        try:
            traces = train(net, x, y, loss="bce", lr=np.geomspace(0.01, 0.1, 10), epochs=2,
                           batch_size=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(t.diverged for t in traces)
        assert peak < 8e6, peak


class TestTraceCsv:
    def test_csv_shape_and_no_timings(self):
        x, y, _ = teacher_student_regression(64, seed=0)
        tr = train(fresh_net(), x, y, lr=0.05, epochs=4, seed=0)
        text = "".join(tr.csv_blocks())
        lines = text.split("\r\n")
        assert lines[0] == ("epoch,train_loss,eval_loss,"
                            "kappa_w0,kappa_w1,kappa_eff0,kappa_eff1")
        assert len(lines) == 1 + 4 + 1  # header, rows, trailing newline
        assert "wall" not in text

    def test_csv_bytes_identical_across_runs(self):
        x, y, _ = teacher_student_regression(64, seed=1)

        def run():
            tr = train(fresh_net(), x, y, lr=0.05, epochs=3, seed=2)
            return "".join(tr.csv_blocks())

        assert run() == run()

    def test_accuracy_column_for_bce(self):
        x, y = two_moons(64, seed=0)
        net = fresh_net(out_act="sigmoid_output")
        tr = train(net, x, y, loss="bce", lr=0.1, epochs=2, seed=0)
        assert "".join(tr.csv_blocks()).split("\r\n")[0].split(",")[3] == "accuracy"
