"""Minibatch SGD with optional momentum, one parameter stack of learning
rates per run (a single rate is a one-member stack); loss functions and
run traces.

The shuffle stream depends only on (seed, epoch, n_samples), never on the
network, so arms sharing a seed see identical batch boundaries; the trace
records a digest of the data order so that fairness can be asserted
instead of assumed.

Wall-clock timings live only on the in-memory trace (and in run
manifests); CSV output is fully deterministic for a given config/seed.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from equilab._csvfmt import csv_blocks
from equilab._heap import keep_freed_heap
from equilab.errors import DimensionError, NonFiniteError

LOSSES = ("mse", "bce")
DIVERGENCE_NORM = 1e12


def _member_mean(v, y_ndim):
    """Mean of v over its trailing y_ndim axes: a float, or a (k,) array of
    member means when v carries a leading stack axis (each member's sum
    runs over its own contiguous row, as the float's does)."""
    if v.ndim == y_ndim:
        return float(v.sum() / v.size)
    rows = v.reshape(len(v), -1)
    return rows.sum(axis=1) / rows.shape[1]


def mse_loss(pred, y):
    """Mean squared error over all output entries; returns (loss, dpred).

    pred may carry a leading stack axis over y's shape (a Network holding a
    parameter stack); the loss is then a (k,) array and dpred holds each
    member's gradient, each with the bits of a call on that member alone.
    """
    d = pred - y
    sq = d * d
    return _member_mean(sq, np.ndim(y)), 2.0 * d / math.prod(d.shape[d.ndim - np.ndim(y):])


def bce_loss(z, y):
    """Binary cross entropy on logits, in the stable max(z,0)-z*y+log1p(exp(-|z|))
    form; returns (loss, dz), per member for a stack as in mse_loss.

    With m = min(z, 0) and p = max(z, 0), m - p is -|z| exactly, so
    e = exp(m - p) = exp(-|z|), and the sigmoid is exp(m)/(1+e): 1/(1+e)
    for z >= 0 and e/(1+e) below, where exp(m) is e itself.  Neither
    branch can overflow, and no mask picks between them.
    """
    m = np.minimum(z, 0.0)
    p = np.maximum(z, 0.0)
    e = np.exp(m - p)
    val = p - z * y + np.log1p(e)
    sig = np.exp(m) / (1.0 + e)
    y_ndim = np.ndim(y)
    return _member_mean(val, y_ndim), (sig - y) / math.prod(z.shape[z.ndim - y_ndim:])


def evaluate(net, x, y, loss="mse"):
    """Full-batch eval-mode loss (and accuracy for bce), per member for a
    parameter stack."""
    out = net.forward(x, training=False)
    if loss == "mse":
        return mse_loss(out, y)[0], None
    val, _ = bce_loss(out, y)
    return val, _member_mean((out > 0.0) == (y > 0.5), np.ndim(y))


def loss_and_gradients(net, x, y, loss="mse", training=True):
    """Forward + backward; returns (loss_value, per-layer grad dicts).

    For a parameter stack the loss value is the (k,) array of member
    losses.
    """
    if loss not in LOSSES:
        raise DimensionError(f"unknown loss {loss!r}")
    out, caches = net.forward_with_caches(x, training=training)
    fn = mse_loss if loss == "mse" else bce_loss
    val, dout = fn(out, np.asarray(y, dtype=np.float64))
    grads = net.backward(dout, caches)
    return val, grads


@dataclass
class TrainTrace:
    """Per-epoch history of one training run.

    Arrays all have length epochs_completed; kappa columns are nan where a
    weight matrix was numerically rank deficient.  step_times holds every
    completed step's time, in order; it is measured and therefore excluded
    from to_csv output.
    """

    train_loss: np.ndarray
    eval_loss: np.ndarray
    accuracy: np.ndarray | None
    step_times: np.ndarray
    kappa_weights: np.ndarray      # (epochs, n_layers)
    kappa_effective: np.ndarray    # (epochs, n_layers)
    diverged: bool
    diverged_at: int | None
    data_digest: str

    @property
    def epochs_completed(self):
        return len(self.train_loss)

    def csv_blocks(self):
        """CSV text as `_csvfmt.csv_blocks` strs, one row per completed
        epoch (CRLF line ends).

        Every float cell is its shortest round-trip `repr`; each row's
        index is its epoch.  The rows come a block at a time: on the
        compiled backend the extension formats them, on the numpy
        fallback `repr` runs once per distinct value per block of rows.
        """
        n_layers = self.kappa_weights.shape[1]
        cols = ["epoch", "train_loss", "eval_loss"]
        columns = [self.train_loss, self.eval_loss]
        if self.accuracy is not None:
            cols.append("accuracy")
            columns.append(self.accuracy)
        cols += [f"kappa_w{i}" for i in range(n_layers)]
        cols += [f"kappa_eff{i}" for i in range(n_layers)]
        values = np.column_stack([*columns, self.kappa_weights, self.kappa_effective])
        return csv_blocks([",".join(cols)], values)

    def to_csv(self):
        """The CSV text of `csv_blocks` as one str."""
        return "".join(self.csv_blocks())


class _History:
    """One run's records while it trains."""

    def __init__(self):
        self.train_loss, self.eval_loss, self.accuracy = [], [], []
        self.kappa_weights, self.kappa_effective = [], []
        self.step_times, self.batch_losses = [], []
        self.diverged_at = None
        self.data_digest = None

    def end_epoch(self, batch_sizes, eval_loss, accuracy, kappas):
        self.train_loss.append(float(np.average(self.batch_losses, weights=batch_sizes)))
        self.batch_losses = []
        self.eval_loss.append(eval_loss)
        if accuracy is not None:
            self.accuracy.append(accuracy)
        self.kappa_weights.append(kappas[0])
        self.kappa_effective.append(kappas[1])

    def trace(self, loss, n_layers):
        empty = np.zeros((0, n_layers))
        return TrainTrace(
            train_loss=np.array(self.train_loss),
            eval_loss=np.array(self.eval_loss),
            accuracy=np.array(self.accuracy) if loss == "bce" else None,
            step_times=np.array(self.step_times),
            kappa_weights=np.array(self.kappa_weights) if self.kappa_weights else empty,
            kappa_effective=np.array(self.kappa_effective) if self.kappa_effective else empty,
            diverged=self.diverged_at is not None,
            diverged_at=self.diverged_at,
            data_digest=self.data_digest,
        )


def _batches(x, y, seed, epoch, batch_size, has_bn, data_hash):
    """One epoch's minibatches in the order of its shuffle, which is added
    to data_hash; a batch-norm net skips a singleton remainder."""
    n = x.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, epoch)))
    perm = rng.permutation(n)
    data_hash.update(perm.astype(np.int64).tobytes())
    xs, ys = x[perm], y[perm]
    for start in range(0, n, batch_size):
        if not (has_bn and n - start < 2):
            yield xs[start:start + batch_size], ys[start:start + batch_size]


def train(net, x, y, *, loss="mse", lr=0.01, momentum=0.0, epochs=10,
          batch_size=32, seed=0, record_kappa=True):
    """Train net in place with minibatch SGD; returns a TrainTrace, or a
    list of them, one per rate, when lr is a sequence.

    The per-epoch eval loss is the full-batch eval-mode loss on (x, y).

    Every call trains a parameter stack, one member per rate (a single
    rate is a one-member stack): one forward/backward per batch covers
    every member, and each member's trace has the bits of a call at its
    rate alone, except that its step_times are the times of the stacked
    steps.  net must hold unstacked parameters (DimensionError otherwise)
    and ends unstacked, as a call at the first rate alone would leave it,
    also when training raises.  A batch-norm net skips a singleton
    remainder batch, and raises DimensionError up front when every batch
    would be a singleton (batch_size 1 or one sample).  Each step's time
    covers its forward/backward pass and its update, the first step
    included.  Divergence (non-finite activations/loss, or a parameter
    beyond 1e12 in absolute value or non-finite) takes a member out of the
    stack at the end of the offending batch and flags its trace instead of
    raising.  Only the first rate records kappa; the other members' kappa
    columns are nan.
    """
    if loss not in LOSSES:
        raise DimensionError(f"unknown loss {loss!r}")
    rates = np.asarray(lr, dtype=np.float64)
    if rates.ndim > 1 or rates.size == 0 or not (np.isfinite(rates) & (rates > 0)).all():
        raise DimensionError(f"lr must be positive and finite, or a 1-d sequence of "
                             f"such rates, got {lr!r}")
    if epochs < 1 or batch_size < 1:
        raise DimensionError("epochs and batch_size must be >= 1")
    if net.param_buffer.ndim != 1:
        raise DimensionError(f"train takes a net with unstacked parameters; this one "
                             f"holds a stack of {len(net.param_buffer)} parameter vectors")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("training data contains non-finite values")
    n = x.shape[0]
    if y.shape[0] != n:
        raise DimensionError(f"{n} inputs vs {y.shape[0]} targets")

    if n < 1:
        raise DimensionError("training needs at least one sample")
    has_bn = any(layer.batch_norm for layer in net.layers)
    if has_bn and min(n, batch_size) < 2:
        raise DimensionError(f"batch norm needs batches of at least 2 samples; "
                             f"{n} samples in batches of {batch_size} give none")
    keep_freed_heap()
    stack = _RateStack(net, rates.reshape(-1), momentum)
    histories = [_History() for _ in range(rates.size)]
    data_hash = hashlib.sha256()
    nan_kappas = ([float("nan")] * len(net.layers),) * 2

    def leave(mask, epoch):
        for r in stack.alive[mask]:
            histories[r].diverged_at = epoch
            histories[r].data_digest = data_hash.hexdigest()
        stack.drop(mask)

    try:
        for epoch in range(epochs):
            batch_sizes = []
            for xb, yb in _batches(x, y, seed, epoch, batch_size, has_bn, data_hash):
                t0 = time.perf_counter()
                val, grads = loss_and_gradients(net, xb, yb, loss=loss)
                g = net.grads_to_vector(grads)
                finite = np.isfinite(val)
                if not finite.all():
                    leave(~finite, epoch)
                    if not stack.alive.size:
                        break
                    val, g = val[finite], g[finite]
                stack.step(g)
                dt = time.perf_counter() - t0
                for r, v in zip(stack.alive, val.tolist()):
                    histories[r].step_times.append(dt)
                    histories[r].batch_losses.append(v)
                batch_sizes.append(len(xb))
                too_large = stack.too_large()
                if too_large is not None:
                    leave(too_large, epoch)
                    if not stack.alive.size:
                        break
            if not stack.alive.size:
                break
            ev, a = evaluate(net, x, y, loss=loss)
            kappas = (net.weight_condition_numbers() if record_kappa and stack.alive[0] == 0
                      else nan_kappas)
            for j, r in enumerate(stack.alive):
                histories[r].end_epoch(batch_sizes, float(ev[j]),
                                       None if a is None else float(a[j]),
                                       kappas if r == 0 else nan_kappas)
    finally:
        stack.finish()
    for r in stack.alive:
        histories[r].data_digest = data_hash.hexdigest()
    traces = [h.trace(loss, len(net.layers)) for h in histories]
    return traces if rates.ndim else traces[0]


def _member_state(net, members):
    """Copies of the parameters and batch-norm buffers of the stack members
    `members`: an index array, or an int for one member, unstacked."""
    return (net.get_params_vector()[members],
            [arr[members] for layer in net.layers for _, arr in layer.buffer_items()])


def _load_state(net, state):
    theta, buffers = state
    net.set_params_vector(theta)
    arrays = [arr for layer in net.layers for _, arr in layer.buffer_items()]
    for arr, value in zip(arrays, buffers):
        arr[...] = value


class _RateStack:
    """The members of a learning-rate stack that are still training.

    The net holds one member per rate in `alive`; its parameter buffer is
    the (k, n) parameter stack itself, so an SGD step updates every member
    with one operation on it.
    """

    def __init__(self, net, rates, momentum):
        self.net, self.momentum = net, momentum
        self.alive = np.arange(len(rates))
        self.lr = rates[:, None]
        self.first_state = None
        net.set_params_vector(np.tile(net.param_buffer, (len(rates), 1)))
        self.velocity = np.zeros(net.param_buffer.shape) if momentum else None

    def step(self, g):
        """One SGD update from the (k, n) gradient stack g."""
        if self.velocity is not None:
            self.velocity *= self.momentum
            self.velocity += g
            g = self.velocity
        flat = self.net.param_buffer
        flat -= self.lr * g

    def too_large(self):
        """(k,) mask of the members with a parameter beyond DIVERGENCE_NORM
        or non-finite, or None when no member has one."""
        mags = np.abs(self.net.param_buffer)
        if mags.max() <= DIVERGENCE_NORM:
            return None
        return ~(mags.max(axis=1) <= DIVERGENCE_NORM)

    def drop(self, leave):
        """Remove the members where the (k,) mask leave is set."""
        if leave[0] and self.alive[0] == 0:
            self.first_state = _member_state(self.net, 0)
        keep = ~leave
        self.alive = self.alive[keep]
        if not self.alive.size:
            return
        self.lr = self.lr[keep]
        if self.velocity is not None:
            self.velocity = self.velocity[keep]
        _load_state(self.net, _member_state(self.net, np.flatnonzero(keep)))

    def finish(self):
        """Leave the net unstacked, as the first rate alone would."""
        if self.first_state is None:
            self.first_state = _member_state(self.net, 0)
        _load_state(self.net, self.first_state)
