"""Minibatch SGD with optional momentum, at one learning rate or at several
trained as one parameter stack; loss functions and run traces.

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

from equilab._csvfmt import csv_text, format_rows
from equilab.errors import DimensionError, NonFiniteActivationError, NonFiniteError

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

    The sigmoid reuses e = exp(-|z|): 1/(1+e) for z >= 0 and e/(1+e)
    below, so neither branch can overflow.
    """
    e = np.exp(-np.abs(z))
    val = np.maximum(z, 0.0) - z * y + np.log1p(e)
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return _member_mean(val, np.ndim(y)), (sig - y) / math.prod(z.shape[z.ndim - np.ndim(y):])


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

    def to_csv(self):
        """CSV text, one row per completed epoch (CRLF line ends).

        Every float cell is its shortest round-trip `repr`;
        `_csvfmt.format_rows` writes them, in the compiled extension or,
        on the numpy fallback, with one `repr` call per distinct value per
        block of rows.
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
        rows = format_rows(values, first=range(self.epochs_completed))
        return csv_text([",".join(cols)] + rows)


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

    Each step updates net.param_buffer as one vector, so net must hold
    unstacked parameters (DimensionError otherwise).  A batch-norm net
    skips a singleton remainder batch, and raises DimensionError up front
    when every batch would be a singleton (batch_size 1 or one sample).
    Each step's time covers its forward/backward pass and its update, the
    first step included.  Divergence
    (non-finite activations/loss, or a parameter beyond 1e12 in absolute
    value or non-finite) stops the run at the end of the offending batch
    and flags the trace instead of raising.

    A 1-D sequence of learning rates trains them as one parameter stack of
    an all-dense net: one forward/backward per batch covers every member,
    and each member's trace has the bits of a call at its rate alone,
    except that its step_times are the times of the stacked steps.  A
    member that diverges leaves the stack at the end of its offending
    batch.  Only the first rate records kappa; the other members' kappa
    columns are nan.  net ends as a call at the first rate would leave it.
    """
    if loss not in LOSSES:
        raise DimensionError(f"unknown loss {loss!r}")
    rates = np.asarray(lr, dtype=np.float64)
    if rates.ndim > 1 or rates.size == 0 or not (np.isfinite(rates) & (rates > 0)).all():
        raise DimensionError(f"lr must be positive and finite, or a 1-d sequence of "
                             f"such rates, got {lr!r}")
    if epochs < 1 or batch_size < 1:
        raise DimensionError("epochs and batch_size must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("training data contains non-finite values")
    n = x.shape[0]
    if y.shape[0] != n:
        raise DimensionError(f"{n} inputs vs {y.shape[0]} targets")

    if n < 1:
        raise DimensionError("training needs at least one sample")
    flat = net.param_buffer
    has_bn = any(layer.batch_norm for layer in net.layers)
    if has_bn and min(n, batch_size) < 2:
        raise DimensionError(f"batch norm needs batches of at least 2 samples; "
                             f"{n} samples in batches of {batch_size} give none")
    args = (net, x, y, loss, momentum, epochs, batch_size, seed, record_kappa, has_bn)
    if rates.ndim:
        return _train_stack(rates, *args)
    lr = float(rates)
    data_hash = hashlib.sha256()
    velocity = np.zeros_like(flat) if momentum else None
    h = _History()
    nan_kappas = ([float("nan")] * len(net.layers),) * 2

    for epoch in range(epochs):
        batch_sizes = []
        for xb, yb in _batches(x, y, seed, epoch, batch_size, has_bn, data_hash):
            t0 = time.perf_counter()
            try:
                val, grads = loss_and_gradients(net, xb, yb, loss=loss)
            except NonFiniteActivationError:
                h.diverged_at = epoch
                break
            if not math.isfinite(val):
                h.diverged_at = epoch
                break
            g = net.grads_to_vector(grads)
            if velocity is not None:
                velocity *= momentum
                velocity += g
                g = velocity
            flat -= lr * g
            h.step_times.append(time.perf_counter() - t0)
            h.batch_losses.append(val)
            batch_sizes.append(len(xb))
            if not np.abs(flat).max() <= DIVERGENCE_NORM:
                h.diverged_at = epoch
                break
        if h.diverged_at is not None:
            break
        ev, a = evaluate(net, x, y, loss=loss)
        h.end_epoch(batch_sizes, ev, a,
                    net.weight_condition_numbers() if record_kappa else nan_kappas)
    h.data_digest = data_hash.hexdigest()
    return h.trace(loss, len(net.layers))


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

    The net holds one member per rate in `alive`; an SGD step updates its
    parameter buffer, laid out parameter by parameter, as one vector.
    """

    def __init__(self, net, rates, momentum):
        if any(spec.kind != "dense" for spec in net.specs):
            raise DimensionError("a stack of learning rates needs an all-dense net")
        self.net, self.rates, self.momentum = net, rates, momentum
        self.alive = np.arange(len(rates))
        self.first_state = None
        net.set_params_vector(np.tile(net.param_buffer, (len(rates), 1)))
        self._relayout(np.zeros((len(rates), net.parameter_count())) if momentum else None)

    def _relayout(self, velocity):
        """Views of the current stack; velocity is member-major (k, n)."""
        self.flat, self.order = self.net.stack_buffer()
        self.to_flat = np.argsort(self.order)
        self.lr = np.repeat(self.rates[self.alive], self.net.parameter_count())[self.to_flat]
        self.velocity = None if velocity is None else velocity.ravel()[self.to_flat]

    def step(self, g):
        """One SGD update from the member-major (k, n) gradient stack g."""
        g = g.ravel()[self.to_flat]
        if self.velocity is not None:
            self.velocity *= self.momentum
            self.velocity += g
            g = self.velocity
        self.flat -= self.lr * g

    def too_large(self):
        """(k,) mask of the members with a parameter beyond DIVERGENCE_NORM
        or non-finite, or None when no member has one."""
        mags = np.abs(self.flat)
        if mags.max() <= DIVERGENCE_NORM:
            return None
        return ~(mags[self.order].reshape(len(self.alive), -1).max(axis=1) <= DIVERGENCE_NORM)

    def drop(self, leave):
        """Remove the members where the (k,) mask leave is set."""
        if leave[0] and self.alive[0] == 0:
            self.first_state = _member_state(self.net, 0)
        keep = ~leave
        self.alive = self.alive[keep]
        if not self.alive.size:
            return
        velocity = None
        if self.velocity is not None:
            velocity = self.velocity[self.order].reshape(len(keep), -1)[keep]
        _load_state(self.net, _member_state(self.net, np.flatnonzero(keep)))
        self._relayout(velocity)

    def finish(self):
        """Leave the net unstacked, as the first rate alone would."""
        if self.first_state is None:
            self.first_state = _member_state(self.net, 0)
        _load_state(self.net, self.first_state)


def _train_stack(rates, net, x, y, loss, momentum, epochs, batch_size, seed,
                 record_kappa, has_bn):
    """train() for a 1-d array of learning rates; returns one trace each."""
    stack = _RateStack(net, rates, momentum)
    histories = [_History() for _ in rates]
    data_hash = hashlib.sha256()
    nan_kappas = ([float("nan")] * len(net.layers),) * 2

    def leave(mask, epoch):
        for r in stack.alive[mask]:
            histories[r].diverged_at = epoch
            histories[r].data_digest = data_hash.hexdigest()
        stack.drop(mask)

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
    for r in stack.alive:
        histories[r].data_digest = data_hash.hexdigest()
    stack.finish()
    return [h.trace(loss, len(net.layers)) for h in histories]
