"""Minibatch SGD with optional momentum, one parameter stack of learning
rates per run (a single rate is a one-member stack); loss functions and
run traces.

The shuffle stream depends only on (seed, epoch, n_samples), never on the
network, so arms sharing a seed see identical batch boundaries; the trace
records a digest of the data order so that fairness can be asserted
instead of assumed.

Wall-clock timings live only on the in-memory trace (and in run
manifests); CSV output is fully deterministic for a given config/seed.

The loss tails (`_kernels.mse_tail`, `bce_tail`), the test that every
member's loss is finite (`all_finite`) and the SGD update with its
divergence test (`sgd_step`) run on the kernel backend, compiled or numpy
with the same bits; exp and log1p of the BCE loss stay numpy's.
"""

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from equilab._csvfmt import csv_blocks
from equilab._heap import keep_freed_heap
from equilab._kernels import all_finite, bce_tail, mse_tail, sgd_step
from equilab.errors import DimensionError, NonFiniteError

LOSSES = ("mse", "bce")
DIVERGENCE_NORM = 1e12


def mse_loss(pred, y):
    """Mean squared error over all output entries; returns (loss, dpred).

    pred may carry a leading stack axis over y's shape (a Network holding a
    parameter stack); the loss is then a (k,) array and dpred holds each
    member's gradient, each with the bits of a call on that member alone.
    The arithmetic is `_kernels.mse_tail`.
    """
    return mse_tail(np.asarray(pred, dtype=np.float64, order="C"),
                    np.asarray(y, dtype=np.float64, order="C"))


def bce_loss(z, y):
    """Binary cross entropy on logits, in the stable max(z,0)-z*y+log1p(exp(-|z|))
    form; returns (loss, dz), per member for a stack as in mse_loss.

    e = exp(-|z|) cannot overflow, and the sigmoid is exp(min(z, 0))/(1+e):
    1/(1+e) for z >= 0 and e/(1+e) below, where exp(min(z, 0)) is e itself,
    so no branch overflows and no mask picks between them.  exp and log1p
    are numpy's; the rest is `_kernels.bce_tail`.
    """
    z = np.asarray(z, dtype=np.float64, order="C")
    e = np.exp(-np.abs(z))
    return bce_tail(z, np.asarray(y, dtype=np.float64, order="C"), e, np.log1p(e))


def evaluate(net, x, y, loss="mse"):
    """Full-batch eval-mode loss (and accuracy for bce), per member for a
    parameter stack."""
    out = net.forward(x, training=False)
    if loss == "mse":
        return mse_loss(out, y)[0], None
    val, _ = bce_loss(out, y)
    # the share of hits as an integer count over the size: hits.mean()
    # casts the bools through a buffered float reduction, which left about
    # 140 KB more of the heap resident in a benchmark worker training train7
    hits = (out > 0.0) == (y > 0.5)
    if hits.ndim == np.ndim(y):
        return val, float(hits.sum() / hits.size)
    rows = hits.reshape(len(hits), -1)
    return val, rows.sum(axis=1) / rows.shape[1]


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

    Arrays all have length epochs_completed.  eval_loss, accuracy and the
    kappa columns come from a recording run (train's `record`, which
    records the first rate of a stack only) and are nan in every other
    trace; a kappa entry is also nan where a weight matrix was numerically
    rank deficient.  step_times holds every completed step's time, in
    order; it is measured and therefore excluded from the CSV text.
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


class _History:
    """The records of a stack's members while they train: member r's
    epoch train losses are row r of train_loss, and the recorded columns
    are the first member's."""

    def __init__(self, n_members, epochs, n_batches):
        self.train_loss = np.empty((n_members, epochs))
        # row r: member r's losses of the current epoch's batches
        self.batch_losses = np.empty((n_members, n_batches))
        self.step_times = []  # the stacked steps' times
        self.left = {}        # member -> (epoch it diverged in, its steps, data digest)
        self.eval_loss, self.accuracy = [], []
        self.kappa_weights, self.kappa_effective = [], []

    def leave(self, members, epoch, digest):
        for r in members.tolist():
            self.left[r] = (epoch, len(self.step_times), digest)

    def end_epoch(self, epoch, alive, batch_sizes):
        """Each alive member's train loss of the epoch: its batch losses
        averaged with the weights batch_sizes, as np.average does, each
        member's sum along its own contiguous row."""
        w = np.array(batch_sizes, dtype=np.float64)
        rows = self.batch_losses[alive, :len(w)]
        self.train_loss[alive, epoch] = (rows * w).sum(axis=1) / w.sum()

    def record(self, eval_loss, accuracy, kappas):
        self.eval_loss.append(eval_loss)
        self.accuracy.append(accuracy)
        self.kappa_weights.append(kappas[0])
        self.kappa_effective.append(kappas[1])

    def trace(self, r, loss, n_layers, epochs, digest):
        """Member r's TrainTrace; digest is the data digest of a member
        that did not leave."""
        diverged_at, steps, digest = self.left.get(r, (None, len(self.step_times), digest))
        done = epochs if diverged_at is None else diverged_at
        if r == 0 and self.eval_loss:
            eval_loss = np.array(self.eval_loss)
            accuracy = np.array(self.accuracy) if loss == "bce" else None
            kappa_w = np.array(self.kappa_weights)
            kappa_eff = np.array(self.kappa_effective)
        else:
            eval_loss = np.full(done, np.nan)
            accuracy = np.full(done, np.nan) if loss == "bce" else None
            kappa_w = np.full((done, n_layers), np.nan)
            kappa_eff = np.full((done, n_layers), np.nan)
        return TrainTrace(
            train_loss=self.train_loss[r, :done].copy(),
            eval_loss=eval_loss,
            accuracy=accuracy,
            step_times=np.array(self.step_times[:steps]),
            kappa_weights=kappa_w,
            kappa_effective=kappa_eff,
            diverged=diverged_at is not None,
            diverged_at=diverged_at,
            data_digest=digest,
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
          batch_size=32, seed=0, record=True):
    """Train net in place with minibatch SGD; returns a TrainTrace, or a
    list of them, one per rate, when lr is a sequence.

    Every call trains a parameter stack, one member per rate (a single
    rate is a one-member stack): one forward/backward per batch covers
    every member, and each member's trace has the bits of a call at its
    rate alone that records only for the first rate, except that its
    step_times are the times of the stacked steps.  net must hold
    unstacked parameters (DimensionError otherwise) and ends unstacked,
    as a call at the first rate alone would leave it, also when training
    raises.  A batch-norm net skips a singleton remainder batch, and
    raises DimensionError up front when every batch would be a singleton
    (batch_size 1 or one sample).  Each step's time covers its
    forward/backward pass and its update, the first step included.
    Divergence (non-finite activations/loss, or a parameter beyond 1e12
    in absolute value or non-finite) takes a member out of the stack at
    the end of the offending batch and flags its trace instead of raising.

    With record set, the first rate records, at every epoch end, the
    full-batch eval-mode loss on (x, y), the accuracy for bce and the
    weight condition numbers: its parameters and batch-norm buffers are
    copied into one unstacked clone of net, made once per call, which
    evaluates them.  Every other trace, and every trace without record,
    has nan in those columns, and such a member runs no eval forward.
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
    twin = net.clone() if record else None
    stack = _RateStack(net, rates.reshape(-1), momentum)
    history = _History(rates.size, epochs, -(-n // batch_size))
    data_hash = hashlib.sha256()

    def leave(mask, epoch):
        history.leave(stack.alive[mask], epoch, data_hash.hexdigest())
        stack.drop(mask)

    try:
        for epoch in range(epochs):
            batch_sizes = []
            for xb, yb in _batches(x, y, seed, epoch, batch_size, has_bn, data_hash):
                t0 = time.perf_counter()
                val, grads = loss_and_gradients(net, xb, yb, loss=loss)
                g = net.grads_to_vector(grads)
                if not all_finite(val):
                    finite = np.isfinite(val)
                    leave(~finite, epoch)
                    if not stack.alive.size:
                        break
                    val, g = val[finite], g[finite]
                within = stack.step(g)
                history.step_times.append(time.perf_counter() - t0)
                history.batch_losses[stack.alive, len(batch_sizes)] = val
                batch_sizes.append(len(xb))
                if not within:
                    leave(stack.too_large(), epoch)
                    if not stack.alive.size:
                        break
            if not stack.alive.size:
                break
            history.end_epoch(epoch, stack.alive, batch_sizes)
            if twin is not None and stack.alive[0] == 0:
                _load_state(twin, _member_state(net, 0))
                history.record(*evaluate(twin, x, y, loss=loss),
                               twin.weight_condition_numbers())
    finally:
        stack.finish()
    digest = data_hash.hexdigest()
    traces = [history.trace(r, loss, len(net.layers), epochs, digest) for r in range(rates.size)]
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
        self.lr = rates.copy()  # (k,), C-contiguous, as sgd_step takes it
        self.first_state = None
        net.set_params_vector(np.tile(net.param_buffer, (len(rates), 1)))
        self.velocity = np.zeros(net.param_buffer.shape) if momentum else None

    def step(self, g):
        """One SGD update from the (k, n) gradient stack g,
        `_kernels.sgd_step`; returns whether every parameter is finite and
        at most DIVERGENCE_NORM in absolute value afterwards."""
        if self.velocity is not None:
            self.velocity *= self.momentum
            self.velocity += g
            g = self.velocity
        return sgd_step(self.net.param_buffer, self.lr, g, DIVERGENCE_NORM)

    def too_large(self):
        """(k,) mask of the members with a parameter beyond DIVERGENCE_NORM
        or non-finite."""
        return ~(np.abs(self.net.param_buffer).max(axis=1) <= DIVERGENCE_NORM)

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
