"""Minibatch SGD with optional momentum, loss functions, and run traces.

The shuffle stream depends only on (seed, epoch, n_samples), never on the
network, so arms sharing a seed see identical batch boundaries; the trace
records digests of the initial parameters and of the data order so that
fairness can be asserted instead of assumed.

Wall-clock timings live only on the in-memory trace (and in run
manifests); CSV output is fully deterministic for a given config/seed.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from equilab._csvfmt import format_rows
from equilab.errors import DimensionError, NonFiniteActivationError, NonFiniteError

LOSSES = ("mse", "bce")
DIVERGENCE_NORM = 1e12


def mse_loss(pred, y):
    """Mean squared error over all output entries; returns (loss, dpred).

    pred may carry leading stack axes over y's shape (a Network holding a
    parameter stack); dpred is then each member's own gradient, scaled by
    one member's entry count, and the loss is averaged over the stack.
    """
    d = pred - y
    sq = d * d
    return float(sq.sum() / sq.size), 2.0 * d / math.prod(d.shape[d.ndim - np.ndim(y):])


def bce_loss(z, y):
    """Binary cross entropy on logits, in the stable max(z,0)-z*y+log1p(exp(-|z|))
    form; returns (loss, dz).

    The sigmoid reuses e = exp(-|z|): 1/(1+e) for z >= 0 and e/(1+e)
    below, so neither branch can overflow.
    """
    e = np.exp(-np.abs(z))
    val = np.maximum(z, 0.0) - z * y + np.log1p(e)
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(val.sum() / val.size), (sig - y) / z.size


def evaluate(net, x, y, loss="mse"):
    """Full-batch eval-mode loss (and accuracy for bce)."""
    out = net.forward(x, training=False)
    if loss == "mse":
        val, _ = mse_loss(out, y)
        return val, None
    val, _ = bce_loss(out, y)
    acc = float(np.mean((out > 0.0) == (y > 0.5)))
    return val, acc


def loss_and_gradients(net, x, y, loss="mse", training=True):
    """Forward + backward; returns (loss_value, per-layer grad dicts)."""
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
    weight matrix was numerically rank deficient.  wall_time_per_step holds
    each epoch's mean step time and step_times every completed step's time,
    in order; both are measured and therefore excluded from to_csv output.
    """

    train_loss: np.ndarray
    eval_loss: np.ndarray
    accuracy: np.ndarray | None
    wall_time_per_step: np.ndarray
    step_times: np.ndarray
    kappa_weights: np.ndarray      # (epochs, n_layers)
    kappa_effective: np.ndarray    # (epochs, n_layers)
    diverged: bool
    diverged_at: int | None
    init_digest: str
    data_digest: str
    seed: int
    lr: float

    @property
    def epochs_completed(self):
        return len(self.train_loss)

    def to_csv(self):
        """CSV text, one row per completed epoch (CRLF line ends).

        Every float cell is its shortest round-trip `repr`;
        `_csvfmt.format_rows` makes one `repr` call per distinct value per
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
        lines = [",".join(cols)] + format_rows(values, first=range(self.epochs_completed))
        return "\r\n".join(lines) + "\r\n"


def params_digest(net):
    return hashlib.sha256(net.param_buffer.tobytes()).hexdigest()


def train(net, x, y, *, loss="mse", lr=0.01, momentum=0.0, epochs=10,
          batch_size=32, seed=0, record_kappa=True):
    """Train net in place with minibatch SGD; returns a TrainTrace.

    The per-epoch eval loss is the full-batch eval-mode loss on (x, y).

    Each step updates net.param_buffer as one vector, so net must hold
    unstacked parameters (DimensionError otherwise).  Divergence
    (non-finite activations/loss, or a parameter beyond 1e12 in absolute
    value or non-finite) stops the run at the end of the offending batch
    and flags the trace instead of raising.
    """
    if loss not in LOSSES:
        raise DimensionError(f"unknown loss {loss!r}")
    if lr <= 0 or not np.isfinite(lr):
        raise DimensionError(f"lr must be positive and finite, got {lr!r}")
    if epochs < 1 or batch_size < 1:
        raise DimensionError("epochs and batch_size must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("training data contains non-finite values")
    n = x.shape[0]
    if y.shape[0] != n:
        raise DimensionError(f"{n} inputs vs {y.shape[0]} targets")

    flat = net.param_buffer
    has_bn = any(layer.batch_norm for layer in net.layers)
    init_digest = params_digest(net)
    data_hash = hashlib.sha256()

    velocity = np.zeros_like(flat) if momentum else None

    tl, el, acc, wts, step_times = [], [], [], [], []
    kw, keff = [], []
    diverged = False
    diverged_at = None

    # untimed warmup so allocator effects do not skew the first timings
    warm = min(n, max(2, batch_size))
    for _ in range(2):
        loss_and_gradients(net.clone(), x[:warm], y[:warm], loss=loss)

    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, epoch)))
        perm = rng.permutation(n)
        data_hash.update(perm.astype(np.int64).tobytes())
        xs, ys = x[perm], y[perm]
        batch_losses = []
        batch_sizes = []
        first_step = len(step_times)
        for start in range(0, n, batch_size):
            xb, yb = xs[start:start + batch_size], ys[start:start + batch_size]
            if has_bn and len(xb) < 2:
                continue  # batch norm cannot use a singleton remainder
            t0 = time.perf_counter()
            try:
                val, grads = loss_and_gradients(net, xb, yb, loss=loss)
            except NonFiniteActivationError:
                diverged = True
                diverged_at = epoch
                break
            if not np.isfinite(val):
                diverged = True
                diverged_at = epoch
                break
            g = net.grads_to_vector(grads)
            if velocity is not None:
                velocity *= momentum
                velocity += g
                g = velocity
            flat -= lr * g
            step_times.append(time.perf_counter() - t0)
            batch_losses.append(val)
            batch_sizes.append(len(xb))
            pmax = np.max(np.abs(flat))
            if not np.isfinite(pmax) or pmax > DIVERGENCE_NORM:
                diverged = True
                diverged_at = epoch
                break
        if diverged:
            break
        tl.append(float(np.average(batch_losses, weights=batch_sizes)))
        ev, a = evaluate(net, x, y, loss=loss)
        el.append(ev)
        if a is not None:
            acc.append(a)
        wts.append(float(np.mean(step_times[first_step:])))
        if record_kappa:
            raw, effective = net.weight_condition_numbers()
            kw.append(raw)
            keff.append(effective)
        else:
            kw.append([float("nan")] * len(net.layers))
            keff.append([float("nan")] * len(net.layers))

    return TrainTrace(
        train_loss=np.array(tl),
        eval_loss=np.array(el),
        accuracy=np.array(acc) if loss == "bce" else None,
        wall_time_per_step=np.array(wts),
        step_times=np.array(step_times),
        kappa_weights=np.array(kw) if kw else np.zeros((0, len(net.layers))),
        kappa_effective=np.array(keff) if keff else np.zeros((0, len(net.layers))),
        diverged=diverged,
        diverged_at=diverged_at,
        init_digest=init_digest,
        data_digest=data_hash.hexdigest(),
        seed=int(seed),
        lr=float(lr),
    )
