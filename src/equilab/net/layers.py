"""Layers: dense and conv2d with optional weight transforms and batch norm.

Both kinds run one forward/backward pipeline: a conv layer is a dense
layer applied to im2col rows, and batch norm normalizes each output
feature over those rows.

Weight transforms (standardization, weight normalization, row
equilibration) are all expressed as row-wise operations on an
"output-major" matrix: for conv that is the unrolled kernel
(out_channels, in_channels*kh*kw) whose rows are filters; for dense the
standardization/normalization act per output column, i.e. on rows of W^T,
while equilibration normalizes the rows of W itself, one per *input* unit
(its outgoing weights).  Conv equilibration is per *output* unit (filter).

Everything is float64; backward passes return exact vector-Jacobian
products of the forward graph.  The matmuls, im2col/col2im, the weight
transforms and the activations themselves (np.maximum, np.tanh) are
numpy.  The rest of a layer's per-step arithmetic runs on the kernel
backend, compiled or numpy with the same bits: the bias add
(`_kernels.bias_add`, in place on the matmul's output), batch norm
(`batch_norm`, `batch_norm_vjp`), the relu and tanh vjps (`relu_vjp`,
`tanh_vjp`), a bias gradient's sum over rows (`row_sums`) and the
finiteness test of check_finite (`all_finite`).  Every sum over rows
takes numpy's order for x.sum(axis=-2), the rows in order from +0.0 for
two or more features and +0.0 plus numpy's pairwise sum for one.

Parameters of either kind may carry a leading stack axis: w of shape
(k, in_dim, out_dim) for dense or (k, out_c, in_c, kh, kw) for conv, and
b of shape (k, out) hold k independent parameter sets, evaluated in one
pass (the row transforms act on the last axis, so they serve both forms).
A stacked layer takes either an unstacked input, shared by every member,
or an input with the leading k axis, one per member; its output carries
the k axis.  Each stack member gives the same bits as the unstacked
layer.  Batch norm reduces over the row axis -2, so it serves both forms
too; with a stack, gamma, beta and the running buffers carry the leading
k axis.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from equilab._kernels import (BN_EPS, BN_MOMENTUM, all_finite, batch_norm, batch_norm_vjp,
                              bias_add, relu_vjp, row_sums, tanh_vjp)
from equilab.errors import DimensionError, NonFiniteActivationError

log = logging.getLogger(__name__)

WS_EPS = 1e-5
NORM_FLOOR = 1e-12

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid_output")
NORMALIZATION_TAGS = ("none", "batch_norm", "weight_standardization", "weight_normalization")
CONDITIONING = ("none", "equilibrate_static", "equilibrate_reparam")


def parse_normalization(spec):
    """Parse a normalization field into (batch_norm: bool, weight_tag).

    Accepts a single tag or a '+'-joined combination such as
    "batch_norm+weight_standardization".  At most one weight-side tag.
    """
    tags = [t.strip() for t in spec.split("+")] if spec else ["none"]
    bn = False
    weight = None
    for t in tags:
        if t not in NORMALIZATION_TAGS:
            raise DimensionError(f"unknown normalization {t!r}")
        if t == "none":
            if len(tags) > 1:
                raise DimensionError("'none' cannot be combined with other tags")
        elif t == "batch_norm":
            if bn:
                raise DimensionError("batch_norm given twice")
            bn = True
        else:
            if weight is not None:
                raise DimensionError("at most one weight-side normalization")
            weight = t
    return bn, weight


def apply_activation(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    # identity and sigmoid_output both pass logits through; sigmoid_output
    # marks the output layer of a BCE net, where the loss works in logit
    # space and predictions apply the sigmoid explicitly.
    return z


def activation_vjp(name, z, out, grad):
    """The gradient grad through the activation at its input z and output
    out: `_kernels.relu_vjp` or `tanh_vjp`, which take them C-contiguous."""
    if name == "relu":
        return relu_vjp(z, grad)
    if name == "tanh":
        return tanh_vjp(out, grad)
    return grad


# ---------------------------------------------------------------------------
# row-wise weight transforms; rows are the last axis, leading axes broadcast


def rows_standardize(m):
    """Zero-mean, unit-variance rows (population variance, WS_EPS inside
    sqrt)."""
    n = m.shape[-1]
    # the row sums over n entries that .mean computes, without its
    # Python-level wrapper
    mu = np.add.reduce(m, axis=-1, keepdims=True) / n
    xc = m - mu
    s = np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + WS_EPS)
    mhat = xc / s
    return mhat, (mhat, s)


def rows_standardize_vjp(cache, g):
    mhat, s = cache
    n = g.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gx = np.add.reduce(g * mhat, axis=-1, keepdims=True) / n
    return (g - gm - mhat * gx) / s


def rows_normalize(m):
    """Unit-norm rows; rows with norm below NORM_FLOOR are divided by it."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", m, m))
    clamped = norms < NORM_FLOOR
    if clamped.any():
        log.warning("%d row norm(s) below %g clamped during row normalization",
                    int(clamped.sum()), NORM_FLOOR)
    eff = np.maximum(norms, NORM_FLOOR)
    mhat = m / eff[..., None]
    return mhat, (mhat, eff, clamped)


def rows_normalize_vjp(cache, g):
    mhat, eff, clamped = cache
    dot = np.einsum("...ij,...ij->...i", g, mhat)
    dm = (g - mhat * dot[..., None]) / eff[..., None]
    if clamped.any():
        # below the floor the divisor is a constant, so no projection term
        dm[clamped] = g[clamped] / eff[clamped][:, None]
    return dm


def rows_weightnorm(v, g_scale):
    """w_i = g_i * v_i / max(||v_i||, NORM_FLOOR) per row: rows_normalize(v)
    scaled by the gains."""
    vhat, cache = rows_normalize(v)
    return g_scale[..., None] * vhat, (cache, g_scale)


def rows_weightnorm_vjp(cache, g):
    ncache, g_scale = cache
    dg = np.einsum("...ij,...ij->...i", g, ncache[0])
    return rows_normalize_vjp(ncache, g_scale[..., None] * g), dg


# ---------------------------------------------------------------------------
# batch normalization


def bn_forward(x, gamma, beta, running_mean, running_var, training):
    """Batch norm of each feature of a (rows, features) input over its rows.

    A conv layer passes one row per (sample, output position), so each
    channel is normalized over batch and space.  A 3-d (k, rows, features)
    input is a stack of k such inputs, each normalized over its own rows
    with its own row of the (k, features) gamma, beta and running buffers;
    each member gives the bits of the 2-d call.  Uses population variance
    in both the normalization and the running buffers, and BN_EPS inside
    the sqrt.  Training requires at least 2 rows; eval uses the running
    stats.  Running buffers are updated in place during training, with
    momentum BN_MOMENTUM.  The arithmetic is `_kernels.batch_norm` (and
    `batch_norm_vjp` for bn_vjp), compiled or numpy with the same bits.
    """
    if x.ndim not in (2, 3):
        raise DimensionError(f"batch norm expects 2-d (rows, features) input or a 3-d "
                             f"stack of them, got {x.ndim}-d")
    if training and x.shape[-2] < 2:
        raise DimensionError("batch norm needs at least 2 rows in training")
    out, xhat, s = batch_norm(x, gamma, beta, running_mean, running_var, training)
    return out, (xhat, s, gamma, training)


def bn_vjp(cache, g):
    """(dx, dgamma, dbeta) from the gradient g of bn_forward's output."""
    xhat, s, gamma, training = cache
    return batch_norm_vjp(g, xhat, s, gamma, training)


# ---------------------------------------------------------------------------
# im2col


def conv_out_size(size, k, stride, padding):
    out = (size + 2 * padding - k) // stride + 1
    if out < 1:
        raise DimensionError(f"kernel {k} with stride {stride}, padding {padding} "
                             f"does not fit input of size {size}")
    return out


def im2col(x, kh, kw, stride, padding):
    """(N,C,H,W) -> (N*oh*ow, C*kh*kw) patch matrix."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x.strides
    windows = as_strided(
        x,
        shape=(n, oh, ow, c, kh, kw),
        strides=(s0, stride * s2, stride * s3, s1, s2, s3),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(cols, x_shape, kh, kw, stride, padding, oh, ow):
    """Adjoint of im2col: scatter-add patches back onto the input grid."""
    n, c, h, w = x_shape
    cols6 = cols.reshape(n, oh, ow, c, kh, kw)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for a in range(kh):
        for b in range(kw):
            xp[:, :, a:a + stride * oh:stride, b:b + stride * ow:stride] += (
                cols6[:, :, :, :, a, b].transpose(0, 3, 1, 2)
            )
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class DenseSpec:
    in_dim: int
    out_dim: int
    activation: str = "identity"
    normalization: str = "none"
    conditioning: str = "none"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionError(f"dense dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        _validate_common(self)

    kind = "dense"


@dataclass(frozen=True)
class Conv2dSpec:
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    activation: str = "identity"
    normalization: str = "none"
    conditioning: str = "none"

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_size, self.stride) < 1:
            raise DimensionError("conv dims, kernel and stride must be >= 1")
        if self.padding < 0:
            raise DimensionError("padding must be >= 0")
        _validate_common(self)

    kind = "conv2d"


def _validate_common(spec):
    if spec.activation not in ACTIVATIONS:
        raise DimensionError(f"unknown activation {spec.activation!r}")
    parse_normalization(spec.normalization)
    if spec.conditioning not in CONDITIONING:
        raise DimensionError(f"unknown conditioning {spec.conditioning!r}")


# ---------------------------------------------------------------------------
# layers


class _LayerBase:
    """One pass for every kind: input -> rows, z = rows @ W_eff^T + b,
    batch norm over the rows, activation, rows -> output.

    A kind supplies only its views: _input_rows/_input_rows_vjp and
    _output/_output_rows for the data, _output_major/_from_output_major
    and _reparam/_reparam_vjp for the weight.  Each view keeps any leading
    stack axis.
    """

    def __init__(self, spec, w):
        """w is the kind's Glorot-initialized weight."""
        self.spec = spec
        self.w = w
        om = self._output_major(w)
        out = om.shape[0]
        self.b = np.zeros(out)
        self.batch_norm, self.weight_tag = parse_normalization(spec.normalization)
        if self.batch_norm:
            self.gamma = np.ones(out)
            self.beta = np.zeros(out)
            self.running_mean = np.zeros(out)
            self.running_var = np.ones(out)
        if self.weight_tag == "weight_normalization":
            self.g = np.sqrt(np.einsum("ij,ij->i", om, om))
        if spec.conditioning == "equilibrate_static":
            self.apply_static_conditioning()

    def forward(self, x, training):
        rows, view = self._input_rows(x)
        w_eff_om, wcaches = self._effective_output_major()
        # matmul allocates z C-contiguous; the bias goes in in place
        z = rows @ w_eff_om.swapaxes(-1, -2)
        bias_add(z, self.b)
        bncache = None
        if self.batch_norm:
            z, bncache = bn_forward(z, self.gamma, self.beta,
                                    self.running_mean, self.running_var, training)
        out = apply_activation(self.spec.activation, z)
        return self._output(out, view), (rows, view, w_eff_om, wcaches, z, bncache, out)

    def backward(self, grad, cache, need_dx=True):
        """(gradient w.r.t. the input, or None unless need_dx, parameter
        gradients by name) from the gradient w.r.t. the output."""
        rows, view, w_eff_om, wcaches, z, bncache, out = cache
        dz = activation_vjp(self.spec.activation, z, out, self._output_rows(grad))
        grads = {}
        if bncache is not None:
            dz, grads["gamma"], grads["beta"] = bn_vjp(bncache, dz)
        grads["b"] = row_sums(dz)
        dweff_om = dz.swapaxes(-1, -2) @ rows
        dx = self._input_rows_vjp(dz @ w_eff_om, view) if need_dx else None
        grads["w"], dg = self._weight_vjp(dweff_om, wcaches)
        if dg is not None:
            grads["g"] = dg
        return dx, grads

    # output rows are the output itself unless a kind maps them back
    def _output(self, rows, view):
        return rows

    def _output_rows(self, grad):
        return grad

    @property
    def transforms_weight(self):
        """Whether the effective weight differs from w (a weight-side
        normalization or the equilibration reparametrization)."""
        return self.weight_tag is not None or self.spec.conditioning == "equilibrate_reparam"

    def effective_weight(self):
        """Output-major effective weight after transforms (no caches)."""
        return self._effective_output_major()[0]

    def _effective_output_major(self):
        m = self._output_major(self.w)
        caches = {}
        if self.weight_tag == "weight_standardization":
            m, caches["ws"] = rows_standardize(m)
        elif self.weight_tag == "weight_normalization":
            m, caches["wn"] = rows_weightnorm(m, self.g)
        if self.spec.conditioning == "equilibrate_reparam":
            m, caches["eq"] = self._reparam(m)
        return m, caches

    def _weight_vjp(self, dm, caches):
        dg = None
        if "eq" in caches:
            dm = self._reparam_vjp(caches["eq"], dm)
        if "ws" in caches:
            dm = rows_standardize_vjp(caches["ws"], dm)
        elif "wn" in caches:
            dm, dg = rows_weightnorm_vjp(caches["wn"], dm)
        return self._from_output_major(dm), dg

    def param_items(self):
        """Deterministic (name, array) pairs of trainable parameters."""
        items = [("w", self.w), ("b", self.b)]
        if self.batch_norm:
            items += [("gamma", self.gamma), ("beta", self.beta)]
        if self.weight_tag == "weight_normalization":
            items.append(("g", self.g))
        return items

    def buffer_items(self):
        if self.batch_norm:
            return [("running_mean", self.running_mean), ("running_var", self.running_var)]
        return []

    def apply_static_conditioning(self):
        """Overwrite w in place with its row-equilibrated version (a row
        per input unit for dense, per output unit, i.e. filter, for conv)."""
        m, _ = self._reparam(self._output_major(self.w))
        self.w[...] = self._from_output_major(m)


class DenseLayer(_LayerBase):
    """x @ W + b with W of shape (in_dim, out_dim).

    Standardization/weight normalization act per output column;
    equilibration normalizes one row of W per input unit (its outgoing
    weights).  A conv output, 4-d or a 5-d stack of them, is flattened to
    one row per sample.  With stacked parameters (W of shape (k, in_dim,
    out_dim)) a 2-d input is broadcast over the stack and outputs and
    gradients carry the leading k axis.
    """

    def __init__(self, spec, rng):
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        super().__init__(spec, rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)))

    # output-major view: columns of W become rows
    def _output_major(self, w):
        return w.swapaxes(-1, -2)

    def _from_output_major(self, m):
        return m.swapaxes(-1, -2)

    # equilibration is input-unit-indexed, i.e. rows of W itself
    def _reparam(self, m):
        w_rows, cache = rows_normalize(m.swapaxes(-1, -2))
        return w_rows.swapaxes(-1, -2), cache

    def _reparam_vjp(self, cache, dm):
        return rows_normalize_vjp(cache, dm.swapaxes(-1, -2)).swapaxes(-1, -2)

    def _input_rows(self, x):
        stacked = self.w.ndim == 3
        x_shape = x.shape if x.ndim >= 4 else None
        if x_shape is not None:
            x = x.reshape(x.shape[:-3] + (-1,))
        if x.ndim != 2 and not (stacked and x.ndim == 3):
            raise DimensionError(f"dense layer expects 2-d input, got {x.ndim}-d")
        if x.shape[-1] != self.spec.in_dim:
            raise DimensionError(f"dense layer expects {self.spec.in_dim} features, "
                                 f"got {x.shape[-1]}")
        return x, x_shape

    def _input_rows_vjp(self, drows, x_shape):
        if x_shape is None:
            return drows
        return drows.reshape(drows.shape[:-2] + x_shape[-4:])


class Conv2dLayer(_LayerBase):
    """2-d convolution as a dense pass over im2col rows; kernel (out_c,
    in_c, kh, kw).

    Each row is one (sample, output position) patch and each column of z
    one output channel.  All weight transforms act on the unrolled
    (out_c, in_c*kh*kw) view, one row per filter.  With stacked
    parameters (kernel (k, out_c, in_c, kh, kw)) a 4-d input is unrolled
    once and shared by every member, and a 5-d (k, N, C, H, W) input is
    unrolled member by member as one (k*N, C, H, W) batch.
    """

    def __init__(self, spec, rng):
        k = spec.kernel_size
        fan_in = spec.in_channels * k * k
        fan_out = spec.out_channels * k * k
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        super().__init__(spec, rng.uniform(-limit, limit,
                                           size=(spec.out_channels, spec.in_channels, k, k)))

    def _output_major(self, w):
        return w.reshape(w.shape[:-3] + (-1,))

    def _from_output_major(self, m):
        return m.reshape(self.w.shape)

    # filters are both the output-major rows and the equilibration rows
    def _reparam(self, m):
        return rows_normalize(m)

    def _reparam_vjp(self, cache, dm):
        return rows_normalize_vjp(cache, dm)

    def _input_rows(self, x):
        stacked = self.w.ndim == 5
        if x.ndim != 4 and not (stacked and x.ndim == 5):
            raise DimensionError(f"conv layer expects 4-d input, got {x.ndim}-d")
        if x.shape[-3] != self.spec.in_channels:
            raise DimensionError(f"conv layer expects {self.spec.in_channels} channels, "
                                 f"got {x.shape[-3]}")
        s = self.spec
        cols, (oh, ow) = im2col(x.reshape((-1,) + x.shape[-3:]), s.kernel_size,
                                s.kernel_size, s.stride, s.padding)
        return cols.reshape(x.shape[:-4] + (-1, cols.shape[-1])), (x.shape, oh, ow)

    def _input_rows_vjp(self, dcols, view):
        x_shape, oh, ow = view
        s = self.spec
        # a shared input's gradient comes back per member
        lead = dcols.shape[:-2]
        n, c, h, w = x_shape[-4:]
        dx = col2im(dcols.reshape(-1, dcols.shape[-1]), (math.prod(lead) * n, c, h, w),
                    s.kernel_size, s.kernel_size, s.stride, s.padding, oh, ow)
        return dx.reshape(lead + x_shape[-4:])

    # rows (n, oh, ow) x channels <-> NCHW, behind any leading stack axis
    def _output(self, rows, view):
        x_shape, oh, ow = view
        out = rows.reshape(rows.shape[:-2] + (x_shape[-4], oh, ow, -1))
        return np.moveaxis(out, -1, -3)

    def _output_rows(self, grad):
        rows = np.moveaxis(grad, -3, -1)
        # the reshape copies unless one channel or position lets it view
        # grad, whose strides may then be a padded slice's
        return np.ascontiguousarray(rows.reshape(rows.shape[:-4] + (-1, self.spec.out_channels)))


def build_layer(spec, rng):
    if spec.kind == "dense":
        return DenseLayer(spec, rng)
    if spec.kind == "conv2d":
        return Conv2dLayer(spec, rng)
    raise DimensionError(f"unknown layer kind {spec.kind!r}")


def check_finite(x, layer_index, stage):
    if not all_finite(x):
        raise NonFiniteActivationError(layer_index, stage=stage)
