"""Layers: dense and conv2d with optional weight transforms and batch norm.

Weight transforms (standardization, weight normalization, row
equilibration) are all expressed as row-wise operations on an
"output-major" matrix: for conv that is the unrolled kernel
(out_channels, in_channels*kh*kw) whose rows are filters; for dense the
standardization/normalization act per output column, i.e. on rows of W^T,
while equilibration acts on the fan-in rows of W directly.

Everything is float64 and handwritten numpy; backward passes return exact
vector-Jacobian products of the forward graph.

Dense-layer parameters may carry a leading stack axis: w of shape
(k, in_dim, out_dim) and b of shape (k, out_dim) hold k independent
parameter sets, evaluated on the same input in one pass (the row
transforms act on the last axis, so they serve both forms).  Each stack
member gives the same bits as the unstacked layer.  Conv layers and
batch norm take unstacked parameters only.
"""

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from equilab.errors import DimensionError, NonFiniteActivationError

log = logging.getLogger(__name__)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
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
    if name == "relu":
        return grad * (z > 0.0)
    if name == "tanh":
        return grad * (1.0 - out * out)
    return grad


# ---------------------------------------------------------------------------
# row-wise weight transforms; rows are the last axis, leading axes broadcast


def rows_standardize(m, eps=WS_EPS):
    """Zero-mean, unit-variance rows (population variance, eps inside sqrt)."""
    mu = m.mean(axis=-1, keepdims=True)
    xc = m - mu
    s = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    mhat = xc / s
    return mhat, (mhat, s)


def rows_standardize_vjp(cache, g):
    mhat, s = cache
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * mhat).mean(axis=-1, keepdims=True)
    return (g - gm - mhat * gx) / s


def rows_normalize(m):
    """Unit-norm rows; rows with norm below NORM_FLOOR are divided by it."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", m, m))
    clamped = norms < NORM_FLOOR
    if clamped.any():
        log.warning("%d row norm(s) below %g clamped during equilibration",
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
    """w_i = g_i * v_i / max(||v_i||, NORM_FLOOR) per row."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", v, v))
    clamped = norms < NORM_FLOOR
    eff = np.maximum(norms, NORM_FLOOR)
    vhat = v / eff[..., None]
    w = g_scale[..., None] * vhat
    return w, (vhat, eff, g_scale, clamped)


def rows_weightnorm_vjp(cache, g):
    vhat, eff, g_scale, clamped = cache
    dg = np.einsum("...ij,...ij->...i", g, vhat)
    dv = (g - vhat * dg[..., None]) * (g_scale / eff)[..., None]
    if clamped.any():
        dv[clamped] = g[clamped] * (g_scale[clamped] / eff[clamped])[:, None]
    return dv, dg


# ---------------------------------------------------------------------------
# batch normalization


def bn_forward(x, gamma, beta, running_mean, running_var, training,
               eps=BN_EPS, momentum=BN_MOMENTUM):
    """Batch norm over axis 0 (dense) or axes (0,2,3) (conv).

    Uses population variance in both the normalization and the running
    buffers.  Training requires batch size >= 2; eval uses the running
    stats.  Running buffers are updated in place during training.
    """
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    if x.ndim not in (2, 4):
        raise DimensionError(f"batch norm expects 2-d or 4-d input, got {x.ndim}-d")
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    if training:
        if x.shape[0] < 2:
            raise DimensionError("batch norm needs batch size >= 2 in training")
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
    s = np.sqrt(var + eps)
    xhat = (x - mu.reshape(shape)) / s.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return out, (xhat, s, gamma, axes, shape, training)


def bn_vjp(cache, g):
    xhat, s, gamma, axes, shape, training = cache
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    gi = g * gamma.reshape(shape)
    if training:
        m = g.size // gamma.size
        gm = gi.sum(axis=axes) / m
        gx = (gi * xhat).sum(axis=axes) / m
        dx = (gi - gm.reshape(shape) - xhat * gx.reshape(shape)) / s.reshape(shape)
    else:
        dx = gi / s.reshape(shape)
    return dx, dgamma, dbeta


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
    """Shared effective-weight pipeline over the output-major view."""

    def _init_norm_params(self):
        self.batch_norm, self.weight_tag = parse_normalization(self.spec.normalization)
        out = self.n_out_features
        if self.batch_norm:
            self.gamma = np.ones(out)
            self.beta = np.zeros(out)
            self.running_mean = np.zeros(out)
            self.running_var = np.ones(out)
        if self.weight_tag == "weight_normalization":
            om = self._output_major(self.w)
            self.g = np.sqrt(np.einsum("ij,ij->i", om, om))

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
        """Overwrite w with its row-equilibrated version (fan-in rows for
        dense, filter rows for conv)."""
        m = self._static_major(self.w)
        m, _ = rows_normalize(m)
        self.w = self._from_static_major(m)


class DenseLayer(_LayerBase):
    """x @ W + b with W of shape (in_dim, out_dim).

    Standardization/weight normalization act per output column;
    equilibration acts per fan-in row of W.  With stacked parameters
    (W of shape (k, in_dim, out_dim)) a 2-d input is broadcast over the
    stack and outputs and gradients carry the leading k axis.
    """

    def __init__(self, spec, rng):
        self.spec = spec
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        self.w = rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim))
        self.b = np.zeros(spec.out_dim)
        self.n_out_features = spec.out_dim
        self._init_norm_params()
        if spec.conditioning == "equilibrate_static":
            self.apply_static_conditioning()

    # output-major view: columns of W become rows
    def _output_major(self, w):
        return w.swapaxes(-1, -2)

    def _from_output_major(self, m):
        return m.swapaxes(-1, -2)

    # equilibration is fan-in-indexed, i.e. rows of W itself
    def _reparam(self, m):
        w_rows, cache = rows_normalize(m.swapaxes(-1, -2))
        return w_rows.swapaxes(-1, -2), cache

    def _reparam_vjp(self, cache, dm):
        return rows_normalize_vjp(cache, dm.swapaxes(-1, -2)).swapaxes(-1, -2)

    _static_major = staticmethod(lambda w: w)
    _from_static_major = staticmethod(lambda m: m)

    def forward(self, x, training):
        stacked = self.w.ndim == 3
        if stacked and self.batch_norm:
            raise DimensionError("batch norm takes unstacked parameters only")
        if x.ndim != 2 and not (stacked and x.ndim == 3):
            raise DimensionError(f"dense layer expects 2-d input, got {x.ndim}-d")
        if x.shape[-1] != self.spec.in_dim:
            raise DimensionError(f"dense layer expects {self.spec.in_dim} features, "
                                 f"got {x.shape[-1]}")
        w_eff_om, wcaches = self._effective_output_major()
        z = x @ w_eff_om.swapaxes(-1, -2) + self.b[..., None, :]
        bncache = None
        if self.batch_norm:
            z, bncache = bn_forward(z, self.gamma, self.beta,
                                    self.running_mean, self.running_var, training)
        out = apply_activation(self.spec.activation, z)
        return out, (x, w_eff_om, wcaches, z, bncache, out)

    def backward(self, grad, cache):
        x, w_eff_om, wcaches, z, bncache, out = cache
        dz = activation_vjp(self.spec.activation, z, out, grad)
        grads = {}
        if bncache is not None:
            dz, grads["gamma"], grads["beta"] = bn_vjp(bncache, dz)
        grads["b"] = dz.sum(axis=-2)
        dweff_om = dz.swapaxes(-1, -2) @ x
        dx = dz @ w_eff_om
        grads["w"], dg = self._weight_vjp(dweff_om, wcaches)
        if dg is not None:
            grads["g"] = dg
        return dx, grads


class Conv2dLayer(_LayerBase):
    """2-d convolution via im2col; kernel (out_c, in_c, kh, kw).

    All weight transforms act on the unrolled (out_c, in_c*kh*kw) view,
    one row per filter.
    """

    def __init__(self, spec, rng):
        self.spec = spec
        k = spec.kernel_size
        fan_in = spec.in_channels * k * k
        fan_out = spec.out_channels * k * k
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.w = rng.uniform(-limit, limit,
                             size=(spec.out_channels, spec.in_channels, k, k))
        self.b = np.zeros(spec.out_channels)
        self.n_out_features = spec.out_channels
        self._init_norm_params()
        if spec.conditioning == "equilibrate_static":
            self.apply_static_conditioning()

    def _output_major(self, w):
        return w.reshape(w.shape[0], -1)

    def _from_output_major(self, m):
        return m.reshape(self.w.shape)

    # filters are both the output-major rows and the equilibration rows
    def _reparam(self, m):
        return rows_normalize(m)

    def _reparam_vjp(self, cache, dm):
        return rows_normalize_vjp(cache, dm)

    def _static_major(self, w):
        return w.reshape(w.shape[0], -1)

    def _from_static_major(self, m):
        return m.reshape(self.w.shape)

    def forward(self, x, training):
        if self.w.ndim != 4:
            raise DimensionError("conv layers take unstacked parameters only")
        if x.ndim != 4:
            raise DimensionError(f"conv layer expects 4-d input, got {x.ndim}-d")
        if x.shape[1] != self.spec.in_channels:
            raise DimensionError(f"conv layer expects {self.spec.in_channels} channels, "
                                 f"got {x.shape[1]}")
        s = self.spec
        u_eff, wcaches = self._effective_output_major()
        cols, (oh, ow) = im2col(x, s.kernel_size, s.kernel_size, s.stride, s.padding)
        zmat = cols @ u_eff.T + self.b
        n = x.shape[0]
        z = zmat.reshape(n, oh, ow, s.out_channels).transpose(0, 3, 1, 2)
        bncache = None
        if self.batch_norm:
            z, bncache = bn_forward(z, self.gamma, self.beta,
                                    self.running_mean, self.running_var, training)
        out = apply_activation(s.activation, z)
        return out, (x.shape, cols, oh, ow, u_eff, wcaches, z, bncache, out)

    def backward(self, grad, cache):
        x_shape, cols, oh, ow, u_eff, wcaches, z, bncache, out = cache
        s = self.spec
        dz = activation_vjp(s.activation, z, out, grad)
        grads = {}
        if bncache is not None:
            dz, grads["gamma"], grads["beta"] = bn_vjp(bncache, dz)
        dzmat = dz.transpose(0, 2, 3, 1).reshape(-1, s.out_channels)
        grads["b"] = dzmat.sum(axis=0)
        du_eff = dzmat.T @ cols
        dcols = dzmat @ u_eff
        dx = col2im(dcols, x_shape, s.kernel_size, s.kernel_size,
                    s.stride, s.padding, oh, ow)
        grads["w"], dg = self._weight_vjp(du_eff, wcaches)
        if dg is not None:
            grads["g"] = dg
        return dx, grads


def build_layer(spec, rng):
    if spec.kind == "dense":
        return DenseLayer(spec, rng)
    if spec.kind == "conv2d":
        return Conv2dLayer(spec, rng)
    raise DimensionError(f"unknown layer kind {spec.kind!r}")


def check_finite(x, layer_index, stage):
    if not np.isfinite(x).all():
        raise NonFiniteActivationError(layer_index, stage=stage)
