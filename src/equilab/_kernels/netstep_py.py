"""Numpy fallback of `_netstep.c`: the elementwise work of a net's training
step around its matmuls and transcendentals (the bias add, the activation
vjps, the MSE and BCE loss tails, the finiteness test and the SGD update),
with the same signatures and bits.  Each is the net's numpy expression;
a member mean is numpy's v.sum() over the member's contiguous block
divided by its size, +0.0 plus numpy's pairwise sum, whose order the
compiled kernel follows (tests/test_kernels.py pins it)."""

import math

import numpy as np


def bias_add(z, b, /):
    """z += b[..., None, :] in place: the (features,) or (k, features) bias
    b added to every row of the (rows, features) z or (k, rows, features)
    stack."""
    z += b[..., None, :]


def relu_vjp(z, g, /):
    """g * (z > 0): the gradient g through relu at its input z, multiplied
    by 1.0 or 0.0, so a NaN or inf in g stays NaN where z <= 0 and a -0.0
    keeps its sign."""
    return g * (z > 0.0)


def tanh_vjp(out, g, /):
    """g * (1 - out * out): the gradient g through tanh at its output out."""
    return g * (1.0 - out * out)


def _member_mean(v, y_ndim):
    """Mean of v over its trailing y_ndim axes: a float, or a (k,) array of
    member means when v carries a leading stack axis (each member's sum
    runs over its own contiguous row, as the float's does)."""
    if v.ndim == y_ndim:
        return float(v.sum() / v.size)
    rows = v.reshape(len(v), -1)
    return rows.sum(axis=1) / rows.shape[1]


def mse_tail(pred, y, /):
    """(loss, dpred) of the mean squared error of pred against y; pred is
    y's shape or a (k,) + y.shape stack, whose loss is then a (k,) array
    of member means."""
    d = pred - y
    sq = d * d
    return _member_mean(sq, y.ndim), 2.0 * d / math.prod(d.shape[d.ndim - y.ndim:])


def bce_tail(z, y, e, log1p_e, /):
    """(loss, dz) of the binary cross entropy of the logits z against y,
    shaped as in mse_tail, from e = exp(-|z|) and log1p_e = log1p(e), which
    the caller takes with numpy's own ufuncs: the loss terms are
    max(z, 0) - z * y + log1p_e and the sigmoid is exp(min(z, 0)) / (1 + e),
    whose numerator is e for z < 0, 1 from 0 up and z itself for a NaN
    (numpy's exp returns a NaN unchanged)."""
    val = np.maximum(z, 0.0) - z * y + log1p_e
    sig = np.exp(np.minimum(z, 0.0)) / (1.0 + e)
    return _member_mean(val, y.ndim), (sig - y) / math.prod(z.shape[z.ndim - y.ndim:])


def all_finite(x, /):
    """Whether every entry of the float64 array x, of any strides, is
    finite."""
    return bool(np.isfinite(x).all())


def sgd_step(flat, lr, g, bound, /):
    """flat -= lr[:, None] * g in place, for the (k, n) parameter stack
    flat, its (k,) learning rates lr and the (k, n) gradient g; returns
    whether every updated parameter is at most bound in absolute value (a
    NaN is not)."""
    flat -= lr[:, None] * g
    return bool(np.abs(flat).max() <= bound)
