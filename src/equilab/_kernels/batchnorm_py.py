"""Numpy fallback of `_batchnorm.c`: batch norm, its vector-Jacobian
product and the row sums of a bias gradient, with the same signatures and
bits.  Every sum over rows is numpy's x.sum(axis=-2), whose order the
compiled kernel follows: for a C-contiguous input, +0.0 plus the rows in
order for two or more features, +0.0 plus numpy's pairwise sum of the
column for one (tests/test_kernels.py pins both)."""

import numpy as np

from equilab._kernels import BN_EPS, BN_MOMENTUM


def batch_norm(x, gamma, beta, running_mean, running_var, training, /):
    """(out, xhat, s): batch norm of each feature of a (rows, features)
    input over its rows, or of each member of a (k, rows, features) stack
    over its own rows with its own row of the (k, features) gamma, beta
    and running buffers.  Population variance in the normalization and
    the running buffers, BN_EPS inside the sqrt.  In training the batch
    statistics normalize and the running buffers are updated in place,
    with momentum BN_MOMENTUM; in eval the running statistics normalize.
    s has shape x.shape[:-2] + (1, features)."""
    if training:
        m = x.shape[-2]
        # the sums over m rows that x.mean and x.var compute, without
        # their Python-level wrappers
        mu = x.sum(axis=-2) / m
        xc = x - mu[..., None, :]
        var = (xc * xc).sum(axis=-2) / m
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        xc, var = x - running_mean[..., None, :], running_var
    s = np.sqrt(var + BN_EPS)[..., None, :]
    xhat = xc / s
    out = gamma[..., None, :] * xhat + beta[..., None, :]
    return out, xhat, s


def batch_norm_vjp(g, xhat, s, gamma, training, /):
    """(dx, dgamma, dbeta) of batch_norm from the gradient g of its output
    and its xhat and s."""
    dgamma = (g * xhat).sum(axis=-2)
    dbeta = g.sum(axis=-2)
    gi = g * gamma[..., None, :]
    if training:
        m = g.shape[-2]
        gm = gi.sum(axis=-2, keepdims=True) / m
        gx = (gi * xhat).sum(axis=-2, keepdims=True) / m
        dx = (gi - gm - xhat * gx) / s
    else:
        dx = gi / s
    return dx, dgamma, dbeta


def row_sums(x, /):
    """x.sum(axis=-2): the bias gradient of a layer from its rows."""
    return x.sum(axis=-2)
