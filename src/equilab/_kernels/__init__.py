"""Kernel backend selection, the only place that makes it.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels, the text formatters format_rows (trace CSVs) and format_points
(SVG polylines), batch norm (batch_norm, batch_norm_vjp) with the bias
gradient's row_sums, and the rest of a net's training step around its
matmuls and transcendentals: the in-place bias_add, relu_vjp and
tanh_vjp, the loss tails mse_tail and bce_tail, all_finite and the SGD
update sgd_step.  It falls back to the numpy jacobi_py, reprfmt_py,
batchnorm_py and netstep_py, which have the same signatures, when the
extension is missing or EQUILAB_PURE_PYTHON is set to a non-empty value
other than "0".  The net's kernels give the same bits on both backends:
only + - * / and sqrt in the fallback's order, and every sum in numpy's
order, from +0.0 plus, over rows, the rows in order for two or more
features and numpy's pairwise sum for one, or, for a loss tail's member
mean, numpy's pairwise sum of the member's block.  A NaN's sign is left
open where two NaNs meet in a + or *.  Matmuls, tanh, exp and log1p stay
numpy's on both backends; bce_tail takes exp(-|z|) and its log1p from
its caller.

Each entry point of the extension is defined in the source of its group:
jacobi_sweeps and qrcp in _jacobi.c, format_rows and format_points in
_reprfmt.cpp, batch_norm, batch_norm_vjp and row_sums in _batchnorm.c,
and the net step's seven in _netstep.c; _buffer.c holds the helpers the
last two share.  On both backends every argument is positional only; the
compiled entry points check each array with _buffer.h's get_array
(float64, C-contiguous, its number of dims, writable where the kernel
writes) and raise ValueError naming the argument; strided parameter rows
and all_finite's input, which may have any strides, have their own
check.  An in-place build older than its sources lacks a newer entry
point, fails this import and so selects the fallback;
tests/test_kernels.py fails loudly on that.
"""

import os

# batch norm's eps (inside the sqrt) and running-buffer momentum, read by
# batchnorm_py; _batchnorm.c defines the same values
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

BACKEND = "python"
if not _force_pure:
    try:
        from equilab._kernels._jacobi import (all_finite, batch_norm, batch_norm_vjp,
                                              bce_tail, bias_add, format_points, format_rows,
                                              jacobi_sweeps, mse_tail, qrcp, relu_vjp,
                                              row_sums, sgd_step, tanh_vjp)

        BACKEND = "compiled"
    except ImportError:
        pass
if BACKEND == "python":
    from equilab._kernels.batchnorm_py import batch_norm, batch_norm_vjp, row_sums
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp
    from equilab._kernels.netstep_py import (all_finite, bce_tail, bias_add, mse_tail,
                                             relu_vjp, sgd_step, tanh_vjp)
    from equilab._kernels.reprfmt_py import format_points, format_rows

__all__ = ["jacobi_sweeps", "qrcp", "format_rows", "format_points", "batch_norm",
           "batch_norm_vjp", "row_sums", "bias_add", "relu_vjp", "tanh_vjp", "mse_tail",
           "bce_tail", "all_finite", "sgd_step", "BACKEND"]
