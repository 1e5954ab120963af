"""Kernel backend selection, the only place that makes it.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels, the text formatters format_rows (trace CSVs) and format_points
(SVG polylines), and batch norm (batch_norm, batch_norm_vjp) with the
bias gradient's row_sums; falls back to the numpy jacobi_py, reprfmt_py
and batchnorm_py, which have the same signatures, when the extension is
missing or EQUILAB_PURE_PYTHON is set to a non-empty value other than
"0".  batch_norm, batch_norm_vjp and row_sums give the same bits on both
backends: every sum over rows takes numpy's order for x.sum(axis=-2),
the rows in order from +0.0 for two or more features and +0.0 plus
numpy's pairwise sum for one.

Each entry point of the extension is defined in the source of its group:
jacobi_sweeps and qrcp in _jacobi.c, format_rows and format_points in
_reprfmt.cpp, batch_norm, batch_norm_vjp and row_sums in _batchnorm.c.
On both backends every argument is positional only; the compiled entry
points check each array with _buffer.h's get_array (float64,
C-contiguous, its number of dims, writable where the kernel writes) and
raise ValueError naming the argument.  An in-place build older than its
sources lacks a newer entry point, fails this import and so selects the
fallback; tests/test_kernels.py fails loudly on that.
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
        from equilab._kernels._jacobi import (batch_norm, batch_norm_vjp, format_points,
                                              format_rows, jacobi_sweeps, qrcp, row_sums)

        BACKEND = "compiled"
    except ImportError:
        pass
if BACKEND == "python":
    from equilab._kernels.batchnorm_py import batch_norm, batch_norm_vjp, row_sums
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp
    from equilab._kernels.reprfmt_py import format_points, format_rows

__all__ = ["jacobi_sweeps", "qrcp", "format_rows", "format_points", "batch_norm",
           "batch_norm_vjp", "row_sums", "BACKEND"]
