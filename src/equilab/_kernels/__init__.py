"""Kernel backend selection, the only place that makes it.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels and the text formatters format_rows (trace CSVs) and
format_points (SVG polylines); falls back to the numpy jacobi_py and
reprfmt_py, which have the same signatures, when the extension is missing
or EQUILAB_PURE_PYTHON is set to a non-empty value other than "0".  An
in-place build older than its sources lacks a newer entry point, fails
this import and so selects the fallback; tests/test_kernels.py fails
loudly on that.
"""

import os

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

BACKEND = "python"
if not _force_pure:
    try:
        from equilab._kernels._jacobi import format_points, format_rows, jacobi_sweeps, qrcp

        BACKEND = "compiled"
    except ImportError:
        pass
if BACKEND == "python":
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp
    from equilab._kernels.reprfmt_py import format_points, format_rows

__all__ = ["jacobi_sweeps", "qrcp", "format_rows", "format_points", "BACKEND"]
