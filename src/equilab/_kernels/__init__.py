"""Kernel backend selection.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels and the trace-CSV formatter; falls back to the numpy kernels when
the extension is missing or EQUILAB_PURE_PYTHON is set to a non-empty
value other than "0".  The kernels and the formatter switch together:
on the fallback, format_rows is None and equilab._csvfmt formats with
numpy.
"""

import os

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

if not _force_pure:
    try:
        from equilab._kernels._jacobi import format_rows, jacobi_sweeps, qrcp

        BACKEND = "compiled"
    except ImportError:
        from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

        format_rows = None
        BACKEND = "python"
else:
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

    format_rows = None
    BACKEND = "python"

__all__ = ["jacobi_sweeps", "qrcp", "format_rows", "BACKEND"]
