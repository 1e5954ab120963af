"""Kernel backend selection.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels and the trace-CSV formatter; falls back to the numpy kernels when
the extension is missing or EQUILAB_PURE_PYTHON is set to a non-empty
value other than "0".  The kernels and the formatter switch together:
on the fallback, format_text is None and equilab._csvfmt formats with
numpy.  An in-place build older than its sources lacks a newer entry
point, fails this import and so selects the fallback; tests/test_kernels.py
fails loudly on that.
"""

import os

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

if not _force_pure:
    try:
        from equilab._kernels._jacobi import format_text, jacobi_sweeps, qrcp

        BACKEND = "compiled"
    except ImportError:
        from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

        format_text = None
        BACKEND = "python"
else:
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

    format_text = None
    BACKEND = "python"

__all__ = ["jacobi_sweeps", "qrcp", "format_text", "BACKEND"]
