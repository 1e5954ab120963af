"""Kernel backend selection.

Prefers the compiled extension, which holds the QRCP and Jacobi sweep
kernels, the trace-CSV formatter and the SVG-polyline formatter; falls
back to the numpy kernels when the extension is missing or
EQUILAB_PURE_PYTHON is set to a non-empty value other than "0".  The
kernels and the formatters switch together: on the fallback, format_ranges
and format_points are None, equilab._csvfmt formats with numpy and
equilab.bench.svgplot with "%.6g" %.  An in-place build older than its sources lacks a newer entry
point, fails this import and so selects the fallback; tests/test_kernels.py
fails loudly on that.
"""

import os

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

if not _force_pure:
    try:
        from equilab._kernels._jacobi import format_ranges, format_points, jacobi_sweeps, qrcp

        BACKEND = "compiled"
    except ImportError:
        from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

        format_ranges = format_points = None
        BACKEND = "python"
else:
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

    format_ranges = format_points = None
    BACKEND = "python"

__all__ = ["jacobi_sweeps", "qrcp", "format_ranges", "format_points", "BACKEND"]
