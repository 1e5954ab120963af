"""Kernel backend selection.

Prefers the compiled QRCP and Jacobi sweep extension; falls back to the
numpy implementation when the extension is missing or EQUILAB_PURE_PYTHON
is set to a non-empty value other than "0".
"""

import os

_force_pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")

if not _force_pure:
    try:
        from equilab._kernels._jacobi import jacobi_sweeps, qrcp

        BACKEND = "compiled"
    except ImportError:
        from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

        BACKEND = "python"
else:
    from equilab._kernels.jacobi_py import jacobi_sweeps, qrcp

    BACKEND = "python"

__all__ = ["jacobi_sweeps", "qrcp", "BACKEND"]
