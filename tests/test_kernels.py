"""Kernel backends: the compiled Jacobi sweep agrees with the numpy
reference, and EQUILAB_PURE_PYTHON selects the fallback.

The agreement test is what catches a _jacobi.c left stale after an edit to
_jacobi.pyx or jacobi_py.py; it skips when the extension is not built
(`python3 setup.py build_ext --inplace` builds it).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equilab import densela
from equilab._kernels import jacobi_py

try:
    from equilab._kernels import _jacobi
except ImportError:
    _jacobi = None

SRC = Path(__file__).resolve().parents[1] / "src"


def _sweep(kernel, a):
    bt, vt = np.ascontiguousarray(a.T), np.eye(a.shape[1])
    sweeps = kernel.jacobi_sweeps(bt, vt, densela._REL_TOL_FLOOR,
                                  1e-14 * float(np.sum(a * a)), densela.MAX_SWEEPS)
    return tuple(sweeps), np.sort(np.linalg.norm(bt, axis=1))


@pytest.mark.skipif(_jacobi is None, reason="compiled Jacobi extension not built")
@pytest.mark.parametrize("n", [16, 32, 64, 96])
def test_compiled_kernel_matches_reference(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    sweeps_py, sigma_py = _sweep(jacobi_py, a)
    sweeps_c, sigma_c = _sweep(_jacobi, a)
    assert sweeps_c == sweeps_py
    assert sweeps_c[1]
    np.testing.assert_allclose(sigma_c, sigma_py, rtol=1e-12, atol=0.0)


def test_pure_python_env_selects_fallback():
    env = dict(os.environ, EQUILAB_PURE_PYTHON="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "from equilab import densela; print(densela.KERNEL_BACKEND)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"
