"""Kernel backends: the compiled Jacobi sweep agrees with the numpy
reference and rejects buffers it cannot sweep, each backend's sweep
without vt (singular values only) leaves bt as the full sweep does, and
EQUILAB_PURE_PYTHON selects the fallback.

The agreement test is what catches _jacobi.c and jacobi_py.py drifting
apart; the compiled-kernel tests run in subprocesses and skip when the
extension is not built (`python3 setup.py build_ext --inplace` builds it).
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from equilab._kernels import _jacobi
except ImportError:
    _jacobi = None

SRC = Path(__file__).resolve().parents[1] / "src"


needs_compiled = pytest.mark.skipif(_jacobi is None,
                                    reason="compiled Jacobi extension not built")


def _run_compiled(script, *args):
    """Run script in a fresh interpreter that imports the compiled kernel
    found here, so a kernel that corrupts memory fails one test instead
    of ending the session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(_jacobi.__file__).parents[2]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def _sweep_sigma_only_and_full(kernel):
    """Sweep each test matrix once with vt=None and once with vt=eye; the
    two runs must return the same (sweeps, converged) and leave bt equal
    bit for bit.  Self-contained, so the compiled case can run its source
    in a fresh interpreter."""
    import numpy as np

    rng = np.random.default_rng(13)
    graded = rng.standard_normal((12, 12)) * 10.0 ** rng.uniform(-4, 4, size=12)
    low_rank = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 6))
    zero_col = rng.standard_normal((10, 5))
    zero_col[:, 2] = 0.0
    for a in (rng.standard_normal((16, 16)), rng.standard_normal((40, 7)),
              graded, low_rank, zero_col):
        runs = []
        for vt in (np.eye(a.shape[1]), None):
            bt = np.ascontiguousarray(a.T)
            done = kernel.jacobi_sweeps(bt, vt, 1e-14, 1e-14 * float(np.sum(a * a)), 60)
            runs.append((tuple(done), bt))
        (full, bt_full), (sigma_only, bt_sigma_only) = runs
        assert full == sigma_only, (a.shape, full, sigma_only)
        assert full[1], a.shape
        assert np.array_equal(bt_full, bt_sigma_only), a.shape


_MATCH_REFERENCE = """
import sys
import numpy as np
from equilab import densela
from equilab._kernels import _jacobi, jacobi_py

def sweep(kernel, a):
    bt, vt = np.ascontiguousarray(a.T), np.eye(a.shape[1])
    sweeps = kernel.jacobi_sweeps(bt, vt, densela._REL_TOL_FLOOR,
                                  1e-14 * float(np.sum(a * a)), densela.MAX_SWEEPS)
    return tuple(sweeps), np.sort(np.linalg.norm(bt, axis=1))

shape = tuple(int(n) for n in sys.argv[1:])
a = np.random.default_rng(shape).standard_normal(shape)
sweeps_py, sigma_py = sweep(jacobi_py, a)
sweeps_c, sigma_c = sweep(_jacobi, a)
assert sweeps_c == sweeps_py, (sweeps_c, sweeps_py)
assert sweeps_c[1], "compiled kernel did not converge"
np.testing.assert_allclose(sigma_c, sigma_py, rtol=1e-12, atol=0.0)
"""


# tall shapes give bt rows (length n_rows) and vt rows (length n_cols) of
# different lengths, so a kernel that swaps the two loop bounds fails
@needs_compiled
@pytest.mark.parametrize("shape", [(16, 16), (32, 32), (64, 64), (96, 96), (40, 7), (64, 16)],
                         ids=["16", "32", "64", "96", "40x7", "64x16"])
def test_compiled_kernel_matches_reference(shape):
    proc = _run_compiled(_MATCH_REFERENCE, *map(str, shape))
    assert proc.returncode == 0, proc.stderr


# Each case must raise ValueError before the kernel touches memory.  Without
# the row check the last one writes past vt and crashes the interpreter.
_BAD_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import jacobi_sweeps

read_only = np.eye(4)
read_only.flags.writeable = False
cases = {
    "float32 bt": (np.eye(4, dtype=np.float32), np.eye(4)),
    "non-contiguous bt": (np.eye(8)[::2, ::2], np.eye(4)),
    "read-only bt": (read_only, np.eye(4)),
    "3-d vt": (np.eye(4), np.eye(4)[:, :, None]),
    "vt with fewer rows": (np.random.default_rng(0).standard_normal((6, 6)), np.eye(2)),
    "float32 bt, no vt": (np.eye(4, dtype=np.float32), None),
    "read-only bt, no vt": (read_only, None),
}
for name, (bt, vt) in cases.items():
    try:
        jacobi_sweeps(bt, vt, 1e-15, 0.0, 60)
    except ValueError as exc:
        print(f"{name}: {exc}")
    else:
        raise SystemExit(f"{name}: no ValueError")
"""


def test_fallback_sigma_only_sweep_matches_full():
    from equilab._kernels import jacobi_py

    _sweep_sigma_only_and_full(jacobi_py)


@needs_compiled
def test_compiled_sigma_only_sweep_matches_full():
    script = ("from equilab._kernels import _jacobi\n"
              + inspect.getsource(_sweep_sigma_only_and_full)
              + "_sweep_sigma_only_and_full(_jacobi)\n")
    proc = _run_compiled(script)
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_compiled_kernel_rejects_bad_buffers():
    proc = _run_compiled(_BAD_INPUTS)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 7, proc.stdout


def test_pure_python_env_selects_fallback():
    env = dict(os.environ, EQUILAB_PURE_PYTHON="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "from equilab import densela; print(densela.KERNEL_BACKEND)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"
