"""Kernel backends: the compiled QRCP and Jacobi sweep agree with the
numpy reference and reject buffers they cannot use, each backend's QRCP
factors its input and gives the same R without Q, each backend's sweep
without vt (singular values only) leaves bt as the full sweep does, and
EQUILAB_PURE_PYTHON selects the fallback kernels and CSV formatter.

The agreement tests are what catch _jacobi.c and jacobi_py.py drifting
apart; the compiled-kernel tests run in subprocesses and skip when the
extension is not built (`python3 setup.py build_ext --inplace` builds it).
"""

import inspect
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
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


def _qrcp_factors(kernel):
    """Run qrcp with and without q on test matrices: a[:, perm] = q r with
    q orthonormal, r upper triangular with non-increasing |diagonal|, and
    r equal bit for bit between the two runs.  Self-contained, so the
    compiled case can run its source in a fresh interpreter."""
    import numpy as np

    rng = np.random.default_rng(17)
    graded = rng.standard_normal((12, 12)) * 10.0 ** rng.uniform(-4, 4, size=12)[:, None]
    zero_col = rng.standard_normal((10, 5))
    zero_col[:, 2] = 0.0
    dup_col = rng.standard_normal((8, 4))
    dup_col[:, 3] = dup_col[:, 1]
    low_rank = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 6))
    for a in (rng.standard_normal((16, 16)), rng.standard_normal((40, 7)), graded,
              zero_col, dup_col, low_rank, rng.standard_normal((6, 1)), np.zeros((3, 3)),
              np.array([[-2.0]])):
        p, n = a.shape
        r, q, r_only = np.empty((n, n)), np.empty((p, n)), np.empty((n, n))
        perm = kernel.qrcp(a.copy(), r, q)
        assert kernel.qrcp(a.copy(), r_only, None) == perm, a.shape
        assert sorted(perm) == list(range(n)), perm
        assert np.array_equal(r, r_only), a.shape
        assert np.array_equal(r, np.triu(r)), a.shape
        diag = np.abs(np.diag(r))
        assert np.all(diag[1:] <= diag[:-1] * (1.0 + 1e-12)), diag
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(a[:, perm] - q @ r) <= 1e-14 * scale, a.shape
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14, a.shape


def test_fallback_qrcp_factors():
    from equilab._kernels import jacobi_py

    _qrcp_factors(jacobi_py)


@needs_compiled
def test_compiled_qrcp_factors():
    script = ("from equilab._kernels import _jacobi\n"
              + inspect.getsource(_qrcp_factors)
              + "_qrcp_factors(_jacobi)\n")
    proc = _run_compiled(script)
    assert proc.returncode == 0, proc.stderr


# columns scaled to distinct norms, so both backends must pick the same
# pivots although their norm sums round differently
_QRCP_MATCH_REFERENCE = """
import sys
import numpy as np
from equilab._kernels import _jacobi, jacobi_py

shape = tuple(int(n) for n in sys.argv[1:])
rng = np.random.default_rng(shape)
a = rng.standard_normal(shape) * np.geomspace(1.0, 1e-3, shape[1])[rng.permutation(shape[1])]
out = []
for kernel in (jacobi_py, _jacobi):
    r, q = np.empty((shape[1], shape[1])), np.empty(shape)
    out.append((kernel.qrcp(a.copy(), r, q), r, q))
(perm_py, r_py, q_py), (perm_c, r_c, q_c) = out
assert perm_c == perm_py, (perm_c, perm_py)
np.testing.assert_allclose(r_c, r_py, rtol=1e-12, atol=1e-12 * np.abs(r_py).max())
np.testing.assert_allclose(q_c, q_py, rtol=0.0, atol=1e-12)
"""


@needs_compiled
@pytest.mark.parametrize("shape", [(16, 16), (24, 5), (64, 64)], ids=["16", "24x5", "64"])
def test_compiled_qrcp_matches_reference(shape):
    proc = _run_compiled(_QRCP_MATCH_REFERENCE, *map(str, shape))
    assert proc.returncode == 0, proc.stderr


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


# Each case must raise ValueError before qrcp writes to any buffer.
_BAD_QRCP_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import qrcp

read_only = np.eye(4)
read_only.flags.writeable = False
cases = {
    "float32 a": (np.eye(4, dtype=np.float32), np.empty((4, 4)), None),
    "non-contiguous a": (np.eye(8)[::2, ::2], np.empty((4, 4)), None),
    "read-only a": (read_only, np.empty((4, 4)), None),
    "r of the wrong shape": (np.ones((6, 4)), np.empty((3, 3)), None),
    "q of the wrong shape": (np.ones((6, 4)), np.empty((4, 4)), np.empty((4, 4))),
    "wide a": (np.ones((3, 5)), np.empty((5, 5)), np.empty((3, 5))),
}
for name, (a, r, q) in cases.items():
    try:
        qrcp(a, r, q)
    except ValueError as exc:
        print(f"{name}: {exc}")
    else:
        raise SystemExit(f"{name}: no ValueError")
"""


@needs_compiled
def test_compiled_qrcp_rejects_bad_buffers():
    proc = _run_compiled(_BAD_QRCP_INPUTS)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6, proc.stdout


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


def test_inplace_extension_is_the_backend():
    """An in-place build of the extension is used unless EQUILAB_PURE_PYTHON
    asks for the fallback.  A build older than its sources lacks a newer
    entry point; `_kernels` would then fall back to python silently."""
    from equilab import _kernels

    kernels_dir = Path(_kernels.__file__).parent
    built = [kernels_dir / f"_jacobi{suffix}" for suffix in EXTENSION_SUFFIXES
             if (kernels_dir / f"_jacobi{suffix}").exists()]
    if not built or _kernels._force_pure:
        pytest.skip("no in-place build of the extension, or EQUILAB_PURE_PYTHON is set")
    assert _kernels.BACKEND == "compiled", (
        f"{built[0]} exists but equilab._kernels selected the {_kernels.BACKEND!r} "
        "backend; the build is probably older than its sources: rebuild it with "
        "`python setup.py build_ext --inplace --force`")


def test_pure_python_env_selects_fallback():
    env = dict(os.environ, EQUILAB_PURE_PYTHON="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from equilab import _kernels, densela; print(densela.KERNEL_BACKEND, _kernels.format_ranges)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the kernels and the CSV formatter switch together
    assert proc.stdout.strip() == "python None"
