"""Kernel backends: the compiled QRCP and Jacobi sweep agree with the
numpy reference and reject buffers they cannot use, each backend's QRCP
factors its input and gives the same R without Q, each backend's sweep
without vt (singular values only) leaves bt as the full sweep does, the
compiled batch norm, row sums and net step kernels (bias add, activation
vjps, loss tails, finiteness test, SGD update) equal the numpy ones bit
for bit, numpy still sums in the order they copy and the net step's
fallback still has the bits of the expressions it replaced, every entry
point has one positional-only signature on both backends, and
EQUILAB_PURE_PYTHON selects the fallback kernels and formatters.

The agreement tests are what catch _jacobi.c and jacobi_py.py drifting
apart; the compiled-kernel tests run in subprocesses and skip when the
extension is not built (`python3 setup.py build_ext --inplace` builds it).
"""

import inspect
import itertools
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


# Each case must raise ValueError before the kernel touches memory, with a
# message that starts with the name of the argument at fault (the case's
# first word).  Without the row check "vt with fewer rows" writes past vt
# and crashes the interpreter.
_BAD_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import jacobi_sweeps

read_only = np.eye(4)
read_only.flags.writeable = False
cases = {
    "bt float32": (np.eye(4, dtype=np.float32), np.eye(4)),
    "bt non-contiguous": (np.eye(8)[::2, ::2], np.eye(4)),
    "bt read-only": (read_only, np.eye(4)),
    "vt 3-d": (np.eye(4), np.eye(4)[:, :, None]),
    "vt with fewer rows": (np.random.default_rng(0).standard_normal((6, 6)), np.eye(2)),
    "bt float32, no vt": (np.eye(4, dtype=np.float32), None),
    "bt read-only, no vt": (read_only, None),
}
for name, (bt, vt) in cases.items():
    try:
        jacobi_sweeps(bt, vt, 1e-15, 0.0, 60)
    except ValueError as exc:
        print(f"{name}: {exc}")
        if not str(exc).startswith(name.split()[0] + " "):
            raise SystemExit(f"{name}: the message names another argument")
    else:
        raise SystemExit(f"{name}: no ValueError")
"""


# Each case must raise ValueError before qrcp writes to any buffer, with a
# message that starts with the name of the argument at fault (the case's
# first word).
_BAD_QRCP_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import qrcp

read_only = np.eye(4)
read_only.flags.writeable = False
cases = {
    "a float32": (np.eye(4, dtype=np.float32), np.empty((4, 4)), None),
    "a non-contiguous": (np.eye(8)[::2, ::2], np.empty((4, 4)), None),
    "a read-only": (read_only, np.empty((4, 4)), None),
    "r of the wrong shape": (np.ones((6, 4)), np.empty((3, 3)), None),
    "q of the wrong shape": (np.ones((6, 4)), np.empty((4, 4)), np.empty((4, 4))),
    "a wide": (np.ones((3, 5)), np.empty((5, 5)), np.empty((3, 5))),
}
for name, (a, r, q) in cases.items():
    try:
        qrcp(a, r, q)
    except ValueError as exc:
        print(f"{name}: {exc}")
        if not str(exc).startswith(name.split()[0] + " "):
            raise SystemExit(f"{name}: the message names another argument")
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
         "from equilab import _csvfmt, _kernels, densela\n"
         "from equilab.bench import svgplot\n"
         "from equilab.net import layers\n"
         "print(densela.KERNEL_BACKEND, _kernels.jacobi_sweeps.__module__,\n"
         "      _csvfmt.format_rows.__module__, svgplot.format_points.__module__,\n"
         "      layers.batch_norm.__module__, layers.row_sums.__module__,\n"
         "      layers.bias_add.__module__)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the kernels, the formatters, batch norm and the net step switch together
    assert proc.stdout.split() == ["python", "equilab._kernels.jacobi_py",
                                   "equilab._kernels.reprfmt_py", "equilab._kernels.reprfmt_py",
                                   "equilab._kernels.batchnorm_py",
                                   "equilab._kernels.batchnorm_py",
                                   "equilab._kernels.netstep_py"]


@needs_compiled
def test_entry_points_have_one_signature_on_both_backends():
    # a C function's signature is the first line of its docstring, so a
    # docstring that names another function or other parameters fails here;
    # every entry point takes its arguments by position only
    from equilab import _kernels
    from equilab._kernels import batchnorm_py, jacobi_py, netstep_py, reprfmt_py

    entry_points = [name for name in _kernels.__all__ if name != "BACKEND"]
    assert sorted(entry_points) == sorted(n for n in vars(_jacobi) if not n.startswith("_"))
    for name in entry_points:
        fallback, = [getattr(m, name) for m in (jacobi_py, reprfmt_py, batchnorm_py, netstep_py)
                     if hasattr(m, name)]
        compiled = inspect.signature(getattr(_jacobi, name)).parameters
        assert ([(p.name, p.kind) for p in compiled.values()]
                == [(p.name, p.kind) for p in inspect.signature(fallback).parameters.values()]), name
        assert all(p.kind is p.POSITIONAL_ONLY for p in compiled.values()), name


@needs_compiled
def test_compiled_backend_imports_no_fallback():
    env = {k: v for k, v in os.environ.items() if k != "EQUILAB_PURE_PYTHON"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(_jacobi.__file__).parents[2]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import equilab.bench.experiments\n"
         "from equilab import _kernels\n"
         "print(_kernels.BACKEND, sorted(m for m in sys.modules if m.endswith('_py')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "compiled []"


def _pairwise(a):
    """numpy's pairwise sum of the list a: 8 accumulators up to 128
    items, halves cut to a multiple of 8 above."""
    n = len(a)
    if n < 8:
        res = 0.0
        for v in a:
            res += v
        return res
    if n <= 128:
        r = a[:8]
        i = 8
        while i < n - n % 8:
            r = [acc + v for acc, v in zip(r, a[i:i + 8])]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[i:]:
            res += v
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


@pytest.mark.parametrize("features", [1, 2, 3, 16])
def test_numpy_row_sums_take_the_order_the_compiled_kernels_copy(features):
    # _batchnorm.c keeps numpy's bits by copying the order of
    # x.sum(axis=-2) on a C-contiguous input; a numpy that sums otherwise
    # fails here, with or without a build
    import numpy as np

    rng = np.random.default_rng(features)
    for rows in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 257, 1152, 4099):
        for lead in ((), (3,)):
            x = rng.standard_normal(lead + (rows, features)) * 10.0 ** rng.uniform(
                -6, 6, lead + (rows, features))
            x[..., 0] = -0.0  # a -0.0 column sums to +0.0
            got = x.sum(axis=-2)
            want = np.empty(lead + (features,))
            for i in np.ndindex(lead):
                if features == 1:
                    want[i] = 0.0 + _pairwise(x[i][:, 0].tolist())
                else:
                    acc = np.zeros(features)
                    for row in x[i]:
                        acc = acc + row
                    want[i] = acc
            assert got.tobytes() == want.tobytes(), (lead, rows, features)
            assert not np.signbit(got[..., 0]).any()


# Both backends on every (stack, rows, features, mode) case, gamma, beta and
# the running buffers as column slices of a wider buffer (every other
# entry when unstacked); every output and running buffer must be equal bit
# for bit, and each case runs again with feature 0 of x and g all -0.0.
_BATCH_NORM_AGREEMENT = """
import itertools
import numpy as np
from equilab._kernels import _jacobi, batchnorm_py

def params(values, lead, f):
    if lead:
        return [values[:, 1 + i * f:1 + (i + 1) * f] for i in range(4)]
    return [values[1 + i:1 + i + 8 * f:8] for i in range(4)]

def bits(arrays):
    return [(a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()) for a in arrays]

checked = 0
for k, m, f, training, zero in itertools.product(
        (None, 1, 3, 8), (2, 7, 8, 9, 16, 17, 127, 128, 129, 257, 1152), (1, 2, 4, 16),
        (True, False), (False, True)):
    lead = () if k is None else (k,)
    rng = np.random.default_rng([m, f, len(lead) and k])
    x = rng.standard_normal(lead + (m, f)) * 10.0 ** rng.uniform(-3, 3, lead + (1, f)) + 2.0
    g = rng.standard_normal(lead + (m, f))
    if zero:
        x[..., 0] = -0.0
        g[..., 0] = -0.0
    values = rng.standard_normal(lead + (8 * f + 2,))
    var = params(values, lead, f)[3]
    var[...] = np.abs(var) + 0.5
    out = []
    for kernel in (batchnorm_py, _jacobi):
        gamma, beta, mean, var = params(values.copy(), lead, f)
        y, xhat, s = kernel.batch_norm(x, gamma, beta, mean, var, training)
        grads = kernel.batch_norm_vjp(g, xhat, s, gamma, training)
        out.append(bits([y, xhat, s, mean, var, *grads, kernel.row_sums(x), kernel.row_sums(g)]))
    assert out[0] == out[1], (k, m, f, training, zero)
    checked += 1
x = np.random.default_rng(1).standard_normal((2, 3, 9, 4))
assert _jacobi.row_sums(x).tobytes() == batchnorm_py.row_sums(x).tobytes()
print(checked)
"""


@needs_compiled
def test_compiled_batch_norm_and_row_sums_equal_the_fallback():
    proc = _run_compiled(_BATCH_NORM_AGREEMENT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(4 * 11 * 4 * 2 * 2)]


# Each case must raise before the kernel reads or writes a buffer, with a
# message that starts with the name of the argument at fault (the case's
# first word).
_BAD_BATCH_NORM_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import batch_norm, batch_norm_vjp, row_sums

x, v, s = np.ones((4, 3)), np.ones(3), np.ones((1, 3))
read_only = np.ones(3)
read_only.flags.writeable = False
cases = {
    "x float32": lambda: batch_norm(x.astype(np.float32), v, v, v.copy(), v.copy(), True),
    "x non-contiguous": lambda: batch_norm(np.ones((4, 6))[:, ::2], v, v, v.copy(), v.copy(),
                                           True),
    "x 1-d": lambda: batch_norm(v, v, v, v.copy(), v.copy(), True),
    "x 4-d": lambda: batch_norm(np.ones((2, 2, 4, 3)), v, v, v.copy(), v.copy(), True),
    "gamma short": lambda: batch_norm(x, v[:2], v, v.copy(), v.copy(), True),
    "gamma stacked, x 2-d": lambda: batch_norm(x, np.ones((1, 3)), v, v.copy(), v.copy(), True),
    "gamma of another stack": lambda: batch_norm(np.ones((2, 4, 3)), np.ones((3, 3)),
                                                 np.ones((2, 3)), np.ones((2, 3)),
                                                 np.ones((2, 3)), True),
    "running_var read-only": lambda: batch_norm(x, v, v, v.copy(), read_only, True),
    "xhat of another shape": lambda: batch_norm_vjp(x, np.ones((5, 3)), s, v, True),
    "s with two rows": lambda: batch_norm_vjp(x, x, np.ones((2, 3)), v, True),
    "gamma float32": lambda: batch_norm_vjp(x, x, s, v.astype(np.float32), True),
    "x 1-d, row_sums": lambda: row_sums(v),
    "x non-contiguous, row_sums": lambda: row_sums(np.ones((4, 6))[:, ::2]),
}
for name, call in cases.items():
    try:
        call()
    except ValueError as exc:
        print(f"{name}: {exc}")
        if not str(exc).startswith(name.split()[0] + " "):
            raise SystemExit(f"{name}: the message names another argument")
    else:
        raise SystemExit(f"{name}: no ValueError")
try:
    batch_norm(x, v, v, v.copy(), v.copy())
except TypeError:
    pass
else:
    raise SystemExit("five arguments: no TypeError")
"""


@needs_compiled
def test_compiled_batch_norm_rejects_bad_buffers():
    proc = _run_compiled(_BAD_BATCH_NORM_INPUTS)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 13, proc.stdout


# the values a net step must carry through bit for bit: signed zeros, NaN
# of both signs, infinities, logits whose exp(-|z|) underflows (|z| >= 710)
# and subnormals
_SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 710.0, -710.0,
            745.5, -745.5, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]


def _net_values(rng, shape, special):
    """Normal values over six decades, with the special values spread over
    random entries when asked."""
    import numpy as np

    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if special:
        flat = v.reshape(-1)
        at = rng.choice(flat.size, min(flat.size, len(_SPECIAL)), replace=False)
        flat[at] = [_SPECIAL[i] for i in rng.permutation(len(_SPECIAL))[:len(at)]]
    return v


def _net_bits(*arrays):
    import numpy as np

    return [(np.shape(a), np.asarray(a).dtype.str, np.ascontiguousarray(a).tobytes())
            for a in arrays]


@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_netstep_fallback_has_the_bits_of_the_expressions_it_replaced(special):
    # the net's elementwise step before the kernels took it over, kept here
    # as the reference: netstep_py must give its bits on every backend-free
    # case, so the compiled kernel, which equals netstep_py, gives them too
    import math

    import numpy as np

    from equilab._kernels import netstep_py

    def member_mean(v, y_ndim):
        if v.ndim == y_ndim:
            return float(v.sum() / v.size)
        rows = v.reshape(len(v), -1)
        return rows.sum(axis=1) / rows.shape[1]

    def mse_loss(pred, y):
        d = pred - y
        sq = d * d
        return member_mean(sq, np.ndim(y)), 2.0 * d / math.prod(d.shape[d.ndim - np.ndim(y):])

    def bce_loss(z, y):
        m = np.minimum(z, 0.0)
        p = np.maximum(z, 0.0)
        e = np.exp(m - p)
        val = p - z * y + np.log1p(e)
        sig = np.exp(m) / (1.0 + e)
        y_ndim = np.ndim(y)
        return member_mean(val, y_ndim), (sig - y) / math.prod(z.shape[z.ndim - y_ndim:])

    rng = np.random.default_rng(7 + special)
    checked = 0
    with np.errstate(all="ignore"):
        for lead, m, f in itertools.product(((), (1,), (3,)), (1, 2, 9, 32, 129, 1152),
                                            (1, 2, 16)):
            z = _net_values(rng, lead + (m, f), special)
            g = _net_values(rng, lead + (m, f), special)
            b = _net_values(rng, lead + (3 * f,), special)[..., ::3]
            want = z + b[..., None, :]
            got = z.copy()
            netstep_py.bias_add(got, b)
            assert _net_bits(got) == _net_bits(want)
            assert (_net_bits(netstep_py.relu_vjp(z, g)) == _net_bits(g * (z > 0.0)))
            out = np.tanh(z)
            assert (_net_bits(netstep_py.tanh_vjp(out, g))
                    == _net_bits(g * (1.0 - out * out)))
            for y in (_net_values(rng, (m, f), special), (rng.random((m, f)) > 0.5) * 1.0):
                assert (_net_bits(*netstep_py.mse_tail(z, y)) == _net_bits(*mse_loss(z, y)))
                e = np.exp(-np.abs(z))
                assert (_net_bits(*netstep_py.bce_tail(z, y, e, np.log1p(e)))
                        == _net_bits(*bce_loss(z, y)))
            assert netstep_py.all_finite(z) == bool(np.isfinite(z).all())
            if lead:
                flat, lr = z.reshape(lead[0], -1).copy(), np.abs(b[:, 0])
                want = flat - lr[:, None] * g.reshape(flat.shape)
                within = netstep_py.sgd_step(flat, lr, g.reshape(flat.shape), 1e12)
                assert _net_bits(flat) == _net_bits(want)
                assert within == (np.abs(want).max() <= 1e12)
            checked += 1
    assert checked == 3 * 6 * 3


@pytest.mark.parametrize("shape", [(1, 1), (32, 1), (9, 3), (3, 32, 1), (2, 129, 2), (2, 1152, 1)])
def test_numpy_member_sums_take_the_order_the_compiled_loss_tails_copy(shape):
    # _netstep.c keeps numpy's bits in a member mean by copying the order of
    # v.sum() (unstacked) and of v.reshape(k, -1).sum(axis=1) (a stack): +0.0
    # plus numpy's pairwise sum of the member's contiguous block; a numpy
    # that sums otherwise fails here, with or without a build
    import numpy as np

    rng = np.random.default_rng(len(shape) * 1000 + shape[-2])
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    v.reshape(-1)[:2] = -0.0
    assert v.sum().tobytes() == np.float64(0.0 + _pairwise(v.ravel().tolist())).tobytes()
    rows = v.reshape(shape[0], -1)
    want = [0.0 + _pairwise(row.tolist()) for row in rows]
    assert rows.sum(axis=1).tobytes() == np.array(want).tobytes()


# Both backends on every (stack, rows, features, values) case, dense rows
# and a conv layer's (k, n*oh*ow, channels) rows, the bias a column slice of
# a wider buffer (every third entry when unstacked); every output, every
# in-place result and every returned flag must be equal bit for bit, except
# the sign and payload of a NaN where two NaNs meet in a + or *: IEEE 754
# leaves open which one survives, and C lets the compiler swap the operands
# (a NaN of either sign prints "nan" in every output file).  relu's product
# with 1.0 or 0.0 has one NaN operand at most, so it is compared as it is.
_NETSTEP_AGREEMENT = """
import itertools
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_kernels import _net_bits, _net_values
from equilab._kernels import _jacobi, netstep_py

def nan_blind(a):
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a

checked = 0
with np.errstate(all="ignore"):
    for lead, (m, f, conv), special in itertools.product(
            ((), (1,), (3,)),
            ((1, 1, 0), (2, 1, 0), (9, 1, 0), (32, 1, 0), (32, 16, 0), (129, 1, 0),
             (257, 3, 0), (1152, 1, 0), (18, 4, 1), (50, 1, 1)),
            (False, True)):
        rng = np.random.default_rng([m, f, len(lead) and lead[0], special])
        z = _net_values(rng, lead + (m, f), special)
        g = _net_values(rng, lead + (m, f), special)
        params = _net_values(rng, lead + (3 * f + 1,), special)
        b = params[..., 1:1 + f] if lead else params[1::3]
        ys = (_net_values(rng, (m, f), special), (rng.random((m, f)) > 0.5) * 1.0)
        grad = _net_values(rng, params.shape, special)
        out = []
        for kernel in (netstep_py, _jacobi):
            zb = z.copy()
            kernel.bias_add(zb, b)
            got = [zb, kernel.relu_vjp(z, g), kernel.tanh_vjp(np.tanh(z), g)]
            for y in ys:
                e = np.exp(-np.abs(z))
                got += [*kernel.mse_tail(z, y), *kernel.bce_tail(z, y, e, np.log1p(e))]
            # conv outputs reach the finiteness test as moveaxis views
            view = np.moveaxis(z.reshape(lead + (m // 2 if conv else m, -1, f)), -1, -2)
            finite = [kernel.all_finite(a)
                      for a in (z, g, view, z[..., ::2, :], np.asarray(z.reshape(-1)[0]))]
            if lead:
                flat, lr = params.copy(), np.abs(z[:, 0, 0]).copy()
                finite += [kernel.sgd_step(flat, lr, grad, bound) for bound in (1e12, 1.0)]
                got.append(flat)
            out.append((_net_bits(got[1]), _net_bits(*map(nan_blind, got)), finite))
        assert out[0] == out[1], (lead, m, f, conv, special)
        checked += 1
print(checked)
"""


@needs_compiled
def test_compiled_netstep_kernels_equal_the_fallback():
    proc = _run_compiled(_NETSTEP_AGREEMENT, str(Path(__file__).resolve().parent))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(3 * 10 * 2)]


# Each case must raise before the kernel reads or writes a buffer, with a
# message that starts with the name of the argument at fault (the case's
# first word).
_BAD_NETSTEP_INPUTS = """
import numpy as np
from equilab._kernels._jacobi import (all_finite, bce_tail, bias_add, mse_tail, relu_vjp,
                                      sgd_step, tanh_vjp)

z, v, lr = np.ones((4, 3)), np.ones(3), np.ones(4)
read_only = np.ones((4, 3))
read_only.flags.writeable = False
cases = {
    "z float32": lambda: bias_add(z.astype(np.float32), v),
    "z read-only": lambda: bias_add(read_only, v),
    "z non-contiguous": lambda: bias_add(np.ones((4, 6))[:, ::2], v),
    "z 1-d": lambda: bias_add(v, v),
    "b short": lambda: bias_add(z.copy(), v[:2]),
    "b stacked, z 2-d": lambda: bias_add(z.copy(), np.ones((1, 3))),
    "g of another shape": lambda: relu_vjp(z, np.ones((5, 3))),
    "z non-contiguous, relu_vjp": lambda: relu_vjp(np.ones((4, 6))[:, ::2], z),
    "out float32": lambda: tanh_vjp(z.astype(np.float32), z),
    "pred of another shape": lambda: mse_tail(np.ones((4, 2)), z),
    "pred of two stack axes": lambda: mse_tail(np.ones((2, 2, 4, 3)), z),
    "y non-contiguous": lambda: mse_tail(z, np.ones((4, 6))[:, ::2]),
    "z of another shape, bce_tail": lambda: bce_tail(np.ones((5, 3)), z, z, z),
    "e of another shape": lambda: bce_tail(z, z, np.ones((5, 3)), z),
    "log1p_e float32": lambda: bce_tail(z, z, z, z.astype(np.float32)),
    "x float32": lambda: all_finite(v.astype(np.float32)),
    "flat read-only": lambda: sgd_step(read_only, lr, z, 1e12),
    "flat 1-d": lambda: sgd_step(v.copy(), lr, v, 1e12),
    "lr short": lambda: sgd_step(z.copy(), lr[:2], z, 1e12),
    "g of another shape, sgd_step": lambda: sgd_step(z.copy(), lr, np.ones((4, 2)), 1e12),
}
for name, call in cases.items():
    try:
        call()
    except ValueError as exc:
        print(f"{name}: {exc}")
        if not str(exc).startswith(name.split()[0] + " "):
            raise SystemExit(f"{name}: the message names another argument")
    else:
        raise SystemExit(f"{name}: no ValueError")
for name, call in {"one argument": lambda: relu_vjp(z),
                   "a keyword": lambda: sgd_step(z.copy(), lr, z, bound=1e12),
                   "a bound that is no number": lambda: sgd_step(z.copy(), lr, z, "x")}.items():
    try:
        call()
    except TypeError:
        pass
    else:
        raise SystemExit(f"{name}: no TypeError")
"""


@needs_compiled
def test_compiled_netstep_rejects_bad_buffers():
    proc = _run_compiled(_BAD_NETSTEP_INPUTS)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 20, proc.stdout
