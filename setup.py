"""Build script: compiles the extension equilab._kernels._jacobi when C and
C++17 compilers are available, otherwise installs pure-Python only (the
package falls back to the numpy kernels and formatters at import time).

Every Jacobi SVD sorts the rows by decreasing norm, takes a Householder QR
with column pivoting (qrcp) and runs the Jacobi sweep (jacobi_sweeps) on R.
Both kernels live in src/equilab/_kernels/_jacobi.c, one hand-written C
file that reads its arrays through the buffer protocol.  The text
formatters live in src/equilab/_kernels/_reprfmt.cpp and need
floating-point std::to_chars (GCC >= 11, libstdc++ >= 11):
format_rows(values, start, stop) writes a range of a trace table's rows
(each row's index, its comma-led cells, CRLF) as two strs, its halves,
the second on a second thread (std::thread, hence -pthread) while the GIL
is released, unless the range is the whole table or has fewer than 2
rows; equilab._csvfmt.csv_blocks calls it once per 128-row block, and
each str goes to its file before the next call.
format_points writes an SVG polyline's "x,y" points as "%.6g" does.
Batch norm lives in src/equilab/_kernels/_batchnorm.c:
batch_norm(x, gamma, beta, running_mean, running_var, training) returns
(out, xhat, s), batch_norm_vjp(g, xhat, s, gamma, training) returns
(dx, dgamma, dbeta), and row_sums(x) is a bias gradient's
x.sum(axis=-2).  They keep numpy's bits: only + - * / and sqrt, in the
fallback's order, and every sum over rows in numpy's order for
x.sum(axis=-2) on a C-contiguous input, from +0.0: the rows in order
for two or more features, numpy's pairwise sum (8 accumulators, blocks
of 128) for one.  Every source is compiled with -ffp-contract=off:
without it, a -march with FMA would let the compiler fuse gamma * xhat +
beta (or a Jacobi rotation's c * x - s * y) into one rounding and move
the bits.  The extension's entry points are therefore jacobi_sweeps,
qrcp, format_rows, format_points, batch_norm, batch_norm_vjp and
row_sums, each with the signature of its numpy fallback in
src/equilab/_kernels/jacobi_py.py, reprfmt_py.py or batchnorm_py.py;
equilab._kernels picks one backend for all seven.  Each source defines
its own entry points, with their docstrings and one method table:
_jacobi.c holds jacobi_sweeps and qrcp and creates the module, adding
_reprfmt.cpp's and _batchnorm.c's tables to its own.  They share one
argument contract, in src/equilab/_kernels/_buffer.h: every argument is
positional only, and every array is checked by one helper, get_array,
for float64, C-contiguous, a number of dims and, where the kernel writes
it, writability, with a ValueError that names the argument (only batch
norm's strided parameter rows have their own check).  The header is
listed in the extension's depends, so a build_ext after editing it
recompiles the sources.  A build needs both
compilers and the Python headers, nothing else; if any source fails to
compile, the whole extension is skipped, so the kernels and the
formatters fall back together.  Edit the sources directly;
tests/test_kernels.py, tests/test_csvfmt.py and tests/test_svgplot.py
compare the built functions with the numpy fallbacks, with repr and with
"%.6g".  After an edit, rebuild an
in-place build with `python setup.py build_ext --inplace --force`: an
older build lacks the newer entry points, and equilab would fall back to
the numpy kernels (tests/test_kernels.py fails on that).

An in-place build (`build_ext --inplace`) also byte-compiles every module
under src/equilab, at the building interpreter's optimization level, into
checked-hash .pyc files (PEP 552).  A process that may not write its own
bytecode cache (PYTHONDONTWRITEBYTECODE, a read-only tree) would otherwise
compile the package's source on every start, about 40 ms per interpreter:
every CLI call, test subprocess and benchmark worker.  An import checks each
.pyc against the hash of its source and ignores a stale one, so an edited
module runs as edited; rebuilding refreshes the files.  `python -O` looks
for .opt-1.pyc files, so it compiles the source unless the build itself ran
under -O.
"""

import compileall
import os
import warnings
from py_compile import PycInvalidationMode

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Treat extension build failures as a soft warning, not a hard error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain
            warnings.warn(f"skipping compiled kernels: {exc}")
        # outside the try: without a compiler super().run() raises at its
        # copy step, and the bytecode is written with or without the kernels
        if self.inplace:
            compile_package()

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name}: {exc}")


def compile_package():
    """Write checked-hash bytecode for every module under src/equilab."""
    package = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src", "equilab")
    if not compileall.compile_dir(package, quiet=1,
                                  invalidation_mode=PycInvalidationMode.CHECKED_HASH):
        warnings.warn(f"could not byte-compile every module under {package}")


setup(
    ext_modules=[Extension("equilab._kernels._jacobi",
                           sources=["src/equilab/_kernels/_jacobi.c",
                                    "src/equilab/_kernels/_reprfmt.cpp",
                                    "src/equilab/_kernels/_batchnorm.c"],
                           depends=["src/equilab/_kernels/_buffer.h"],
                           extra_compile_args=["-pthread", "-ffp-contract=off"],
                           extra_link_args=["-pthread"],
                           language="c++")],
    cmdclass={"build_ext": OptionalBuildExt},
)
