"""Build script: compiles the extension equilab._kernels._jacobi when C and
C++17 compilers are available, otherwise installs pure-Python only (the
package falls back to the numpy kernels and formatter at import time).

Every Jacobi SVD sorts the rows by decreasing norm, takes a Householder QR
with column pivoting (qrcp) and runs the Jacobi sweep (jacobi_sweeps) on R.
Both kernels live in src/equilab/_kernels/_jacobi.c, one hand-written C
file that reads its arrays through the buffer protocol.  The trace-CSV
formatter format_text (a prefix and every row, CRLF-ended, written in
place into one str) lives in src/equilab/_kernels/_reprfmt.cpp and needs
floating-point std::to_chars (GCC >= 11, libstdc++ >= 11).  The
extension's entry points are therefore jacobi_sweeps, qrcp and
format_text.  A build needs both compilers and the Python headers, nothing
else; if either source fails to compile, the whole extension is skipped,
so the kernels and the formatter fall back together.  Edit the sources directly;
tests/test_kernels.py and tests/test_csvfmt.py compare the built functions
with the numpy reference and with repr.  After an edit, rebuild an
in-place build with `python setup.py build_ext --inplace --force`: an
older build lacks the newer entry points, and equilab would fall back to
the numpy kernels (tests/test_kernels.py fails on that).
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Treat extension build failures as a soft warning, not a hard error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain
            warnings.warn(f"skipping compiled kernels: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name}: {exc}")


setup(
    ext_modules=[Extension("equilab._kernels._jacobi",
                           sources=["src/equilab/_kernels/_jacobi.c",
                                    "src/equilab/_kernels/_reprfmt.cpp"],
                           language="c++")],
    cmdclass={"build_ext": OptionalBuildExt},
)
