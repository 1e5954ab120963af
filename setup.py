"""Build script: compiles the SVD kernels when a C compiler is available,
otherwise installs pure-Python only (the package falls back to the numpy
kernels at import time).

Every Jacobi SVD sorts the rows by decreasing norm, takes a Householder QR
with column pivoting (qrcp) and runs the Jacobi sweep (jacobi_sweeps) on R.
Both kernels live in src/equilab/_kernels/_jacobi.c, one hand-written C
file that reads its arrays through the buffer protocol, so a build needs a
C compiler and the Python headers, nothing else.  Edit it directly;
tests/test_kernels.py compares the built kernels with the numpy reference.
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
                           sources=["src/equilab/_kernels/_jacobi.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
