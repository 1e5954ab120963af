"""Run manifests and atomic file writes.

Every harness run ends by writing a manifest listing each emitted file, so
an output directory can be audited: files not in the manifest are stale,
files in the manifest but missing indicate a truncated run.  Wall-clock
timings live here and only here; the CSV/SVG artifacts stay byte-identical
across reruns.  The manifest also names what those bytes depend on beyond
the config and seed: `env`, the process's environment (the kernel backend
above all, since the bytes are per backend), and `inputs`, the sha256 of
each input file the config names.
"""

import copy
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

import equilab
from equilab import _kernels

# the thread-count variables of the BLAS and OpenMP runtimes NumPy may use
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# Characters encoded per write.  Encoding a whole trace file at once held
# a second copy of its text as bytes (2.8 MB per quad64 arm).  Measured on
# a 2.8 MB ASCII text (2 vCPU, Python 3.11, 30 writes each): whole 2.7-3.0
# ms at a 2743 KiB tracemalloc peak; 2**15 chars 3.3 ms at 69 KiB; 2**16
# 2.8-3.0 ms at 133 KiB; 2**17 2.9 ms at 261 KiB; 2**18 4.6 ms; 2**20
# 5.6 ms.
WRITE_SLICE_CHARS = 1 << 16


def atomic_write_chunks(path, chunks):
    """Write the strs of the iterable `chunks` to path as UTF-8, one after
    another, via a temp file and rename in the same directory.

    Each chunk is encoded and written before the next is read, so a
    caller that makes its text a piece at a time (`_csvfmt.csv_blocks`)
    never holds the whole text or its encoding.  If reading or writing
    raises, the temp file is removed, path is left as it was, and the
    error propagates.  Line ends are written as given.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write the str text to path as UTF-8, atomically: atomic_write_chunks
    of its WRITE_SLICE_CHARS-character slices.

    Slicing a str by characters never splits one, so the bytes equal
    text.encode("utf-8"), and no encoded copy of the whole text exists.
    """
    atomic_write_chunks(path, (text[start:start + WRITE_SLICE_CHARS]
                               for start in range(0, len(text), WRITE_SLICE_CHARS)))


@functools.cache
def environment():
    """The manifest's `env`, computed once per process: the kernel backend,
    the equilab, Python and NumPy versions, sys.platform, the CPU count
    and the thread variables (None when unset).  Cheap by design:
    platform.platform() is not called (its first call runs for
    milliseconds, a whole small run's time)."""
    return {
        "kernel_backend": _kernels.BACKEND,
        "equilab": equilab.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class RunManifest:
    kind: str
    config_hash: str
    config: dict  # the resolved params (all but kind and seed)
    seed: int
    version: str
    started: str
    finished: str = ""
    files: list = field(default_factory=list)
    diverged: dict = field(default_factory=dict)
    wall_time_total: float = 0.0
    wall_time_per_step: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    # a copy, so that one manifest's edit cannot reach the cached dict
    env: dict = field(default_factory=lambda: copy.deepcopy(environment()))
    inputs: dict = field(default_factory=dict)

    def add_file(self, name):
        """List a file of the run directory by its name."""
        if name not in self.files:
            self.files.append(name)

    def write(self, out_dir):
        """Write manifest.json atomically; returns the path."""
        path = os.path.join(out_dir, "manifest.json")
        payload = {**asdict(self), "files": sorted(self.files)}
        atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)
