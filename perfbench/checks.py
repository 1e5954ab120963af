"""Output checks that need no timing: reference numbers, the kappa oracle
and kernel backend agreement.

The reference is a sample of the output lines of each workload at the
reference seed (first and last lines of every CSV).  Numbers are compared
with a relative tolerance so that last-bit differences between kernel
backends pass; all other text must match exactly.
"""

import json
import math
import os
import re

import mpmath
import numpy as np

from workloads import read_csv

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# numbers in an output line agree when |a - b| <= RTOL * max(|a|, |b|)
# + ATOL * (largest magnitude on the reference line)
RTOL = 1e-6
ATOL = 1e-9
SAMPLE_LINES = 6

# On vds16's row-graded matrices the Jacobi SVD's kappas stay within 4e-13
# of the 40-digit oracle (seeds 0-5); np.linalg.svd's are off by 1e-7 to
# 2e-5, so this tolerance separates the two by orders of magnitude.
KAPPA_TOL = 1e-10
ORACLE_DIGITS = 40

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def snapshot(out_dir):
    """Line count and sampled lines of every non-manifest, non-SVG output."""
    snap = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json" or name.endswith(".svg"):
            continue
        with open(os.path.join(out_dir, name), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        keep = range(len(lines))
        if len(lines) > 2 * SAMPLE_LINES:
            keep = list(range(SAMPLE_LINES)) + list(range(len(lines) - SAMPLE_LINES, len(lines)))
        snap[name] = {"lines": len(lines), "sample": {str(i): lines[i] for i in keep}}
    return snap


def _lines_agree(got, want):
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w) or g[0::2] != w[0::2]:
        return False
    wn = [float(x) for x in w[1::2]]
    scale = max((abs(x) for x in wn if math.isfinite(x)), default=0.0)
    for a, b in zip((float(x) for x in g[1::2]), wn):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL * scale:
            return False
    return True


def compare_to_reference(workload_name, out_dir):
    """None when out_dir matches the recorded reference, else a reason."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        want = json.load(fh)[workload_name]
    got = snapshot(out_dir)
    if sorted(got) != sorted(want):
        return f"output files {sorted(got)} != reference {sorted(want)}"
    for name, ref in want.items():
        if got[name]["lines"] != ref["lines"]:
            return f"{name}: {got[name]['lines']} lines, reference has {ref['lines']}"
        for idx, line in ref["sample"].items():
            if not _lines_agree(got[name]["sample"][idx], line):
                return f"{name} line {idx}: {got[name]['sample'][idx]!r} != {line!r}"
    return None


def vds_kappa_rel_err(out_dir, seed, size):
    """Largest relative error of the kappas in vds_trials.csv against a
    40-digit mpmath SVD of the same matrices, regenerated from the seed
    the way the vds runner draws them."""
    mp = mpmath.mp.clone()
    mp.dps = ORACLE_DIGITS

    def kappa(rows):
        sig = mp.svd_r(mp.matrix(rows), compute_uv=False)
        return max(sig) / min(sig)

    worst = 0.0
    for row in read_csv(os.path.join(out_dir, "vds_trials.csv")):
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(row["trial"]))))
        a = rng.standard_normal((size, size))
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=size)[:, None]
        diag = 10.0 ** rng.uniform(-3.0, 3.0, size=size)
        rows = [[mp.mpf(float(x)) for x in r] for r in a]
        ea = [[x / mp.sqrt(mp.fsum(y * y for y in r)) for x in r] for r in rows]
        pa = [[mp.mpf(float(d)) * x for x in r] for d, r in zip(diag, rows)]
        for col, m in (("kappa_a", rows), ("kappa_ea", ea), ("kappa_pa", pa)):
            exact = kappa(m)
            worst = max(worst, float(abs(mp.mpf(row[col]) - exact) / exact))
    return worst


def kernel_agreement():
    """Run the compiled and fallback Jacobi kernels on the same seeded
    matrices.  Returns None when the compiled extension does not import,
    else a list of disagreements (empty when they agree)."""
    try:
        from equilab._kernels import _jacobi as compiled
    except ImportError:
        return None
    from equilab import densela
    from equilab._kernels import jacobi_py

    rng = np.random.default_rng(0)
    problems = []
    for n in (16, 32, 64, 96):
        a = rng.standard_normal((n, n))
        out = []
        for kernel in (jacobi_py, compiled):
            bt, vt = np.ascontiguousarray(a.T), np.eye(n)
            sweeps = kernel.jacobi_sweeps(bt, vt, densela._REL_TOL_FLOOR,
                                          1e-14 * float(np.sum(a * a)), densela.MAX_SWEEPS)
            out.append((tuple(sweeps), np.sort(np.linalg.norm(bt, axis=1))))
        (s_py, sig_py), (s_c, sig_c) = out
        if s_py != s_c:
            problems.append(f"n={n}: (sweeps, converged) {s_py} vs {s_c}")
        elif not np.allclose(sig_py, sig_c, rtol=1e-12, atol=0.0):
            problems.append(f"n={n}: singular values differ beyond 1e-12")
    return problems
