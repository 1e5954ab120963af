"""`_heap.keep_freed_heap`: after it, a loop whose temporaries free more
than glibc's default trim threshold at the top of the heap keeps those
pages instead of faulting them back in every round."""

import platform
import subprocess
import sys

import pytest

CHURN = """
import resource
import numpy as np
from equilab._heap import keep_freed_heap

def faults_per_round(rounds=20):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        # twelve touched 120 KB blocks: each below the initial mmap threshold,
        # so they come from the heap, and together 1.44 MB, above the default
        # trim threshold (about 300 faults per round) and below the raised one
        blocks = [np.ones(15000) for _ in range(12)]
        del blocks
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / rounds

keep_freed_heap()
faults_per_round()
print(faults_per_round())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_freed_heap_is_kept_between_rounds():
    proc = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # one round touches about 350 pages; a kept heap faults none of them again
    assert float(proc.stdout) < 1.0
