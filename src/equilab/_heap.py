"""Keep freed memory on the heap between the steps of a loop.

glibc's malloc serves a block at or above its mmap threshold (128 KiB at
start) from a mapping of its own, and hands the top of its heap back to
the kernel whenever more than its trim threshold (also 128 KiB) is free
there.  An SGD step or a stacked gradient call whose temporaries add up
to more than that at the top of the heap then returns their pages at the
end of the step and faults them back in during the next one.  Whether a process
churns depends on its history, since any freed mapped block raises the
thresholds (see below).  Measured in perfbench worker processes (compiled
backend, checked bytecode, PYTHONDONTWRITEBYTECODE=1, seed 1, 6 s of
timed runs; 2 vCPU Xeon, glibc 2.36, NumPy 2.4.6), in minor faults per
timed run:
  - `hess121` (`fd_hessian`'s call): about 9,900 without it, under 1
    with it, so `hess121` still churns without the call;
  - `train7` (`train`'s call): about 1 with or without it.
`train`'s call stays: other processes, such as the acceptance tests,
reach their SGD steps through another allocation history.

When a mapped block of at most 32 MiB is freed, glibc raises the mmap
threshold to the block's size and the trim threshold to twice that, for
the rest of the process.  `keep_freed_heap` frees one such block, so the
loops that follow reuse their freed heap.  Other allocators are not
affected.
"""

import numpy as np

# large enough to end the churn of hess121, whose freed tops stay below
# twice this; a larger block would let the heap keep more
BLOCK_BYTES = 1 << 20


def keep_freed_heap():
    """Allocate and free one untouched BLOCK_BYTES block, so that glibc
    keeps up to 2 * BLOCK_BYTES of freed memory on its heap from now on."""
    np.empty(BLOCK_BYTES, dtype=np.uint8)
