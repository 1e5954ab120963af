"""Keep freed memory on the heap between the steps of a loop.

glibc's malloc serves a block at or above its mmap threshold (128 KiB at
start) from a mapping of its own, and hands the top of its heap back to
the kernel whenever more than its trim threshold (also 128 KiB) is free
there.  An SGD step or a stacked gradient call whose temporaries add up
to more than that at the top of the heap then returns their pages at the
end of the step and faults them back in during the next one: about 8,000
minor page faults per `train7` benchmark run and 10,000 per `hess121`
run, against about 100 without the churn.  Whether a process churned
depended on its history: `hess121` always did, and `train7` did when the
package's bytecode was loaded but not when its source was compiled at
import.

When a mapped block of at most 32 MiB is freed, glibc raises the mmap
threshold to the block's size and the trim threshold to twice that, for
the rest of the process.  `keep_freed_heap` frees one such block, so the
loops that follow reuse their freed heap.  Other allocators are not
affected.
"""

import numpy as np

# large enough to end the churn of train7 and hess121, whose freed tops
# stay below twice this; a larger block would let the heap keep more
BLOCK_BYTES = 1 << 20


def keep_freed_heap():
    """Allocate and free one untouched BLOCK_BYTES block, so that glibc
    keeps up to 2 * BLOCK_BYTES of freed memory on its heap from now on."""
    np.empty(BLOCK_BYTES, dtype=np.uint8)
