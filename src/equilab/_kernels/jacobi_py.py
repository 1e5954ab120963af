"""Pure-numpy fallback for the one-sided Jacobi sweep kernel.

Same algorithm and same rotation/skip decisions as the compiled version;
results may differ in the last bits because numpy dots accumulate in a
different order than the C loop.
"""

import math

import numpy as np


def jacobi_sweeps(bt, vt, rel_tol, abs_tol, max_sweeps):
    """Orthogonalize the rows of bt in place by cyclic Jacobi rotations.

    bt holds the working columns of the matrix being factored, one per row
    (i.e. bt = A.T for a tall A), and vt accumulates the same rotations
    starting from the identity, so on convergence vt is V^T.  vt may be
    None when only the singular values (the row norms of bt) are wanted;
    the rotations and bt are then the same as with vt.

    A pair (i, j) is rotated unless |<b_i, b_j>| is below abs_tol and below
    rel_tol * ||b_i|| * ||b_j||.  Returns (sweeps_done, converged).
    """
    m = bt.shape[0]
    for sweep in range(max_sweeps):
        rotated = False
        for i in range(m - 1):
            bi = bt[i]
            for j in range(i + 1, m):
                bj = bt[j]
                gamma = float(np.dot(bi, bj))
                ag = abs(gamma)
                alpha = float(np.dot(bi, bi))
                beta = float(np.dot(bj, bj))
                if ag <= abs_tol and ag <= rel_tol * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                if abs(zeta) > 1e150:
                    # asymptotic rotation; avoids overflow in zeta**2
                    t = 1.0 / (2.0 * zeta)
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                bi_new = c * bi - s * bj
                bt[j] = s * bi + c * bj
                bt[i] = bi_new
                bi = bt[i]
                if vt is not None:
                    vi = c * vt[i] - s * vt[j]
                    vt[j] = s * vt[i] + c * vt[j]
                    vt[i] = vi
                rotated = True
        if not rotated:
            return sweep + 1, True
    return max_sweeps, False
