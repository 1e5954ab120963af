"""Pure-numpy fallback for the kernels of the preconditioned one-sided
Jacobi SVD.

Each factorization sorts the rows of the (tall) matrix by decreasing
norm, takes a Householder QR with column pivoting (qrcp), then runs the
Jacobi sweep (jacobi_sweeps) on R.  Same algorithms, pivots, reflector
convention and rotation/skip decisions as the compiled versions; results
may differ in the last bits because numpy dots accumulate in a different
order than the C loops.
"""

import math

import numpy as np


def jacobi_sweeps(bt, vt, rel_tol, abs_tol, max_sweeps, /):
    """Orthogonalize the rows of bt in place by cyclic Jacobi rotations.

    bt holds the working columns of the matrix being factored, one per row
    (densela passes qrcp's R, so the sweep factors R^T), and vt
    accumulates the same rotations starting from the identity, so on
    convergence vt is that matrix's V^T.  vt may be None when only the
    singular values (the row norms of bt) are wanted; the rotations and bt
    are then the same as with vt.

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


def _reflect(x, v, tau):
    """Apply H = I - tau v v^T to x in place."""
    w = tau * (v @ x)
    x -= np.outer(v, w)


def qrcp(a, r, q, /):
    """Row-sorted Householder QR with column pivoting: a[:, perm] = q @ r.

    a is a tall p x n matrix (p >= n), used as scratch: its contents on
    return are unspecified.  Its rows are first sorted stably by
    decreasing norm; then step k swaps in the first column of largest
    norm over rows k.. (norms recomputed at every step, not downdated)
    and applies the reflector H_k = I - tau v v^T with v[0] = 1 that maps
    that column's rows k.. to (beta, 0, ..., 0), beta = -sign(x_k) ||x||.
    r (n x n) receives the upper-triangular R.  q (p x n) receives Q with
    the row sort undone, or is None when only R is wanted; r is then the
    same as with q.  Returns perm, the column permutation as a list.
    """
    p, n = a.shape
    order = np.argsort(-np.einsum("ij,ij->i", a, a), kind="stable")
    s = a[order]
    perm = np.arange(n)
    tau = np.zeros(n)
    for k in range(n):
        cn = np.einsum("ij,ij->j", s[k:, k:], s[k:, k:])
        piv = int(np.argmax(cn))
        xnorm = math.sqrt(float(cn[piv]))
        piv += k
        if piv != k:
            s[:, [k, piv]] = s[:, [piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        if xnorm == 0.0:
            continue
        alpha = float(s[k, k])
        beta = -math.copysign(xnorm, alpha)
        tau[k] = (beta - alpha) / beta
        s[k + 1:, k] /= alpha - beta
        s[k, k] = beta
        v = np.concatenate(([1.0], s[k + 1:, k]))
        _reflect(s[k:, k + 1:], v, tau[k])
    r[...] = np.triu(s[:n])
    if q is not None:
        # Q = H_0 ... H_{n-1} [I; 0], accumulated backward
        qs = np.eye(p, n)
        for k in range(n - 1, -1, -1):
            if tau[k] != 0.0:
                _reflect(qs[k:, k:], np.concatenate(([1.0], s[k + 1:, k])), tau[k])
        q[order] = qs
    return perm.tolist()
