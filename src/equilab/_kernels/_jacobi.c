/* Compiled kernels of the preconditioned one-sided Jacobi SVD, and the
 * module _jacobi, which adds the method tables of _reprfmt.cpp (the text
 * formatters format_rows and format_points), _batchnorm.c (batch_norm,
 * batch_norm_vjp and row_sums) and _netstep.c (bias_add, relu_vjp,
 * tanh_vjp, mse_tail, bce_tail, all_finite and sgd_step) to its own.  Each
 * source defines its entry points and their docstrings, whose first line
 * is the signature of the entry point's numpy fallback (jacobi_py,
 * reprfmt_py, batchnorm_py, netstep_py); _buffer.h holds the argument
 * contract they share.
 *
 * Each factorization sorts the rows of the (tall) matrix by decreasing
 * norm, takes a Householder QR with column pivoting (qrcp), then runs the
 * Jacobi sweep (jacobi_sweeps) on R.  Both functions mirror jacobi_py
 * exactly (same pivots, same reflector convention, same rotation
 * decisions, same traversal order); the only differences are rounding
 * from the scalar accumulation order.  The matrices are read through the
 * buffer protocol, so the build needs a C compiler and the Python
 * headers, nothing else.
 */

#include "_buffer.h"

#include <math.h>

/* Apply the plane rotation (c, s) to rows xs and ys of length len. */
static void
rotate(double *xs, double *ys, Py_ssize_t len, double c, double s)
{
    for (Py_ssize_t k = 0; k < len; k++) {
        double x = xs[k];
        double y = ys[k];
        xs[k] = c * x - s * y;
        ys[k] = s * x + c * y;
    }
}

PyDoc_STRVAR(jacobi_sweeps_doc,
"jacobi_sweeps(bt, vt, rel_tol, abs_tol, max_sweeps, /)\n--\n\n"
"Orthogonalize the rows of bt in place; accumulate rotations in vt.\n\n"
"Returns (sweeps_done, converged).  See jacobi_py.jacobi_sweeps for the\n"
"contract; bt rows are the working columns of the matrix under\n"
"factorization and vt starts as the identity.  Both must be writable,\n"
"C-contiguous 2-d float64 arrays with the same number of rows.  vt may\n"
"be None: then no rotation is accumulated and bt ends bit-identical to\n"
"the run with vt.");

static PyObject *
jacobi_sweeps(PyObject *self, PyObject *args)
{
    PyObject *bt_obj, *vt_obj, *result = NULL;
    double rel_tol, abs_tol;
    int max_sweeps;
    Py_buffer bt = {0}, vt = {0};

    (void)self;
    if (!PyArg_ParseTuple(args, "OOddi:jacobi_sweeps", &bt_obj, &vt_obj, &rel_tol, &abs_tol,
                          &max_sweeps)
        || get_array(bt_obj, "bt", 2, 2, 1, &bt) < 0
        || (vt_obj != Py_None && get_array(vt_obj, "vt", 2, 2, 1, &vt) < 0))
        goto done;
    int have_vt = vt_obj != Py_None;
    if (have_vt && vt.shape[0] != bt.shape[0]) {
        PyErr_Format(PyExc_ValueError, "vt has %zd rows, bt has %zd", vt.shape[0],
                     bt.shape[0]);
        goto done;
    }

    Py_ssize_t m = bt.shape[0], n = bt.shape[1], mv = have_vt ? vt.shape[1] : 0;
    double *b = bt.buf, *v = have_vt ? vt.buf : NULL;
    int sweeps_done = max_sweeps, converged = 0;

    for (int sweep = 0; sweep < max_sweeps; sweep++) {
        int rotated = 0;
        for (Py_ssize_t i = 0; i < m - 1; i++) {
            double *bi = b + i * n;
            for (Py_ssize_t j = i + 1; j < m; j++) {
                double *bj = b + j * n;
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                double ag, zeta, t, c, s;
                for (Py_ssize_t k = 0; k < n; k++) {
                    double x = bi[k];
                    double y = bj[k];
                    alpha += x * x;
                    beta += y * y;
                    gamma += x * y;
                }
                ag = fabs(gamma);
                if (ag <= abs_tol && ag <= rel_tol * sqrt(alpha) * sqrt(beta))
                    continue;
                zeta = (beta - alpha) / (2.0 * gamma);
                if (fabs(zeta) > 1e150)
                    t = 1.0 / (2.0 * zeta);  /* avoids overflow in zeta**2 */
                else
                    t = copysign(1.0, zeta) / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                c = 1.0 / sqrt(1.0 + t * t);
                s = c * t;
                rotate(bi, bj, n, c, s);
                if (have_vt)
                    rotate(v + i * mv, v + j * mv, mv, c, s);
                rotated = 1;
            }
        }
        if (!rotated) {
            sweeps_done = sweep + 1;
            converged = 1;
            break;
        }
    }
    result = Py_BuildValue("(iO)", sweeps_done, converged ? Py_True : Py_False);

done:
    PyBuffer_Release(&bt);
    PyBuffer_Release(&vt);
    return result;
}

/* Stable merge sort of idx[0:n] by decreasing key; tmp holds n entries.
 * Ties, and keys that compare unordered, keep their input order, and no
 * index leaves [0, n) whatever the keys are. */
static void
sort_decreasing(Py_ssize_t *idx, Py_ssize_t *tmp, const double *key, Py_ssize_t n)
{
    for (Py_ssize_t width = 1; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            Py_ssize_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = key[idx[j]] > key[idx[i]] ? idx[j++] : idx[i++];
            while (i < mid)
                tmp[k++] = idx[i++];
            while (j < hi)
                tmp[k++] = idx[j++];
        }
        memcpy(idx, tmp, (size_t)n * sizeof(*idx));
    }
}

/* Apply H = I - tau v v^T, v = (1, vrows[k+1][k], ..., vrows[p-1][k]), to
 * columns j0..n-1 of rows[k:]; w holds n doubles of scratch. */
static void
reflect(double **rows, double *const *vrows, Py_ssize_t p, Py_ssize_t n,
        Py_ssize_t k, Py_ssize_t j0, double tau, double *w)
{
    for (Py_ssize_t j = j0; j < n; j++)
        w[j] = rows[k][j];
    for (Py_ssize_t i = k + 1; i < p; i++) {
        double vi = vrows[i][k];
        for (Py_ssize_t j = j0; j < n; j++)
            w[j] += vi * rows[i][j];
    }
    for (Py_ssize_t j = j0; j < n; j++)
        w[j] *= tau;
    for (Py_ssize_t j = j0; j < n; j++)
        rows[k][j] -= w[j];
    for (Py_ssize_t i = k + 1; i < p; i++) {
        double vi = vrows[i][k];
        for (Py_ssize_t j = j0; j < n; j++)
            rows[i][j] -= vi * w[j];
    }
}

PyDoc_STRVAR(qrcp_doc,
"qrcp(a, r, q, /)\n--\n\n"
"Row-sorted Householder QR with column pivoting: a[:, perm] = q @ r.\n\n"
"Returns perm, the column permutation as a list.  See jacobi_py.qrcp for\n"
"the contract.  a (p x n, p >= n) is overwritten as scratch, r (n x n)\n"
"receives R, and q (p x n) receives Q, or is None when only R is\n"
"wanted; r is then bit-identical to the run with q.  All must be\n"
"writable, C-contiguous 2-d float64 arrays.");

static PyObject *
qrcp(PyObject *self, PyObject *args)
{
    PyObject *a_obj, *r_obj, *q_obj, *result = NULL;
    Py_buffer a = {0}, r = {0}, q = {0};
    Py_ssize_t *order = NULL, *perm = NULL;
    double **rows = NULL, **qrows = NULL, *norm2 = NULL, *cn = NULL, *tau = NULL, *w = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOO:qrcp", &a_obj, &r_obj, &q_obj)
        || get_array(a_obj, "a", 2, 2, 1, &a) < 0
        || get_array(r_obj, "r", 2, 2, 1, &r) < 0
        || (q_obj != Py_None && get_array(q_obj, "q", 2, 2, 1, &q) < 0))
        goto done;

    int have_q = q_obj != Py_None;
    Py_ssize_t p = a.shape[0], n = a.shape[1];
    if (p < n)
        PyErr_Format(PyExc_ValueError, "a must not be wide, got %zd x %zd", p, n);
    else if (r.shape[0] != n || r.shape[1] != n)
        PyErr_Format(PyExc_ValueError, "r must be %zd x %zd, got %zd x %zd",
                     n, n, r.shape[0], r.shape[1]);
    else if (have_q && (q.shape[0] != p || q.shape[1] != n))
        PyErr_Format(PyExc_ValueError, "q must be %zd x %zd, got %zd x %zd",
                     p, n, q.shape[0], q.shape[1]);
    if (PyErr_Occurred())
        goto done;

    order = PyMem_Malloc(2 * (size_t)p * sizeof(*order));
    perm = PyMem_Malloc((size_t)n * sizeof(*perm));
    rows = PyMem_Malloc(2 * (size_t)p * sizeof(*rows));
    norm2 = PyMem_Malloc(((size_t)p + 3 * (size_t)n) * sizeof(*norm2));
    if (order == NULL || perm == NULL || rows == NULL || norm2 == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    qrows = rows + p;
    cn = norm2 + p;
    tau = cn + n;
    w = tau + n;

    /* Sort the rows by decreasing norm; rows[i] is row i of the sorted
     * matrix, so the sort moves no data. */
    double *ad = a.buf;
    for (Py_ssize_t i = 0; i < p; i++) {
        double s = 0.0;
        for (Py_ssize_t j = 0; j < n; j++)
            s += ad[i * n + j] * ad[i * n + j];
        norm2[i] = s;
        order[i] = i;
    }
    sort_decreasing(order, order + p, norm2, p);
    for (Py_ssize_t i = 0; i < p; i++)
        rows[i] = ad + order[i] * n;

    for (Py_ssize_t j = 0; j < n; j++)
        perm[j] = j;
    for (Py_ssize_t k = 0; k < n; k++) {
        /* pivot: the first column of largest norm over rows k.., recomputed */
        for (Py_ssize_t j = k; j < n; j++)
            cn[j] = 0.0;
        for (Py_ssize_t i = k; i < p; i++)
            for (Py_ssize_t j = k; j < n; j++)
                cn[j] += rows[i][j] * rows[i][j];
        Py_ssize_t piv = k;
        for (Py_ssize_t j = k + 1; j < n; j++)
            if (cn[j] > cn[piv])
                piv = j;
        if (piv != k) {
            for (Py_ssize_t i = 0; i < p; i++) {
                double t = rows[i][k];
                rows[i][k] = rows[i][piv];
                rows[i][piv] = t;
            }
            Py_ssize_t t = perm[k];
            perm[k] = perm[piv];
            perm[piv] = t;
        }
        /* reflector zeroing rows k+1.. of column k; v is stored below R */
        double xnorm = sqrt(cn[piv]);
        tau[k] = 0.0;
        if (xnorm == 0.0)
            continue;
        double alpha = rows[k][k];
        double beta = -copysign(xnorm, alpha);
        tau[k] = (beta - alpha) / beta;
        for (Py_ssize_t i = k + 1; i < p; i++)
            rows[i][k] /= alpha - beta;
        rows[k][k] = beta;
        reflect(rows, rows, p, n, k, k + 1, tau[k], w);
    }

    double *rd = r.buf;
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = 0; j < n; j++)
            rd[i * n + j] = j >= i ? rows[i][j] : 0.0;

    if (have_q) {
        /* Q = H_0 ... H_{n-1} [I; 0], accumulated backward, written
         * through the row sort so that it is undone */
        double *qd = q.buf;
        for (Py_ssize_t i = 0; i < p; i++) {
            qrows[i] = qd + order[i] * n;
            for (Py_ssize_t j = 0; j < n; j++)
                qrows[i][j] = i == j ? 1.0 : 0.0;
        }
        for (Py_ssize_t k = n - 1; k >= 0; k--)
            if (tau[k] != 0.0)
                reflect(qrows, rows, p, n, k, k, tau[k], w);
    }

    result = PyList_New(n);
    if (result == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PyLong_FromSsize_t(perm[j]);
        if (item == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, j, item);
    }

done:
    PyMem_Free(order);
    PyMem_Free(perm);
    PyMem_Free(rows);
    PyMem_Free(norm2);
    PyBuffer_Release(&a);
    PyBuffer_Release(&r);
    PyBuffer_Release(&q);
    return result;
}

static PyMethodDef methods[] = {
    {"jacobi_sweeps", jacobi_sweeps, METH_VARARGS, jacobi_sweeps_doc},
    {"qrcp", qrcp, METH_VARARGS, qrcp_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_jacobi",
    .m_doc = "Compiled QRCP and one-sided Jacobi sweep kernels, the\n"
              "trace-CSV and SVG-polyline formatters, and batch norm, row\n"
              "sums and a net step's elementwise work with numpy's bits.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__jacobi(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && (PyModule_AddFunctions(m, reprfmt_methods) < 0
                      || PyModule_AddFunctions(m, batchnorm_methods) < 0
                      || PyModule_AddFunctions(m, netstep_methods) < 0))
        Py_CLEAR(m);
    return m;
}
