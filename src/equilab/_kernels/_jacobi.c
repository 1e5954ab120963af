/* Compiled kernels of the preconditioned one-sided Jacobi SVD, and the
 * module's method table, which also lists the text formatters format_rows
 * (trace CSVs, a block of rows per call) and format_points (SVG
 * polylines) of _reprfmt.cpp, and batch norm (batch_norm, batch_norm_vjp)
 * and the bias gradient's row_sums of _batchnorm.c.  Each docstring's
 * first line is the signature of the entry point's numpy fallback
 * (jacobi_py, reprfmt_py, batchnorm_py).
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

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Take a writable, C-contiguous, 2-d float64 buffer from obj, or raise
 * ValueError naming the argument. */
static int
get_matrix(PyObject *obj, const char *name, Py_buffer *view)
{
    const char *problem = NULL;

    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2)
        problem = "must be 2-d";
    else if (view->format == NULL || strcmp(view->format, "d") != 0)
        problem = "must hold float64";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        problem = "must be C-contiguous";
    else if (view->readonly)
        problem = "must be writable";
    if (problem == NULL)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s %s", name, problem);
    PyBuffer_Release(view);
    return -1;
}

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
"jacobi_sweeps(bt, vt, rel_tol, abs_tol, max_sweeps)\n--\n\n"
"Orthogonalize the rows of bt in place; accumulate rotations in vt.\n\n"
"Returns (sweeps_done, converged).  See jacobi_py.jacobi_sweeps for the\n"
"contract; bt rows are the working columns of the matrix under\n"
"factorization and vt starts as the identity.  Both must be writable,\n"
"C-contiguous 2-d float64 arrays with the same number of rows.  vt may\n"
"be None: then no rotation is accumulated and bt ends bit-identical to\n"
"the run with vt.");

static PyObject *
jacobi_sweeps(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"bt", "vt", "rel_tol", "abs_tol", "max_sweeps", NULL};
    PyObject *bt_obj, *vt_obj;
    double rel_tol, abs_tol;
    int max_sweeps;
    Py_buffer bt, vt;
    int have_vt;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOddi:jacobi_sweeps", kwlist,
                                     &bt_obj, &vt_obj, &rel_tol, &abs_tol, &max_sweeps))
        return NULL;
    if (get_matrix(bt_obj, "bt", &bt) < 0)
        return NULL;
    have_vt = vt_obj != Py_None;
    if (have_vt) {
        if (get_matrix(vt_obj, "vt", &vt) < 0) {
            PyBuffer_Release(&bt);
            return NULL;
        }
        if (vt.shape[0] != bt.shape[0]) {
            PyErr_Format(PyExc_ValueError, "vt has %zd rows, bt has %zd",
                         vt.shape[0], bt.shape[0]);
            PyBuffer_Release(&bt);
            PyBuffer_Release(&vt);
            return NULL;
        }
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
    PyBuffer_Release(&bt);
    if (have_vt)
        PyBuffer_Release(&vt);
    return Py_BuildValue("(iO)", sweeps_done, converged ? Py_True : Py_False);
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
"qrcp(a, r, q)\n--\n\n"
"Row-sorted Householder QR with column pivoting: a[:, perm] = q @ r.\n\n"
"Returns perm, the column permutation as a list.  See jacobi_py.qrcp for\n"
"the contract.  a (p x n, p >= n) is overwritten as scratch, r (n x n)\n"
"receives R, and q (p x n) receives Q, or is None when only R is\n"
"wanted; r is then bit-identical to the run with q.  All must be\n"
"writable, C-contiguous 2-d float64 arrays.");

static PyObject *
qrcp(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "r", "q", NULL};
    PyObject *a_obj, *r_obj, *q_obj, *result = NULL;
    Py_buffer a, r, q;
    int have_q;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:qrcp", kwlist,
                                     &a_obj, &r_obj, &q_obj))
        return NULL;
    if (get_matrix(a_obj, "a", &a) < 0)
        return NULL;
    if (get_matrix(r_obj, "r", &r) < 0) {
        PyBuffer_Release(&a);
        return NULL;
    }
    have_q = q_obj != Py_None;
    if (have_q && get_matrix(q_obj, "q", &q) < 0) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&r);
        return NULL;
    }

    Py_ssize_t p = a.shape[0], n = a.shape[1];
    Py_ssize_t *order = NULL, *perm = NULL;
    double **rows = NULL, **qrows = NULL, *norm2 = NULL, *cn = NULL, *tau = NULL, *w = NULL;

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
    if (have_q)
        PyBuffer_Release(&q);
    return result;
}

/* Defined in _reprfmt.cpp. */
PyObject *reprfmt_format_rows(PyObject *self, PyObject *args, PyObject *kwargs);
PyObject *reprfmt_format_points(PyObject *self, PyObject *args, PyObject *kwargs);

PyDoc_STRVAR(format_rows_doc,
"format_rows(values, start, stop)\n--\n\n"
"Rows [start, stop) of values as a tuple of two strs, split at start +\n"
"(stop - start) // 2, each row followed by CRLF.  Row i is str(i), its\n"
"index in values, then its cells, each equal to repr(float(x)) after a\n"
"comma.  values must be a C-contiguous 2-d float64 array and 0 <= start\n"
"<= stop <= len(values).  The second half is formatted on a second\n"
"thread, the GIL released; a call on the whole of values or on fewer\n"
"than 2 rows returns (text, \"\") and starts no thread.  See\n"
"reprfmt_py.format_rows for the fallback.");

PyDoc_STRVAR(format_points_doc,
"format_points(xs, ys)\n--\n\n"
"The points of an SVG polyline as one str: \"x,y\" per point, joined by\n"
"single spaces, each coordinate equal to \"%.6g\" % x (a NaN prints\n"
"\"nan\").  xs and ys must be C-contiguous 1-d float64 arrays of one\n"
"length.  See reprfmt_py.format_points for the fallback.");

/* Defined in _batchnorm.c. */
PyObject *batchnorm_batch_norm(PyObject *self, PyObject *const *args, Py_ssize_t nargs);
PyObject *batchnorm_batch_norm_vjp(PyObject *self, PyObject *const *args, Py_ssize_t nargs);
PyObject *batchnorm_row_sums(PyObject *self, PyObject *x);

PyDoc_STRVAR(batch_norm_doc,
"batch_norm(x, gamma, beta, running_mean, running_var, training, /)\n--\n\n"
"Batch norm of each feature of x over its rows: (out, xhat, s), with s of\n"
"shape x.shape[:-2] + (1, features).  x is a C-contiguous (rows,\n"
"features) float64 array or a (k, rows, features) stack of them; gamma,\n"
"beta and the running buffers are (features,) or (k, features) float64\n"
"arrays of any strides.  In training the batch statistics normalize and\n"
"the running buffers are updated in place; in eval the running\n"
"statistics normalize.  Every sum over rows takes numpy's order, so the\n"
"bits equal batchnorm_py.batch_norm's, the fallback.");

PyDoc_STRVAR(batch_norm_vjp_doc,
"batch_norm_vjp(g, xhat, s, gamma, training, /)\n--\n\n"
"(dx, dgamma, dbeta) of batch_norm from the gradient g of its output and\n"
"its xhat and s.  g and xhat are C-contiguous float64 arrays of x's\n"
"shape, s is batch_norm's, gamma as there.  The bits equal\n"
"batchnorm_py.batch_norm_vjp's, the fallback.");

PyDoc_STRVAR(row_sums_doc,
"row_sums(x, /)\n--\n\n"
"x.sum(axis=-2) of a C-contiguous float64 array of 2 or more dims, with\n"
"numpy's bits: rows added in order from +0.0 for two or more features,\n"
"+0.0 plus numpy's pairwise sum of the column for one.  See\n"
"batchnorm_py.row_sums for the fallback.");

static PyMethodDef methods[] = {
    {"jacobi_sweeps", (PyCFunction)(void (*)(void))jacobi_sweeps,
     METH_VARARGS | METH_KEYWORDS, jacobi_sweeps_doc},
    {"qrcp", (PyCFunction)(void (*)(void))qrcp,
     METH_VARARGS | METH_KEYWORDS, qrcp_doc},
    {"format_rows", (PyCFunction)(void (*)(void))reprfmt_format_rows,
     METH_VARARGS | METH_KEYWORDS, format_rows_doc},
    {"format_points", (PyCFunction)(void (*)(void))reprfmt_format_points,
     METH_VARARGS | METH_KEYWORDS, format_points_doc},
    {"batch_norm", (PyCFunction)(void (*)(void))batchnorm_batch_norm, METH_FASTCALL,
     batch_norm_doc},
    {"batch_norm_vjp", (PyCFunction)(void (*)(void))batchnorm_batch_norm_vjp, METH_FASTCALL,
     batch_norm_vjp_doc},
    {"row_sums", batchnorm_row_sums, METH_O, row_sums_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_jacobi",
    .m_doc = "Compiled QRCP and one-sided Jacobi sweep kernels, the\n"
              "trace-CSV and SVG-polyline formatters, and batch norm and\n"
              "row sums with numpy's bits.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__jacobi(void)
{
    return PyModule_Create(&module);
}
