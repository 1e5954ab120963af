/* Compiled one-sided Jacobi sweep kernel.
 *
 * Mirrors jacobi_py.jacobi_sweeps exactly (same rotation decisions, same
 * traversal order); the only differences are rounding from the scalar
 * accumulation order.  The matrices are read through the buffer protocol,
 * so the build needs a C compiler and the Python headers, nothing else.
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

static PyMethodDef methods[] = {
    {"jacobi_sweeps", (PyCFunction)(void (*)(void))jacobi_sweeps,
     METH_VARARGS | METH_KEYWORDS, jacobi_sweeps_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_jacobi",
    .m_doc = "Compiled one-sided Jacobi sweep kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__jacobi(void)
{
    return PyModule_Create(&module);
}
